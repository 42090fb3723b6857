// When parallel composition applies (Sec 4.1).
//
// Sequential composition (Thm 4.1): privacy losses add. Parallel
// composition over disjoint id-subsets costs the max loss, provided the
// policy's constraints cannot couple the subsets: with cardinality-only
// knowledge this always holds (Thm 4.2); with general constraints it holds
// when each constraint only affects one subset (Thm 4.3). With uniform
// secrets (the same discriminative pairs for every individual — the
// setting of this library and the paper's experiments), a constraint
// affects *every* subset as soon as crit(q) is non-empty, so the practical
// check is "every constraint has an empty critical set" — e.g. counts of
// whole G-components, as in the paper's closing example of Sec 4.1.
// The checks here decide whether a group may be charged its max; the
// charging itself is engine/budget_accountant.h.

#ifndef BLOWFISH_CORE_PRIVACY_LOSS_H_
#define BLOWFISH_CORE_PRIVACY_LOSS_H_

#include <vector>

#include "core/policy.h"
#include "util/status.h"

namespace blowfish {

/// Thm 4.3 precondition under uniform secrets: parallel composition over
/// disjoint id-subsets is valid iff every constraint in the policy has an
/// empty critical set crit(q) — no edge of G changes the constraint's
/// answer. (Constraints with non-empty crit couple tuples across subsets,
/// as in the male/female example of Sec 4.1.)
StatusOr<bool> ParallelCompositionValid(const Policy& policy,
                                        uint64_t max_edges);

/// Refined Thm 4.3 for *cell-restricted* queries under a partition secret
/// graph G^P. Each member of a parallel group reads only the histogram of
/// its own cell set; a minimal (G, Q)-neighbour step is confined to one
/// coupled component of the per-cell critical-set analysis
/// (core/constraints.h, CellCriticalSets), so the joint release costs
/// max(eps) iff no coupled component intersects two different members'
/// cell sets — even when constraints have non-empty critical sets, which
/// the uniform-secrets check above would refuse outright. Members' cell
/// sets must be pairwise disjoint (the caller's Thm 4.2 obligation; not
/// re-checked here). Unconstrained policies are trivially valid. A
/// constrained policy over a non-partition graph falls back to the
/// all-critical-sets-empty check.
StatusOr<bool> ConstrainedParallelCellsValid(
    const Policy& policy,
    const std::vector<std::vector<uint64_t>>& member_cells,
    uint64_t max_edges);

/// The component-disjointness half of the check against precomputed
/// critical sets (core/constraints.h, ComputeCellCriticalSets): true
/// iff no coupled component intersects two members' cell sets. The
/// engine memoizes the critical sets per policy and calls this per
/// group instead of re-enumerating the secret graph every batch.
bool CellGroupsSeparateComponents(
    const CellCriticalSets& critical_sets,
    const std::vector<std::vector<uint64_t>>& member_cells);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_PRIVACY_LOSS_H_
