#include "core/privacy_loss.h"

#include <algorithm>

namespace blowfish {

StatusOr<bool> ParallelCompositionValid(const Policy& policy,
                                        uint64_t max_edges) {
  const ConstraintSet& q = policy.constraints();
  for (size_t i = 0; i < q.size(); ++i) {
    BLOWFISH_ASSIGN_OR_RETURN(
        bool critical, q.HasCriticalPair(i, policy.graph(), max_edges));
    if (critical) return false;
  }
  return true;
}

StatusOr<bool> ConstrainedParallelCellsValid(
    const Policy& policy,
    const std::vector<std::vector<uint64_t>>& member_cells,
    uint64_t max_edges) {
  if (!policy.has_constraints()) return true;
  const auto* partition =
      dynamic_cast<const PartitionGraph*>(&policy.graph());
  if (partition == nullptr) {
    // No cell structure to refine on: only empty critical sets are safe.
    return ParallelCompositionValid(policy, max_edges);
  }
  BLOWFISH_ASSIGN_OR_RETURN(
      CellCriticalSets crit,
      ComputeCellCriticalSets(policy.constraints(), *partition, max_edges));
  return CellGroupsSeparateComponents(crit, member_cells);
}

bool CellGroupsSeparateComponents(
    const CellCriticalSets& critical_sets,
    const std::vector<std::vector<uint64_t>>& member_cells) {
  for (const std::vector<uint64_t>& component :
       critical_sets.component_cells) {
    size_t touched = 0;
    for (const std::vector<uint64_t>& cells : member_cells) {
      bool intersects = false;
      for (uint64_t c : cells) {
        if (std::binary_search(component.begin(), component.end(), c)) {
          intersects = true;
          break;
        }
      }
      if (intersects && ++touched > 1) return false;
    }
  }
  return true;
}

}  // namespace blowfish
