// The measured phase: client threads drive a served host over loopback
// with BlowfishClient in a closed loop (each waits for its replies),
// timing every batch from its SUBMIT being written to its DONE being
// read, checking every answer against the tenant's exact histogram, and
// diffing the server's STATS counters around the phase.

#ifndef WIREBENCH_DRIVE_H_
#define WIREBENCH_DRIVE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/release_engine.h"
#include "fixture.h"
#include "workload.h"

namespace wirebench {

struct BatchRecord {
  int thread = 0;
  size_t tenant = 0;
  /// Index of the connection (per thread) the batch rode; replays keep
  /// connection boundaries.
  size_t connection = 0;
  int depth = 1;
  std::string text;
  size_t queries = 0;
  /// Phase-relative seconds: SUBMIT written (start of the submit call)
  /// and DONE read (the batch's responses handed back).
  double submit_s = 0.0;
  double done_s = 0.0;
  /// Smallest receipt charge_id in the batch: the tenant's serve order.
  uint64_t first_charge = 0;
  uint64_t digest = 0;
  size_t failed = 0;
  /// Traced phases only: (session, charged) of every receipt with a
  /// positive charge, in request order — what the accountant replay
  /// re-charges. (Records are kept small: their memory counts in the
  /// process's peak RSS.)
  std::vector<std::pair<std::string, double>> charges;
};

/// Error-to-noise-scale accounting: per query, mean |released - exact|
/// over the payload divided by S / eps.
struct ErrAccum {
  /// kind -> (sum of per-query ratios, queries).
  std::map<std::string, std::pair<double, size_t>> per_kind;
  /// histogram / cell_histogram cells pooled: sum of |noise| / (S/eps).
  double noise_sum = 0.0;
  size_t noise_cells = 0;

  void Merge(const ErrAccum& other);
  double Overall() const;  // mean per-query ratio over every kind
  size_t Queries() const;
};

/// One client-side span (traced phases only), phase-relative seconds.
struct Span {
  std::string name;
  int thread = 0;
  int64_t batch = -1;  // index into PhaseResult::batches, or -1
  double start_s = 0.0;
  double end_s = 0.0;
};

struct PhaseResult {
  double seconds = 0.0;      // the measured window
  double wall_s = 0.0;       // window plus the drain of in-flight batches
  std::vector<BatchRecord> batches;
  std::vector<double> connect_ms;
  ErrAccum err;
  /// (tenant, session) -> sum of receipt `charged`, warm-up included.
  std::map<std::pair<size_t, std::string>, double> charged;
  std::map<std::string, double> stats_before, stats_after;
  std::map<std::string, double> health;
  double cpu_s = 0.0;
  uint64_t audit_bytes = 0;
  /// Distinct (policy, sensitivity shape) pairs the traffic asked for.
  std::set<std::string> shapes;
  /// Queries per kind.
  std::map<std::string, size_t> kind_counts;
  size_t queries_attempted = 0;
  size_t queries_failed = 0;
  /// First client-side error (transport, protocol, answer layout).
  std::string error;
  std::vector<Span> spans;

  /// Counter delta across the phase (0 when absent).
  double StatDelta(const std::string& name) const;
};

/// Runs the closed loop for `seconds` against `host`. `traced` records
/// client spans (connect, submit, await, each RESULT arrival) in memory.
PhaseResult RunWirePhase(const Workload& w,
                         const std::vector<TenantTruth>& truth,
                         ServedHost& host, uint64_t seed, double seconds,
                         bool traced);

/// Accounts one OK response against the tenant's exact answer; returns
/// false when the payload layout differs from the exact answer's.
bool AccountError(const blowfish::QueryOp& op, const TenantTruth& truth,
                  const blowfish::QueryResponse& response, ErrAccum* err);

}  // namespace wirebench

#endif  // WIREBENCH_DRIVE_H_
