// Stateful batched query serving on top of the core/mech layers.
//
// The library's mechanisms are one-shot calls: given a policy, a dataset,
// an epsilon, and an RNG, produce a release. A production deployment
// instead keeps one long-lived engine per (policy, dataset) pair and
// pushes heterogeneous query traffic through it. The ReleaseEngine owns:
//
//   * a BudgetAccountant — refuses queries that would overspend a
//     session's epsilon budget, applying sequential composition (Thm 4.1)
//     and parallel composition for structurally disjoint queries
//     (Thms 4.2/4.3; see `parallel_group` below);
//   * a SensitivityCache — (policy, query-shape) -> S(f, P), so the
//     NP-hard policy-graph bounds and edge enumerations are computed once
//     per shape, not once per query. The cache may be shared process-wide
//     across engines (see server/engine_host.h): S(f, P) depends only on
//     the policy and query shape, never on the data, so tenants serving
//     different datasets under the same policy reuse each other's work;
//   * a persistent worker pool (util/thread_pool.h), injected — an
//     EngineHost passes one pool to all of its tenants. Without one, the
//     engine runs each batch on the submitting thread. A batch's queries
//     are drained cooperatively: the submitting thread executes queries
//     alongside the pool's workers, so a batch completes even when every
//     pool worker is busy with other tenants (and nested submission — a
//     batch task on the pool fanning out to the same pool — cannot
//     deadlock). Each query draws noise from an independent Random
//     forked deterministically from the engine's root seed (util/random.h
//     Fork(stream_id)), so a batch's output is bit-identical regardless
//     of pool size or scheduling.
//   * the complete histogram h(D), counted once in Create with
//     Dataset::CompleteHistogram. It is the engine's only copy of the
//     data: every op reads it, no rows are kept, and an engine's memory
//     is O(|T|) whatever the number of rows.
//
// The engine knows no query kind by name: every request carries a
// QueryOp (engine/ops/query_op.h), and validation, sensitivity shape and
// computation, charging, parallel-composition eligibility, and execution
// all dispatch through it. Adding a workload is one new op file; the
// engine is untouched.
//
// Parallel groups: requests sharing a non-empty `parallel_group` are
// charged max(eps) instead of sum(eps). The engine only accepts groups it
// can prove structurally disjoint: every member's op must expose its G^P
// partition cells (QueryOp::ParallelCells — today only cell-restricted
// histograms do), the cell sets must be pairwise disjoint under a
// partition secret graph (an individual's cell is public under G^P, so
// disjoint cell sets touch disjoint individuals, Thm 4.2), and on a
// constrained policy the group must pass the refined Thm 4.3 check
// (core/privacy_loss.h, ConstrainedParallelCellsValid): no coupled
// component of the per-cell critical-set analysis may intersect two
// members' cell sets. Constraints with non-empty critical sets are fine
// as long as each one's critical cells stay within a single member (or
// outside the group entirely). Admitted constrained groups are noised
// at the shared union-cells sensitivity rather than per member: a
// neighbour step's compensating moves can land in any cell, so several
// members' histograms may change in one step, and the union scale is
// what makes the single max-epsilon charge sound
// (sum_m eps_m L1_m / S_union <= max_m eps_m).

#ifndef BLOWFISH_ENGINE_RELEASE_ENGINE_H_
#define BLOWFISH_ENGINE_RELEASE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/dataset.h"
#include "core/policy.h"
#include "engine/budget_accountant.h"
#include "engine/ops/query_op.h"
#include "engine/sensitivity_cache.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

/// One query in a batch: a parsed QueryOp plus the serving envelope.
/// Construct via ParseBatchRequests or MakeQueryRequest
/// (engine/batch_request.h) — both go through the QueryOpRegistry.
struct QueryRequest {
  /// The parsed query (immutable; shared across request copies). A
  /// request with no op fails admission with InvalidArgument.
  std::shared_ptr<const QueryOp> op;
  /// Privacy parameter the noise is calibrated to. May be 0 only when the
  /// query's policy-specific sensitivity is 0 (a free release).
  double epsilon = 0.0;
  std::string label;
  /// Budget session to charge ("" = the default session).
  std::string session;
  /// Non-empty: charge this request jointly with all same-group,
  /// same-session requests in the batch via parallel composition.
  std::string parallel_group;
};

/// The request's kind name, resolved through its op. Returns the
/// sentinel "unknown" for a request with no op — the registry
/// (QueryOpRegistry) is the single source of truth for name <-> op
/// round-trips; there is no separate kind table to fall through.
std::string QueryKindName(const QueryRequest& request);

/// Per-query result. A failed query carries its error in `status`; the
/// rest of the batch is unaffected.
struct QueryResponse {
  Status status;
  std::string label;
  /// Released payload; layout is per kind (see the op's file under
  /// engine/ops/).
  std::vector<double> values;
  /// The S(f, P) the noise was calibrated to.
  double sensitivity = 0.0;
  /// Whether the sensitivity came out of the cache.
  bool cache_hit = false;
  BudgetReceipt receipt;
};

/// Streaming per-query completion: invoked exactly once per request —
/// for admitted queries as each finishes executing, for refused queries
/// before execution starts (in request order). Calls are serialized (no
/// two run concurrently) but may arrive on pool worker threads and, for
/// admitted queries, in completion order, which depends on scheduling.
/// The payload seen by the callback is bit-identical to the one in
/// ServeBatch's returned vector for any pool size; only the receipt may
/// still change after the callback (end-of-batch refunds/settlement).
using QueryCompletionCallback =
    std::function<void(size_t index, const QueryResponse& response)>;

class ThreadPool;

struct ReleaseEngineOptions {
  /// Shared persistent worker pool. When set, batches execute on it (the
  /// submitting thread participates too); the pool must outlive the
  /// engine. An EngineHost passes one pool to all of its tenants. Unset:
  /// each batch runs on its submitting thread. Output is identical
  /// either way, for any pool size.
  std::shared_ptr<ThreadPool> pool;
  /// Shared sensitivity cache. When set, it replaces the engine's private
  /// 128-entry cache; an EngineHost passes one process-wide cache to all
  /// of its tenants.
  std::shared_ptr<SensitivityCache> shared_cache;
  /// Root seed; per-query RNGs are Fork(stream_id) derivations of it.
  uint64_t root_seed = 20140612;
  /// Budget for sessions auto-created on first use.
  double default_session_budget = 10.0;
  /// Registry for the engine's telemetry (per-kind dispatch latency and
  /// spend, refusal-by-status counters, batch counters) and its
  /// accountant's per-tenant budget counters. nullptr = the process-wide
  /// default. Metrics never touch RNG streams or reorder completions:
  /// handle resolution happens at admission (already serialized), the
  /// drain path touches only sharded atomics.
  obs::MetricsRegistry* metrics = nullptr;
  /// Non-empty: the {tenant=...} label on this engine's budget metrics
  /// (an EngineHost passes its tenant id so one registry serves all
  /// tenants distinguishably).
  std::string metrics_scope;
  /// Span tracer for per-batch / per-query JSONL spans. nullptr = the
  /// process-wide default writer, which is disabled until the daemon's
  /// --trace_file opens it; spans are emitted at batch end, after
  /// settlement, so a span's receipt fields are final.
  obs::TraceWriter* tracer = nullptr;
  /// Privacy audit sink: every budget-affecting event of a batch —
  /// charge, parallel-group admission, refusal, refund, settle — is
  /// recorded as one JSONL line, in exact ledger order, such that
  /// replaying the log reproduces the accountant's persisted ledger
  /// byte-for-byte (src/server/audit_replay.h). nullptr = the
  /// process-wide AuditLog::Global(), disabled until the daemon's
  /// --audit_file opens it. Events are gathered during admission and
  /// written in the batch epilogue, off the accountant's mutex.
  obs::AuditLog* audit = nullptr;
};

class ReleaseEngine {
 public:
  /// Builds the engine: checks that the dataset's domain is the
  /// policy's, counts h(D) (refusing domains too large to materialize
  /// it) and fingerprints the policy. The rows are not kept.
  static StatusOr<std::unique_ptr<ReleaseEngine>> Create(
      Policy policy, Dataset data, ReleaseEngineOptions options = {});

  /// Out-of-line: the per-kind metrics map holds a type private to the
  /// .cc file.
  ~ReleaseEngine();

  /// Serves a batch. Sensitivity resolution and budget charging run
  /// sequentially (so admission is deterministic); execution fans out
  /// across the worker pool, with the calling thread draining the batch
  /// queue alongside the workers. Admission refuses a query with S > 0
  /// whose eps is not positive or whose Laplace scale S/eps overflows,
  /// before any charge. A query that fails *after* its budget charge
  /// (mechanism error mid-batch, or a released value that is not
  /// finite) is refunded and publishes nothing — for a parallel group,
  /// only when every member failed, since one group charge covers all
  /// members. Batches are serialized against each other; with the
  /// same construction seed and the same request history the output is
  /// bit-identical regardless of pool size.
  ///
  /// `on_complete`, when set, streams each query's response as it
  /// finishes instead of making callers wait for the whole batch (see
  /// QueryCompletionCallback for the exact contract). The returned
  /// vector is unchanged by streaming.
  ///
  /// `trace`, when valid, is the wire-propagated trace context for the
  /// batch: every span and audit line the batch emits is stamped with
  /// its ids, joining the server-side tree to the client's. Telemetry
  /// only — serving is bit-identical with or without it.
  std::vector<QueryResponse> ServeBatch(
      const std::vector<QueryRequest>& requests,
      const QueryCompletionCallback& on_complete = nullptr,
      const obs::TraceContext& trace = obs::TraceContext());

  BudgetAccountant& accountant() { return accountant_; }
  SensitivityCache& cache() { return *cache_; }
  const Policy& policy() const { return policy_; }
  /// The complete histogram h(D); its Total() is the row count n.
  const Histogram& hist() const { return hist_; }
  const std::string& policy_fingerprint() const { return policy_fp_; }

 private:
  struct Work;
  struct KindMetrics;

  ReleaseEngine(Policy policy, Histogram hist, Dataset no_rows,
                ReleaseEngineOptions options);

  /// Per-kind metric handles, resolved lazily under serve_mu_ (admission
  /// is serialized, so the map never races; drain threads only see the
  /// stable handle pointers stashed in their Work items).
  const KindMetrics& KindMetricsFor(const std::string& kind);

  /// Counts one refusal under the status code's label, resolving the
  /// per-code counter lazily. Must hold serve_mu_.
  void CountRefusal(StatusCode code);

  /// Cache-backed S(f, P) for the request's shape. Sets `cache_hit`.
  StatusOr<double> ResolveSensitivity(const QueryRequest& request,
                                      bool* cache_hit);

  /// Runs one admitted query with its own RNG; writes into `response`.
  void Execute(const QueryRequest& request, Random rng,
               QueryResponse* response) const;

  Policy policy_;
  /// h(D), counted in Create; read-only from then on.
  Histogram hist_;
  /// A zero-row dataset over the policy's domain, for
  /// QueryExecContext::data (which no op reads).
  Dataset no_rows_;
  ReleaseEngineOptions options_;
  std::string policy_fp_;
  BudgetAccountant accountant_;
  /// Injected (options.shared_cache) or engine-private.
  std::shared_ptr<SensitivityCache> cache_;
  /// Injected (options.pool), or a zero-worker pool that runs every
  /// batch on its submitting thread.
  std::shared_ptr<ThreadPool> pool_;
  /// Per-query RNGs are Random(root_seed_).Fork(stream_id): derived from
  /// the seed alone, never from generator state, so determinism cannot be
  /// broken by an accidental draw.
  uint64_t root_seed_;
  /// Next RNG stream id; monotone across batches. Guarded by serve_mu_.
  uint64_t next_stream_ = 0;
  /// Lazily computed per-cell critical sets of the policy's pinned
  /// constraints (a pure function of the immutable policy) — the
  /// secret-graph enumeration behind the parallel-group predicate runs
  /// once per engine, not once per batch. Guarded by serve_mu_.
  std::optional<StatusOr<CellCriticalSets>> cell_critical_sets_;
  /// Telemetry. The registry/tracer pointers are resolved at
  /// construction and never null; the per-kind and per-code maps are
  /// guarded by serve_mu_ (see KindMetricsFor).
  obs::MetricsRegistry* metrics_;
  obs::TraceWriter* tracer_;
  obs::AuditLog* audit_;
  obs::Counter* batches_total_;
  obs::Histogram* batch_latency_us_;
  std::map<std::string, std::unique_ptr<KindMetrics>> kind_metrics_;
  std::map<StatusCode, obs::Counter*> refusal_counters_;
  /// Serializes ServeBatch. An EngineHost already hands a tenant's
  /// batches over one at a time (its per-tenant strand); this guards
  /// direct concurrent callers, and a host's inline ServeBatch from one
  /// of its own pool workers.
  std::mutex serve_mu_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_RELEASE_ENGINE_H_
