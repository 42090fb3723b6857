// Multi-tenant serving host: many (policy, dataset) pairs, one process.
//
// PR 1's ReleaseEngine serves exactly one policy over one dataset. A
// deployment fronts many: each tenant — a (policy_id, dataset_id) pair —
// gets its own long-lived engine with its own BudgetAccountant (budget
// isolation is per tenant), while every engine shares
//
//   * one persistent ThreadPool, so a process hosting fifty tenants runs
//     one bounded worker set, not a pool per tenant, and
//   * one process-wide SensitivityCache: S(f, P) depends on the policy
//     and query shape only, never on the data, so tenants serving
//     different datasets under the same policy reuse each other's
//     NP-hard policy-graph bounds.
//
// AddTenant builds the tenant's engine: ReleaseEngine::Create checks the
// domains, counts h(D) and fingerprints the policy, and the rows are
// dropped, so from AddTenant on a tenant holds O(|T|) memory for its
// data instead of O(n). SubmitBatch returns a std::future immediately,
// so many clients' batches interleave on the same workers.
//
// Each tenant has a FIFO strand: SubmitBatch appends the batch to the
// tenant's queue, and at most one pool task drains that queue, one
// batch per turn, re-posting itself after each batch — so tenants take
// turns one batch at a time, and no worker ever waits behind a batch
// of the same tenant (the workers stay free for a batch's own helper
// tasks and for other tenants). Determinism: a query's noise is a pure
// function of (tenant seed, admission order) — never of pool width or
// which worker executes it — and a tenant's admission order is its
// SubmitBatch call order, at any pool size. So replaying the same
// per-tenant sequence of SubmitBatch calls reproduces the same output,
// pipelined or not.

#ifndef BLOWFISH_SERVER_ENGINE_HOST_H_
#define BLOWFISH_SERVER_ENGINE_HOST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/policy.h"
#include "engine/release_engine.h"
#include "engine/sensitivity_cache.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/thread_pool.h"
#include "util/status.h"

namespace blowfish {

struct EngineHostOptions {
  /// Workers in the shared pool. Zero is allowed (batches run on their
  /// submitting thread — SubmitBatch futures then complete inline, with
  /// the one exception SubmitBatch documents).
  size_t num_threads = 4;
  /// Capacity of the process-wide shared SensitivityCache.
  size_t cache_capacity = 1024;
  /// Tenants without an explicit seed get one derived from this and
  /// their (policy_id, dataset_id) key, so a host restarted with the
  /// same configuration replays the same noise streams.
  uint64_t root_seed = 20140612;
  /// Registry the host's telemetry reports into — its shared pool and
  /// cache, and every tenant engine (each labeled
  /// {tenant=policy_id/dataset_id} on its budget metrics). nullptr = the
  /// process-wide default; tests inject a fresh registry for exact,
  /// isolated totals.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span tracer forwarded to every tenant engine. nullptr = the
  /// process-wide default writer (disabled until opened).
  obs::TraceWriter* tracer = nullptr;
  /// Privacy audit sink forwarded to every tenant engine (each tags
  /// its lines with its {tenant=...} scope, so one log serves all
  /// tenants distinguishably and replays per tenant). nullptr = the
  /// process-wide AuditLog::Global() (disabled until opened).
  obs::AuditLog* audit = nullptr;
};

/// Per-tenant knobs, forwarded into the tenant's ReleaseEngineOptions.
struct TenantOptions {
  double default_session_budget = 10.0;
  /// Unset: derived from the host seed and the tenant key.
  std::optional<uint64_t> root_seed;
};

class EngineHost {
 public:
  /// Fires on the pool thread that served a batch, immediately after
  /// the batch finished (receipts settled, refunds applied) and BEFORE
  /// the SubmitBatch future resolves. This is the non-blocking
  /// alternative to future.get(): an event-driven caller (the net
  /// layer's reactor) uses it to emit the batch's RECEIPT/DONE frames
  /// without parking a thread on the future. Runs after every
  /// on_complete callback of the batch has returned.
  using BatchDoneCallback =
      std::function<void(const StatusOr<std::vector<QueryResponse>>&)>;

  explicit EngineHost(EngineHostOptions options = {});

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Drains the pool (every submitted batch completes) and joins.
  ~EngineHost();

  /// Registers a tenant and builds its engine (ReleaseEngine::Create).
  /// Fails, registering nothing, if Create refuses the policy, dataset
  /// or options, or if the key is taken.
  Status AddTenant(const std::string& policy_id,
                   const std::string& dataset_id, Policy policy,
                   Dataset data, TenantOptions options = {});

  /// Enqueues a batch on its tenant's strand and returns immediately;
  /// the future delivers the responses (or NotFound for an unknown
  /// tenant). A tenant's batches are admitted one at a time, in
  /// SubmitBatch call order; different tenants' batches interleave, one
  /// batch per tenant per turn. Do not block on the future from a task
  /// running on this host's own pool — the batch may be queued behind
  /// you; use ServeBatch, which runs inline there.
  ///
  /// `on_complete`, when set, streams each query's response as it
  /// finishes, ahead of the future (engine/release_engine.h documents
  /// the callback contract). Payloads are bit-identical to the future's
  /// for any pool size; callbacks run on pool threads, serialized per
  /// batch. No callback fires for a batch to an unknown tenant — the
  /// future carries NotFound.
  ///
  /// `trace`, when valid, is the batch's wire-propagated trace context
  /// (threaded into the engine's spans and audit lines); the host also
  /// emits a "queue_wait" span covering SubmitBatch -> batch start, the
  /// interval host_queue_wait_us records with tracing off too.
  ///
  /// `on_done`, when set, receives the same value the future will
  /// carry, on the serving pool thread, before the future resolves —
  /// including the unknown tenant's NotFound, which never fires
  /// on_complete. With a zero-thread pool the whole batch (and
  /// therefore on_done) runs inline on the submitting thread before
  /// SubmitBatch returns — unless another thread is already draining
  /// the same tenant's strand: the batch then runs on that thread, after
  /// SubmitBatch returns.
  std::future<StatusOr<std::vector<QueryResponse>>> SubmitBatch(
      const std::string& policy_id, const std::string& dataset_id,
      std::vector<QueryRequest> requests,
      QueryCompletionCallback on_complete = nullptr,
      const obs::TraceContext& trace = obs::TraceContext(),
      BatchDoneCallback on_done = nullptr);

  /// Synchronous convenience: SubmitBatch + get(); called from one of
  /// this host's own pool workers, it serves the batch inline instead
  /// (deadlock-free).
  StatusOr<std::vector<QueryResponse>> ServeBatch(
      const std::string& policy_id, const std::string& dataset_id,
      std::vector<QueryRequest> requests,
      QueryCompletionCallback on_complete = nullptr,
      const obs::TraceContext& trace = obs::TraceContext());

  /// Parses `text` with the batch-file grammar (engine/batch_request.h)
  /// into submittable requests. A static pass-through so the wire layer
  /// (src/net/) can build batches while reaching the engine only
  /// through this header — CI greps that src/net/ includes no
  /// engine/core/mech header directly.
  static StatusOr<std::vector<QueryRequest>> ParseBatchText(
      const std::string& text);

  /// The tenant's engine (e.g. to open budget sessions before traffic),
  /// or NotFound for an unknown tenant.
  StatusOr<ReleaseEngine*> engine(const std::string& policy_id,
                                  const std::string& dataset_id);

  bool HasTenant(const std::string& policy_id,
                 const std::string& dataset_id) const;

  /// Registered tenant keys, in order.
  std::vector<std::pair<std::string, std::string>> Tenants() const;

  SensitivityCache& cache() { return *cache_; }
  ThreadPool& pool() { return *pool_; }

  /// One budget line of the HEALTH surface: a tenant engine's session,
  /// with the engine's metrics scope as the tenant label.
  struct TenantBudget {
    std::string tenant;  // policy_id/dataset_id, label-sanitized
    std::string session;
    double budget = 0.0;
    double spent = 0.0;
    double remaining = 0.0;
  };

  /// Snapshot of every session of every tenant, for liveness
  /// reporting. A session exists once it is opened or first charged, so
  /// a tenant that has served nothing and opened nothing reports none.
  std::vector<TenantBudget> BudgetSnapshot() const;

  /// Stops the pool after draining queued batches. Idempotent; batches
  /// submitted afterwards run inline, as on a zero-thread pool.
  void Shutdown();

 private:
  using TenantKey = std::pair<std::string, std::string>;

  struct Tenant {
    /// Built by AddTenant; never replaced.
    std::unique_ptr<ReleaseEngine> engine;

    /// The strand: batches submitted but not started, in SubmitBatch
    /// order, and whether a pool task owns them (posted or running).
    std::mutex strand_mu;
    std::deque<std::function<void()>> backlog;
    bool draining = false;
  };

  /// The tenant's registry entry, or nullptr. Entries live as long as
  /// the host.
  Tenant* FindTenant(const TenantKey& key) const;

  /// The strand's pool task: serves the tenant's next batch, then
  /// re-posts itself while batches remain.
  void DrainStrand(Tenant* tenant);

  EngineHostOptions options_;
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<SensitivityCache> cache_;
  /// Resolved once in the constructor; never null.
  obs::Histogram* queue_wait_us_;
  obs::Gauge* batches_queued_;
  mutable std::mutex mu_;  // guards tenants_ (the map, not the entries)
  std::map<TenantKey, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace blowfish

#endif  // BLOWFISH_SERVER_ENGINE_HOST_H_
