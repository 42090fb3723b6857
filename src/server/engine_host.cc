#include "server/engine_host.h"

#include <utility>

#include "engine/batch_request.h"
#include "util/random.h"

namespace blowfish {

namespace {

/// Stable (FNV-1a) string hash — std::hash is not specified to be stable,
/// and derived tenant seeds should survive a rebuild.
uint64_t Fnv1a(const std::string& text, uint64_t h) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DeriveTenantSeed(uint64_t host_seed, const std::string& policy_id,
                          const std::string& dataset_id) {
  uint64_t h = Fnv1a(policy_id, 0xcbf29ce484222325ULL);
  h = Fnv1a("\x1f", h);
  h = Fnv1a(dataset_id, h);
  // Same derivation shape as Random::Fork(stream_id): seed ^ mixed id,
  // mixed again.
  return SplitMix64(host_seed ^ SplitMix64(h));
}

/// The {tenant=...} label value for a tenant's metrics. Label blocks use
/// '{', '}', ',' and '=' structurally, so those (and quotes) are mapped
/// to '_' — ids come from configs and are normally already clean.
std::string TenantMetricsScope(const std::string& policy_id,
                               const std::string& dataset_id) {
  std::string scope = policy_id + "/" + dataset_id;
  for (char& c : scope) {
    if (c == '{' || c == '}' || c == ',' || c == '=' || c == '"') c = '_';
  }
  return scope;
}

Status UnknownTenant(const std::pair<std::string, std::string>& key) {
  return Status::NotFound("unknown tenant ('" + key.first + "', '" +
                          key.second + "')");
}

}  // namespace

EngineHost::EngineHost(EngineHostOptions options)
    : options_(options),
      pool_(std::make_shared<ThreadPool>(options.num_threads,
                                         options.metrics)),
      cache_(std::make_shared<SensitivityCache>(options.cache_capacity,
                                                options.metrics)) {
  obs::MetricsRegistry* metrics = options.metrics != nullptr
                                      ? options.metrics
                                      : obs::MetricsRegistry::Global();
  queue_wait_us_ = metrics->GetHistogram("host_queue_wait_us");
  batches_queued_ = metrics->GetGauge("host_batches_queued");
}

EngineHost::~EngineHost() { Shutdown(); }

void EngineHost::Shutdown() { pool_->Shutdown(); }

Status EngineHost::AddTenant(const std::string& policy_id,
                             const std::string& dataset_id, Policy policy,
                             Dataset data, TenantOptions options) {
  ReleaseEngineOptions engine_options;
  engine_options.pool = pool_;
  engine_options.shared_cache = cache_;
  engine_options.root_seed = options.root_seed.value_or(
      DeriveTenantSeed(options_.root_seed, policy_id, dataset_id));
  engine_options.default_session_budget = options.default_session_budget;
  engine_options.metrics = options_.metrics;
  engine_options.metrics_scope = TenantMetricsScope(policy_id, dataset_id);
  engine_options.tracer = options_.tracer;
  engine_options.audit = options_.audit;
  auto tenant = std::make_unique<Tenant>();
  BLOWFISH_ASSIGN_OR_RETURN(
      tenant->engine, ReleaseEngine::Create(std::move(policy),
                                            std::move(data), engine_options));
  std::lock_guard<std::mutex> lock(mu_);
  if (!tenants_.emplace(TenantKey{policy_id, dataset_id}, std::move(tenant))
           .second) {
    return Status::InvalidArgument("tenant ('" + policy_id + "', '" +
                                   dataset_id + "') already registered");
  }
  return Status::OK();
}

EngineHost::Tenant* EngineHost::FindTenant(const TenantKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::future<StatusOr<std::vector<QueryResponse>>> EngineHost::SubmitBatch(
    const std::string& policy_id, const std::string& dataset_id,
    std::vector<QueryRequest> requests,
    QueryCompletionCallback on_complete, const obs::TraceContext& trace,
    BatchDoneCallback on_done) {
  obs::TraceWriter* tracer = options_.tracer != nullptr
                                 ? options_.tracer
                                 : obs::TraceWriter::Global();
  const TenantKey key{policy_id, dataset_id};
  Tenant* tenant = FindTenant(key);
  const uint64_t enqueue_us = obs::MonotonicMicros();
  auto batch = std::make_shared<
      std::packaged_task<StatusOr<std::vector<QueryResponse>>()>>(
      [this, key, tenant, requests = std::move(requests),
       on_complete = std::move(on_complete),
       on_done = std::move(on_done), trace, tracer,
       enqueue_us]() -> StatusOr<std::vector<QueryResponse>> {
        // Queue wait: SubmitBatch to batch start — the pool queue plus
        // the tenant's earlier batches. The span goes out before
        // serving so a reader sees the causal order queue_wait ->
        // sensitivity -> execute.
        const uint64_t wait_us = obs::MonotonicMicros() - enqueue_us;
        batches_queued_->Decrement();
        queue_wait_us_->Observe(wait_us);
        if (tracer->enabled()) {
          obs::TraceEvent span("queue_wait");
          span.Str("tenant", TenantMetricsScope(key.first, key.second))
              .Uint("ts_us", enqueue_us)
              .Uint("dur_us", wait_us);
          trace.Stamp(&span);
          tracer->Write(std::move(span));
        }
        StatusOr<std::vector<QueryResponse>> result =
            tenant != nullptr
                ? tenant->engine->ServeBatch(requests, on_complete, trace)
                : StatusOr<std::vector<QueryResponse>>(UnknownTenant(key));
        // The epilogue runs here — settlement done, callbacks done —
        // not at future-resolution time, so an event-driven caller
        // needs no thread parked on the future at all.
        if (on_done) on_done(result);
        return result;
      });
  std::future<StatusOr<std::vector<QueryResponse>>> future =
      batch->get_future();
  batches_queued_->Increment();
  if (tenant == nullptr) {
    // No strand to join: the batch reports NotFound from the pool.
    pool_->Post([batch]() { (*batch)(); });
    return future;
  }
  bool start_drain = false;
  {
    std::lock_guard<std::mutex> lock(tenant->strand_mu);
    tenant->backlog.push_back([batch]() { (*batch)(); });
    start_drain = !std::exchange(tenant->draining, true);
  }
  if (start_drain) pool_->Post([this, tenant]() { DrainStrand(tenant); });
  return future;
}

void EngineHost::DrainStrand(Tenant* tenant) {
  // One batch per turn, then a re-post: every tenant whose strand task
  // queued meanwhile runs a batch before this tenant's next. Where the
  // pool would run the re-post inline (zero workers, or after
  // Shutdown()), loop instead, so a deep backlog never recurses.
  do {
    std::function<void()> batch;
    {
      std::lock_guard<std::mutex> lock(tenant->strand_mu);
      batch = std::move(tenant->backlog.front());
      tenant->backlog.pop_front();
    }
    batch();
    {
      std::lock_guard<std::mutex> lock(tenant->strand_mu);
      if (tenant->backlog.empty()) {
        tenant->draining = false;
        return;
      }
    }
  } while (!pool_->TryPost([this, tenant]() { DrainStrand(tenant); }));
}

StatusOr<std::vector<QueryResponse>> EngineHost::ServeBatch(
    const std::string& policy_id, const std::string& dataset_id,
    std::vector<QueryRequest> requests,
    QueryCompletionCallback on_complete, const obs::TraceContext& trace) {
  if (pool_->IsWorkerThread()) {
    // Called from one of our own pool workers: blocking on a future of a
    // task queued behind this one would deadlock a small pool. Run the
    // batch inline — the engine's cooperative drain still lets the other
    // workers help with its queries.
    BLOWFISH_ASSIGN_OR_RETURN(ReleaseEngine * engine,
                              engine(policy_id, dataset_id));
    return engine->ServeBatch(requests, on_complete, trace);
  }
  return SubmitBatch(policy_id, dataset_id, std::move(requests),
                     std::move(on_complete), trace)
      .get();
}

StatusOr<std::vector<QueryRequest>> EngineHost::ParseBatchText(
    const std::string& text) {
  return ParseBatchRequests(text);
}

StatusOr<ReleaseEngine*> EngineHost::engine(const std::string& policy_id,
                                            const std::string& dataset_id) {
  const TenantKey key{policy_id, dataset_id};
  Tenant* tenant = FindTenant(key);
  if (tenant == nullptr) return UnknownTenant(key);
  return tenant->engine.get();
}

bool EngineHost::HasTenant(const std::string& policy_id,
                           const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(TenantKey{policy_id, dataset_id}) > 0;
}

std::vector<EngineHost::TenantBudget> EngineHost::BudgetSnapshot() const {
  // Collect the engines under the map lock, then read their accountants
  // with no host lock held — ListSessions takes the accountant's own
  // mutex. Engines are never destroyed while the host lives, so the
  // collected pointers stay valid.
  std::vector<std::pair<std::string, ReleaseEngine*>> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, tenant] : tenants_) {
      engines.emplace_back(TenantMetricsScope(key.first, key.second),
                           tenant->engine.get());
    }
  }
  std::vector<TenantBudget> out;
  for (const auto& [scope, engine] : engines) {
    for (const BudgetAccountant::SessionInfo& session :
         engine->accountant().ListSessions()) {
      TenantBudget line;
      line.tenant = scope;
      line.session = session.name;
      line.budget = session.budget;
      line.spent = session.spent;
      line.remaining = session.remaining;
      out.push_back(std::move(line));
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> EngineHost::Tenants()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantKey> out;
  out.reserve(tenants_.size());
  for (const auto& [key, tenant] : tenants_) out.push_back(key);
  return out;
}

}  // namespace blowfish
