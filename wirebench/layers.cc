#include "layers.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <thread>

#include "data/scan.h"
#include "engine/budget_accountant.h"
#include "engine/release_engine.h"
#include "fixture.h"
#include "server/engine_host.h"
#include "util.h"
#include "util/thread_pool.h"

namespace wirebench {

using blowfish::QueryRequest;
using blowfish::QueryResponse;
using blowfish::Status;
using blowfish::StatusOr;

namespace {

constexpr size_t kSensitivitySamples = 64;
constexpr size_t kExecuteSamplesPerKind = 48;
/// The replays take the traced phase's batches submitted in its first
/// half, but at most in its first this many seconds, so a traced run's
/// length grows with --seconds only through its two wire phases.
constexpr double kReplayWindowSeconds = 8.0;

/// A query that fails Validate on the tenant's domain: it is refused in
/// admission pass 1 (no charge, no RNG stream) and its on_complete fires
/// once admission is over, before any execution.
std::string SentinelLine(const TenantTruth& t) {
  return t.schema.domain().num_attributes() == 1
             ? "quadtree eps=0.25 x0=0 x1=0 y0=0 y1=0 session=sentinel\n"
             : "range eps=0.25 lo=0 hi=0 session=sentinel\n";
}

/// Re-issues each client thread's batches in its own order, keeping its
/// connection boundaries and pipeline depth. `submit(index)` starts a
/// batch and returns a future that resolves when it is done. Futures are
/// claimed oldest first, as the client claims its pipelined batches, and
/// `claimed(index, now)` runs when batch `index` is claimed — the point
/// where the wire run stops a batch's clock.
template <typename Submit, typename Claimed>
void MirrorClients(const PhaseResult& p, const std::vector<size_t>& selected,
                   int threads, Submit submit, Claimed claimed) {
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      using Future = decltype(submit(size_t{0}));
      std::deque<std::pair<Future, size_t>> inflight;
      auto claim_oldest = [&]() {
        inflight.front().first.get();
        claimed(inflight.front().second, NowSeconds());
        inflight.pop_front();
      };
      size_t connection = 0;
      for (size_t index : selected) {
        const BatchRecord& rec = p.batches[index];
        if (rec.thread != t) continue;
        if (rec.connection != connection) {
          while (!inflight.empty()) claim_oldest();
          connection = rec.connection;
        }
        while (inflight.size() >= static_cast<size_t>(rec.depth)) {
          claim_oldest();
        }
        inflight.emplace_back(submit(index), index);
      }
      while (!inflight.empty()) claim_oldest();
    });
  }
  for (std::thread& w : workers) w.join();
}

/// Fresh tenant engines over one shared pool and cache, with audit on —
/// the host's engine layer without the host.
struct EngineSet {
  EngineSet() = default;
  EngineSet(const EngineSet&) = delete;
  EngineSet& operator=(const EngineSet&) = delete;
  ~EngineSet() {
    engines.clear();
    if (pool != nullptr) pool->Shutdown();
    audit.Close();
  }

  blowfish::obs::MetricsRegistry metrics;
  blowfish::obs::AuditLog audit;
  std::shared_ptr<blowfish::ThreadPool> pool;
  std::shared_ptr<blowfish::SensitivityCache> cache;
  std::vector<std::unique_ptr<blowfish::ReleaseEngine>> engines;
};

Status BuildEngines(const Workload& w, const std::vector<TenantTruth>& truth,
                    const std::vector<blowfish::Dataset>& data, uint64_t seed,
                    const std::string& audit_path, EngineSet* set,
                    double* create_ms) {
  if (!set->audit.Open(audit_path)) {
    return Status::Internal("cannot open " + audit_path);
  }
  set->pool = std::make_shared<blowfish::ThreadPool>(kPoolThreads,
                                                     &set->metrics);
  set->cache = std::make_shared<blowfish::SensitivityCache>(kCacheCapacity,
                                                            &set->metrics);
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    blowfish::ReleaseEngineOptions options;
    options.pool = set->pool;
    options.shared_cache = set->cache;
    options.root_seed = blowfish::SplitMix64(seed + t);
    options.default_session_budget = kSessionBudget;
    options.metrics = &set->metrics;
    options.metrics_scope = TenantScope(w.tenants[t]);
    options.audit = &set->audit;
    const double start = NowSeconds();
    BLOWFISH_ASSIGN_OR_RETURN(
        auto engine, blowfish::ReleaseEngine::Create(truth[t].policy,
                                                     data[t], options));
    if (create_ms != nullptr) *create_ms += (NowSeconds() - start) * 1e3;
    BLOWFISH_ASSIGN_OR_RETURN(
        auto warmup, blowfish::EngineHost::ParseBatchText(WarmupBatch(w, t)));
    engine->ServeBatch(warmup);
    set->engines.push_back(std::move(engine));
  }
  return Status::OK();
}

}  // namespace

LayerReport RunLayers(const Workload& w, const std::vector<TenantTruth>& truth,
                      const PhaseResult& traced, uint64_t seed,
                      const std::string& dir) {
  LayerReport report;
  const PhaseResult& p = traced;
  const double window = std::min(p.seconds / 2.0, kReplayWindowSeconds);
  std::vector<size_t> selected;
  for (size_t i = 0; i < p.batches.size(); ++i) {
    if (p.batches[i].submit_s < window) selected.push_back(i);
  }
  std::sort(selected.begin(), selected.end(), [&](size_t a, size_t b) {
    return p.batches[a].submit_s < p.batches[b].submit_s;
  });
  report.batches = selected.size();
  // The replays load the tenants' CSVs as setup does. Engines copy the
  // datasets; build each columnar view once so every copy shares it (as
  // the host's loaded datasets do).
  std::vector<blowfish::Dataset> data;
  for (const TenantTruth& t : truth) {
    auto loaded = LoadTenantData(t, blowfish::CsvOptions());
    if (!loaded.ok()) {
      report.error = loaded.status().ToString();
      return report;
    }
    auto columns = loaded->columns();
    if (!columns.ok()) {
      report.error = columns.status().ToString();
      return report;
    }
    const double start = NowSeconds();
    auto hist = blowfish::ScanCompleteHistogram(**columns);
    report.scan_ms += (NowSeconds() - start) * 1e3;
    if (!hist.ok()) {
      report.error = hist.status().ToString();
      return report;
    }
    data.push_back(std::move(*loaded));
  }

  const size_t n = p.batches.size();
  std::vector<double> start_s(n, 0.0), host_ms(n, 0.0), engine_ms(n, 0.0),
      serial_ms(n, 0.0), admit_ms(n, 0.0), execute_ms(n, 0.0),
      settle_ms(n, 0.0);

  // --- host: EngineHost::SubmitBatch -> claimed. ---
  {
    blowfish::obs::MetricsRegistry metrics;
    blowfish::obs::AuditLog audit;
    audit.Open(dir + "/layers-host.audit.jsonl");
    blowfish::EngineHostOptions options = HostOptions(seed);
    options.metrics = &metrics;
    options.audit = &audit;
    blowfish::EngineHost host(options);
    for (size_t t = 0; t < w.tenants.size(); ++t) {
      blowfish::TenantOptions tenant_options;
      tenant_options.default_session_budget = kSessionBudget;
      Status added = host.AddTenant(w.tenants[t].policy_id,
                                    w.tenants[t].dataset_id, truth[t].policy,
                                    data[t], tenant_options);
      auto warmup = blowfish::EngineHost::ParseBatchText(WarmupBatch(w, t));
      if (!added.ok() || !warmup.ok()) {
        report.error = !added.ok() ? added.ToString()
                                   : warmup.status().ToString();
        return report;
      }
      host.ServeBatch(w.tenants[t].policy_id, w.tenants[t].dataset_id,
                      std::move(*warmup));
    }
    MirrorClients(
        p, selected, w.client_threads,
        [&](size_t index) {
          const BatchRecord& rec = p.batches[index];
          const TenantSpec& spec = w.tenants[rec.tenant];
          auto requests = blowfish::EngineHost::ParseBatchText(rec.text);
          start_s[index] = NowSeconds();
          return host.SubmitBatch(spec.policy_id, spec.dataset_id,
                                  std::move(*requests));
        },
        [&](size_t index, double now) {
          host_ms[index] = (now - start_s[index]) * 1e3;
        });
    host.Shutdown();
    audit.Close();
  }

  // --- engine: ReleaseEngine::ServeBatch on the pool, same pattern,
  // timed from the task's start (pool pickup) to the batch's claim. ---
  {
    EngineSet set;
    Status built =
        BuildEngines(w, truth, data, seed, dir + "/layers-engine.audit.jsonl",
                     &set, &report.engine_create_ms);
    if (!built.ok()) {
      report.error = built.ToString();
      return report;
    }
    MirrorClients(
        p, selected, w.client_threads,
        [&](size_t index) {
          const BatchRecord& rec = p.batches[index];
          auto requests = std::make_shared<std::vector<QueryRequest>>(
              *blowfish::EngineHost::ParseBatchText(rec.text));
          blowfish::ReleaseEngine* engine = set.engines[rec.tenant].get();
          return set.pool->Submit([&start_s, index, requests, engine]() {
            start_s[index] = NowSeconds();
            engine->ServeBatch(*requests);
          });
        },
        [&](size_t index, double now) {
          engine_ms[index] = (now - start_s[index]) * 1e3;
        });
  }

  // --- serial: one batch at a time, split by the on_complete hook. ---
  {
    EngineSet set;
    Status built = BuildEngines(w, truth, data, seed,
                                dir + "/layers-serial.audit.jsonl", &set,
                                nullptr);
    if (!built.ok()) {
      report.error = built.ToString();
      return report;
    }
    for (size_t index : selected) {
      const BatchRecord& rec = p.batches[index];
      auto requests = blowfish::EngineHost::ParseBatchText(
          rec.text + SentinelLine(truth[rec.tenant]));
      const size_t sentinel = requests->size() - 1;
      blowfish::ReleaseEngine* engine = set.engines[rec.tenant].get();
      set.pool
          ->Submit([&, index, sentinel, engine]() {
            double admitted = -1.0, last = -1.0;
            const double start = NowSeconds();
            engine->ServeBatch(*requests,
                               [&](size_t i, const QueryResponse&) {
                                 const double now = NowSeconds();
                                 if (i == sentinel) {
                                   admitted = now;
                                 } else {
                                   last = now;
                                 }
                               });
            const double end = NowSeconds();
            if (admitted < 0.0) admitted = start;
            if (last < admitted) last = admitted;
            serial_ms[index] = (end - start) * 1e3;
            admit_ms[index] = (admitted - start) * 1e3;
            execute_ms[index] = (last - admitted) * 1e3;
            settle_ms[index] = (end - last) * 1e3;
          })
          .get();
    }
  }

  // --- ops: sensitivity per distinct shape, Execute sampled per kind. ---
  {
    std::map<std::string, double> sensitivity;
    const blowfish::SensitivityEnv env;
    uint64_t stream = 0;
    for (size_t index : selected) {
      const BatchRecord& rec = p.batches[index];
      const TenantTruth& t = truth[rec.tenant];
      auto requests = blowfish::EngineHost::ParseBatchText(rec.text);
      for (const QueryRequest& r : *requests) {
        const std::string kind = r.op->KindName();
        const std::string key =
            w.tenants[rec.tenant].policy_id + "|" + *r.op->SensitivityShape();
        auto it = sensitivity.find(key);
        const bool sample_s =
            report.sensitivity_ms.size() < kSensitivitySamples;
        const bool sample_x =
            report.execute_us[kind].size() < kExecuteSamplesPerKind;
        if (it == sensitivity.end() && (sample_s || sample_x)) {
          const double start = NowSeconds();
          auto s = r.op->ComputeSensitivity(t.policy, env);
          if (sample_s) {
            report.sensitivity_ms.push_back((NowSeconds() - start) * 1e3);
          }
          it = sensitivity.emplace(key, s.ok() ? *s : 0.0).first;
        }
        if (!sample_x) continue;
        blowfish::QueryExecContext ctx{t.policy, data[rec.tenant], t.hist,
                                       r.epsilon, it->second};
        const double start = NowSeconds();
        auto out = r.op->Execute(ctx, blowfish::Random(seed).Fork(stream++));
        report.execute_us[kind].push_back((NowSeconds() - start) * 1e6);
        if (!out.ok() && report.error.empty()) {
          report.error = kind + " Execute failed: " + out.status().ToString();
        }
      }
    }
  }

  // --- budget: the run's charges through a fresh accountant. ---
  {
    blowfish::obs::MetricsRegistry metrics;
    double total_s = 0.0;
    for (size_t t = 0; t < w.tenants.size(); ++t) {
      std::vector<size_t> order;
      for (size_t i = 0; i < p.batches.size(); ++i) {
        if (p.batches[i].tenant == t) order.push_back(i);
      }
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return p.batches[a].first_charge < p.batches[b].first_charge;
      });
      blowfish::BudgetAccountant accountant(kSessionBudget, &metrics);
      for (size_t index : order) {
        for (const auto& [session, charged] : p.batches[index].charges) {
          const double start = NowSeconds();
          auto receipt = accountant.ChargeSequential(session, charged);
          if (receipt.ok()) accountant.Settle(*receipt);
          total_s += NowSeconds() - start;
          ++report.charges;
        }
      }
    }
    report.charge_us =
        report.charges == 0
            ? 0.0
            : total_s * 1e6 / static_cast<double>(report.charges);
  }

  // --- per-batch layer differences (they telescope to the wire time) ---
  double sum[kNumSelfLayers] = {0, 0, 0, 0, 0, 0};
  double wire_sum = 0.0;
  for (size_t index : selected) {
    const BatchRecord& rec = p.batches[index];
    const double wire = (rec.done_s - rec.submit_s) * 1e3;
    const double diff[kNumSelfLayers] = {
        wire - host_ms[index],   host_ms[index] - engine_ms[index],
        engine_ms[index] - serial_ms[index], admit_ms[index],
        execute_ms[index],       settle_ms[index]};
    for (size_t l = 0; l < kNumSelfLayers; ++l) {
      report.self_ms[l].push_back(diff[l]);
      sum[l] += diff[l];
    }
    wire_sum += wire;
    report.wire_ms.push_back(wire);
    report.batch_index.push_back(index);
  }
  // --- self times of the mean batch, capped so they nest. ---
  const double k = std::max<double>(1.0, static_cast<double>(selected.size()));
  const double wire = wire_sum / k;
  const double host = wire - sum[0] / k;
  const double engine = host - sum[1] / k;
  const double serial = engine - sum[2] / k;
  const double c1 = std::min(host, wire);
  const double c2 = std::min(engine, c1);
  const double c3 = std::min(serial, c2);
  const double f = serial > 0.0 ? c3 / serial : 0.0;
  const double self[kNumSelfLayers] = {wire - c1,    c1 - c2,
                                       c2 - c3,      sum[3] / k * f,
                                       sum[4] / k * f, sum[5] / k * f};
  for (size_t l = 0; l < kNumSelfLayers; ++l) report.mean_self_ms[l] = self[l];
  report.mean_wire_ms = wire;
  report.mean_capped_ms = (host - c1) + (engine - c2) + (serial - c3);
  return report;
}

}  // namespace wirebench
