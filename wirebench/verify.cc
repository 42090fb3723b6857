#include "verify.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "net/frame.h"
#include "net/protocol.h"
#include "server/audit_replay.h"
#include "util.h"

namespace wirebench {

using blowfish::QueryResponse;
using blowfish::Status;

namespace {

Check AllOk(const PhaseResult& p) {
  Check c{"all_responses_ok", false, ""};
  c.ok = p.queries_attempted > 0 && p.queries_failed == 0 && p.error.empty();
  c.detail = std::to_string(p.queries_attempted - p.queries_failed) + "/" +
             std::to_string(p.queries_attempted) + " OK";
  if (!p.error.empty()) c.detail += "; first error: " + p.error;
  return c;
}

Check BudgetMatchesHealth(const Workload& w, const PhaseResult& p) {
  Check c{"budget_equals_health", true, ""};
  size_t gauges = 0;
  for (const auto& [name, value] : p.health) {
    if (name.rfind("health_budget_remaining{", 0) == 0) ++gauges;
  }
  for (const auto& [key, charged] : p.charged) {
    const std::string name = "health_budget_remaining{tenant=" +
                             TenantScope(w.tenants[key.first]) +
                             ",session=" + key.second + "}";
    auto it = p.health.find(name);
    if (it == p.health.end()) {
      c.ok = false;
      c.detail = "HEALTH has no gauge " + name;
      return c;
    }
    if (kSessionBudget - it->second != charged) {
      std::ostringstream out;
      out.precision(17);
      out << name << ": receipts charged " << charged << " but budget - "
          << "remaining = " << kSessionBudget - it->second;
      c.ok = false;
      c.detail = out.str();
      return c;
    }
  }
  if (gauges != p.charged.size()) {
    c.ok = false;
    c.detail = "HEALTH reports " + std::to_string(gauges) +
               " sessions, receipts name " + std::to_string(p.charged.size());
    return c;
  }
  c.detail = std::to_string(gauges) + " sessions exact";
  return c;
}

Check AuditReplays(const Workload& w, ServedHost& host) {
  Check c{"audit_replay", true, ""};
  host.audit->Flush();
  size_t charges = 0;
  for (const TenantSpec& spec : w.tenants) {
    auto engine = host.host->engine(spec.policy_id, spec.dataset_id);
    if (!engine.ok()) {
      c.ok = false;
      c.detail = engine.status().ToString();
      return c;
    }
    std::ostringstream ledger;
    Status saved = (*engine)->accountant().Save(ledger);
    std::ifstream audit(host.audit_path);
    auto replay = saved.ok() ? blowfish::VerifyAuditReplay(
                                   audit, TenantScope(spec), ledger.str())
                             : blowfish::StatusOr<blowfish::AuditReplayStats>(
                                   saved);
    if (!replay.ok()) {
      c.ok = false;
      c.detail = TenantScope(spec) + ": " + replay.status().ToString();
      return c;
    }
    charges += replay->charges;
  }
  c.detail = std::to_string(w.tenants.size()) + " ledgers rebuilt from " +
             std::to_string(charges) + " charges";
  return c;
}

Check NoiseCalibrated(const Workload& w, const PhaseResult& p) {
  Check c{"noise_calibrated", true, ""};
  std::ostringstream detail;
  detail.precision(4);
  if (p.err.noise_cells > 0) {
    // |Laplace(b)| / b is Exp(1): mean 1, sd 1 per cell.
    const double n = static_cast<double>(p.err.noise_cells);
    const double mean = p.err.noise_sum / n;
    const double band = 6.0 / std::sqrt(n) + 0.02;
    detail << "laplace mean " << mean << " over " << p.err.noise_cells
           << " cells (band 1 +- " << band << ")";
    if (std::fabs(mean - 1.0) > band) c.ok = false;
  }
  for (const auto& [kind, slot] : p.err.per_kind) {
    if (kind == "histogram" || kind == "cell_histogram") continue;
    const double mean = slot.first / static_cast<double>(slot.second);
    const RecordedErr* recorded = nullptr;
    for (const RecordedErr& r : kRecordedErr) {
      if (w.name == r.workload && kind == r.kind) recorded = &r;
    }
    if (!detail.str().empty()) detail << "; ";
    detail << kind << " " << mean << " over " << slot.second;
    if (recorded == nullptr) {
      c.ok = false;
      detail << " (no recorded band)";
      continue;
    }
    const double lo = kErrBandLow * recorded->err_ratio;
    const double hi = kErrBandHigh * recorded->err_ratio;
    detail << " (band " << lo << ".." << hi << ")";
    if (mean < lo || mean > hi) c.ok = false;
  }
  if (detail.str().empty()) {
    c.ok = false;
    detail << "no calibrated answers to check";
  }
  c.detail = detail.str();
  return c;
}

/// The replay re-encodes every this-many-th batch of each tenant (in
/// charge order): formatting and parsing large answers' values costs as
/// much as serving them, and would otherwise double the replay's length.
constexpr size_t kCodecSampleEvery = 8;

/// Encodes a batch's RESULT frames and decodes them back, as the server
/// and client do; returns the microseconds taken.
double TimeCodec(const std::vector<QueryResponse>& responses,
                 ReplayExtras* extras) {
  const double start = NowSeconds();
  std::string stream;
  for (size_t i = 0; i < responses.size(); ++i) {
    const std::string payload =
        blowfish::EncodeBoundedResultPayload(i, responses[i]);
    stream += blowfish::EncodeFrame(payload);
    const double bytes = static_cast<double>(payload.size() + 4);
    extras->result_bytes += bytes;
    if (bytes > 16384.0) extras->large_frame_bytes += bytes;
  }
  blowfish::FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::string payload;
  size_t decoded = 0;
  while (decoder.Next(&payload) == blowfish::FrameDecoder::Result::kFrame) {
    auto msg = blowfish::ParseWireMessage(payload);
    if (msg.ok() && blowfish::ParseResultPayload(*msg).ok()) ++decoded;
  }
  const double us = (NowSeconds() - start) * 1e6;
  return decoded == responses.size() ? us : -1.0;
}

}  // namespace

std::vector<Check> CheckPhase(const Workload& w, const PhaseResult& p,
                              ServedHost& host) {
  return {AllOk(p), BudgetMatchesHealth(w, p), AuditReplays(w, host),
          NoiseCalibrated(w, p)};
}

Check CheckReplay(
    const Workload& w, const PhaseResult& p,
    const std::vector<std::vector<QueryResponse>>& measured_warmup,
    ServedHost& fresh, ReplayExtras* extras) {
  Check c{"replay_identical", true, ""};
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    if (DigestResponses(measured_warmup[t]) !=
        DigestResponses(fresh.warmup[t])) {
      c.ok = false;
      c.detail = "warm-up responses differ on " + TenantScope(w.tenants[t]);
      return c;
    }
  }
  std::vector<std::vector<size_t>> order(w.tenants.size());
  for (size_t i = 0; i < p.batches.size(); ++i) {
    order[p.batches[i].tenant].push_back(i);
  }
  for (auto& list : order) {
    std::sort(list.begin(), list.end(), [&](size_t a, size_t b) {
      return p.batches[a].first_charge < p.batches[b].first_charge;
    });
  }
  std::atomic<size_t> next{0};
  std::mutex mu;  // guards c, *extras and slowest_s
  double slowest_s = 0.0;
  auto worker = [&]() {
    ReplayExtras local;
    std::string failure;
    double local_slowest_s = 0.0;
    for (size_t t = next++; t < order.size(); t = next++) {
      const double tenant_start = NowSeconds();
      const TenantSpec& spec = w.tenants[t];
      for (size_t k = 0; k < order[t].size(); ++k) {
        const BatchRecord& rec = p.batches[order[t][k]];
        auto requests = blowfish::EngineHost::ParseBatchText(rec.text);
        if (!requests.ok()) {
          failure = requests.status().ToString();
          break;
        }
        auto result = fresh.host
                          ->SubmitBatch(spec.policy_id, spec.dataset_id,
                                        std::move(*requests))
                          .get();
        if (!result.ok() || DigestResponses(*result) != rec.digest) {
          failure = TenantScope(spec) + " batch with first charge " +
                    std::to_string(rec.first_charge) + " differs from its " +
                    "in-process replay" +
                    (result.ok() ? "" : ": " + result.status().ToString());
          break;
        }
        if (k % kCodecSampleEvery == 0) {
          local.codec_us.push_back(TimeCodec(*result, &local));
        }
        ++local.batches;
      }
      if (!failure.empty()) break;
      local_slowest_s =
          std::max(local_slowest_s, NowSeconds() - tenant_start);
    }
    std::lock_guard<std::mutex> lock(mu);
    slowest_s = std::max(slowest_s, local_slowest_s);
    if (!failure.empty() && c.ok) {
      c.ok = false;
      c.detail = failure;
    }
    extras->codec_us.insert(extras->codec_us.end(), local.codec_us.begin(),
                            local.codec_us.end());
    extras->result_bytes += local.result_bytes;
    extras->large_frame_bytes += local.large_frame_bytes;
    extras->batches += local.batches;
  };
  const size_t workers = std::min<size_t>(kPoolThreads, w.tenants.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < workers; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (c.ok) {
    double codec_s = 0.0;
    for (double us : extras->codec_us) codec_s += std::max(us, 0.0) * 1e-6;
    std::ostringstream detail;
    detail.precision(3);
    detail << extras->batches << " batches identical (slowest tenant's "
           << "replay " << slowest_s << " s, codec " << codec_s
           << " s over all tenants)";
    c.detail = detail.str();
  }
  return c;
}

}  // namespace wirebench
