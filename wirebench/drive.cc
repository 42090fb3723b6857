#include "drive.h"

#include <sys/resource.h>

#include <cmath>
#include <deque>
#include <filesystem>
#include <thread>

#include "net/client.h"
#include "util.h"

namespace wirebench {

using blowfish::BlowfishClient;
using blowfish::QueryResponse;
using blowfish::StatusOr;

void ErrAccum::Merge(const ErrAccum& other) {
  for (const auto& [kind, slot] : other.per_kind) {
    per_kind[kind].first += slot.first;
    per_kind[kind].second += slot.second;
  }
  noise_sum += other.noise_sum;
  noise_cells += other.noise_cells;
}

double ErrAccum::Overall() const {
  double sum = 0.0;
  for (const auto& [kind, slot] : per_kind) sum += slot.first;
  const size_t n = Queries();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

size_t ErrAccum::Queries() const {
  size_t n = 0;
  for (const auto& [kind, slot] : per_kind) n += slot.second;
  return n;
}

double PhaseResult::StatDelta(const std::string& name) const {
  auto after = stats_after.find(name);
  if (after == stats_after.end()) return 0.0;
  auto before = stats_before.find(name);
  return after->second - (before == stats_before.end() ? 0.0 : before->second);
}

bool AccountError(const blowfish::QueryOp& op, const TenantTruth& truth,
                  const QueryResponse& response, ErrAccum* err) {
  const std::string kind = op.KindName();
  if (!ErrKind(kind) || !(response.sensitivity > 0.0) ||
      !(response.receipt.epsilon > 0.0)) {
    return true;
  }
  // The op's zero-sensitivity path is its exact release, in the same
  // payload layout as the noised one.
  blowfish::QueryExecContext ctx{truth.policy, truth.schema, truth.hist,
                                 response.receipt.epsilon, 0.0};
  auto exact = op.Execute(ctx, blowfish::Random(0));
  if (!exact.ok() || exact->size() != response.values.size() ||
      exact->empty()) {
    return false;
  }
  const double scale = response.sensitivity / response.receipt.epsilon;
  // cdf values are normalized by the row count: back to counts.
  const double unit = kind == "cdf" ? static_cast<double>(truth.rows) : 1.0;
  double sum = 0.0;
  for (size_t i = 0; i < exact->size(); ++i) {
    sum += std::fabs(response.values[i] - (*exact)[i]) * unit / scale;
  }
  auto& slot = err->per_kind[kind];
  slot.first += sum / static_cast<double>(exact->size());
  slot.second += 1;
  if (kind == "histogram" || kind == "cell_histogram") {
    err->noise_sum += sum;
    err->noise_cells += exact->size();
  }
  return true;
}

namespace {

struct ThreadOut {
  std::vector<BatchRecord> batches;
  std::vector<double> connect_ms;
  ErrAccum err;
  std::map<std::pair<size_t, std::string>, double> charged;
  std::set<std::string> shapes;
  std::map<std::string, size_t> kind_counts;
  size_t attempted = 0;
  size_t failed = 0;
  std::string error;
  std::vector<Span> spans;
};

std::map<std::string, double> SampleMap(
    const StatusOr<std::vector<blowfish::MetricSample>>& samples,
    std::string* error) {
  std::map<std::string, double> out;
  if (!samples.ok()) {
    if (error->empty()) *error = samples.status().ToString();
    return out;
  }
  for (const blowfish::MetricSample& s : *samples) out[s.name] = s.value;
  return out;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// Checks and accounts one completed batch.
void FinishBatch(const Workload& w, const std::vector<TenantTruth>& truth,
                 const StatusOr<std::vector<QueryResponse>>& result,
                 bool traced, BatchRecord* rec, ThreadOut* out) {
  auto requests = blowfish::EngineHost::ParseBatchText(rec->text);
  rec->queries = requests.ok() ? requests->size() : 0;
  out->attempted += rec->queries;
  if (!requests.ok() || !result.ok() || result->size() != rec->queries) {
    rec->failed = rec->queries;
    out->failed += rec->queries;
    if (out->error.empty()) {
      out->error = !requests.ok() ? requests.status().ToString()
                   : !result.ok() ? result.status().ToString()
                                  : "response count mismatch";
    }
    return;
  }
  rec->digest = DigestResponses(*result);
  const TenantTruth& t = truth[rec->tenant];
  for (size_t i = 0; i < result->size(); ++i) {
    const QueryResponse& r = (*result)[i];
    const blowfish::QueryOp& op = *(*requests)[i].op;
    ++out->kind_counts[op.KindName()];
    auto shape = op.SensitivityShape();
    if (shape.ok()) {
      out->shapes.insert(w.tenants[rec->tenant].policy_id + "|" + *shape);
    }
    if (!r.status.ok()) {
      ++rec->failed;
      ++out->failed;
      if (out->error.empty()) out->error = r.status.ToString();
      continue;
    }
    if (r.receipt.charge_id != 0 &&
        (rec->first_charge == 0 || r.receipt.charge_id < rec->first_charge)) {
      rec->first_charge = r.receipt.charge_id;
    }
    out->charged[{rec->tenant, r.receipt.session}] += r.receipt.charged;
    if (traced && r.receipt.charged > 0.0) {
      rec->charges.emplace_back(r.receipt.session, r.receipt.charged);
    }
    if (!AccountError(op, t, r, &out->err) &&
        out->error.empty()) {
      out->error = "answer layout differs from the exact answer (" +
                   op.KindName() + " on " +
                   TenantScope(w.tenants[rec->tenant]) + ")";
    }
  }
  if (rec->first_charge == 0 && out->error.empty()) {
    // Replay orders a tenant's batches by charge id; every generated
    // query is charged, so a batch without one is a defect.
    out->error = "batch carries no charge id";
  }
}

void ClientThread(const Workload& w, const std::vector<TenantTruth>& truth,
                  uint16_t port, uint64_t seed, int thread, double t0,
                  double deadline, bool traced, ThreadOut* out) {
  Traffic traffic(w, seed, thread);
  auto rel = [t0]() { return NowSeconds() - t0; };
  auto span = [&](const char* name, int64_t batch, double start) {
    if (traced) out->spans.push_back({name, thread, batch, start, rel()});
  };
  for (size_t connection = 0;
       NowSeconds() < deadline && out->error.empty(); ++connection) {
    const SessionPlan plan = traffic.NextSession();
    const TenantSpec& spec = w.tenants[plan.tenant];
    const double c0 = rel();
    auto client = BlowfishClient::Connect("127.0.0.1", port, spec.policy_id,
                                          spec.dataset_id);
    span("client_connect", -1, c0);
    if (!client.ok()) {
      out->error = client.status().ToString();
      return;
    }
    out->connect_ms.push_back((rel() - c0) * 1e3);
    size_t sent = 0;
    auto can_send = [&]() {
      return (plan.batches == 0 || sent < plan.batches) &&
             NowSeconds() < deadline && out->error.empty();
    };
    auto new_record = [&]() {
      BatchRecord rec;
      rec.thread = thread;
      rec.tenant = plan.tenant;
      rec.connection = connection;
      rec.depth = plan.depth;
      rec.text = traffic.NextBatch(plan);
      out->batches.push_back(std::move(rec));
      ++sent;
      return out->batches.size() - 1;
    };
    auto on_result_for = [&](size_t index) {
      BlowfishClient::ResultCallback cb = nullptr;
      if (traced) {
        cb = [&, index](size_t, const QueryResponse&) {
          const double now = rel();
          out->spans.push_back({"client_result", thread,
                                static_cast<int64_t>(index), now, now});
        };
      }
      return cb;
    };
    std::deque<std::pair<uint64_t, size_t>> inflight;  // (handle, record)
    while (true) {
      if (plan.depth == 1) {
        if (!can_send()) break;
        const size_t index = new_record();
        BatchRecord& rec = out->batches[index];
        rec.submit_s = rel();
        auto result = (*client)->SubmitBatchText(rec.text,
                                                 on_result_for(index));
        rec.done_s = rel();
        span("client_submit_await", static_cast<int64_t>(index), rec.submit_s);
        FinishBatch(w, truth, result, traced, &out->batches[index], out);
        continue;
      }
      while (inflight.size() < static_cast<size_t>(plan.depth) &&
             can_send()) {
        const size_t index = new_record();
        BatchRecord& rec = out->batches[index];
        rec.submit_s = rel();
        auto handle = (*client)->SubmitPipelined(rec.text);
        span("client_submit", static_cast<int64_t>(index), rec.submit_s);
        if (!handle.ok()) {
          rec.done_s = rel();
          FinishBatch(w, truth, handle.status(), traced, &rec, out);
          break;
        }
        inflight.emplace_back(*handle, index);
      }
      if (inflight.empty()) break;
      const auto [handle, index] = inflight.front();
      inflight.pop_front();
      const double a0 = rel();
      auto result = (*client)->AwaitBatch(handle, on_result_for(index));
      out->batches[index].done_s = rel();
      span("client_await", static_cast<int64_t>(index), a0);
      FinishBatch(w, truth, result, traced, &out->batches[index], out);
    }
    const double b0 = rel();
    blowfish::Status bye = (*client)->Bye();
    span("client_bye", -1, b0);
    if (!bye.ok() && out->error.empty()) out->error = bye.ToString();
  }
}

}  // namespace

PhaseResult RunWirePhase(const Workload& w,
                         const std::vector<TenantTruth>& truth,
                         ServedHost& host, uint64_t seed, double seconds,
                         bool traced) {
  PhaseResult p;
  p.seconds = seconds;
  const uint16_t port = host.port();
  p.stats_before =
      SampleMap(BlowfishClient::FetchStats("127.0.0.1", port), &p.error);
  const uint64_t audit_before = FileBytes(host.audit_path);
  const double cpu_before = CpuSeconds();

  std::vector<ThreadOut> outs(static_cast<size_t>(w.client_threads));
  std::vector<std::thread> threads;
  const double t0 = NowSeconds();
  const double deadline = t0 + seconds;
  for (int t = 0; t < w.client_threads; ++t) {
    threads.emplace_back(ClientThread, std::cref(w), std::cref(truth), port,
                         seed, t, t0, deadline, traced,
                         &outs[static_cast<size_t>(t)]);
  }
  for (std::thread& t : threads) t.join();
  p.wall_s = NowSeconds() - t0;

  p.cpu_s = CpuSeconds() - cpu_before;
  p.audit_bytes = FileBytes(host.audit_path) - audit_before;
  p.stats_after =
      SampleMap(BlowfishClient::FetchStats("127.0.0.1", port), &p.error);
  p.health =
      SampleMap(BlowfishClient::FetchHealth("127.0.0.1", port), &p.error);

  for (ThreadOut& out : outs) {
    const int64_t offset = static_cast<int64_t>(p.batches.size());
    for (BatchRecord& rec : out.batches) p.batches.push_back(std::move(rec));
    for (Span& s : out.spans) {
      if (s.batch >= 0) s.batch += offset;
      p.spans.push_back(std::move(s));
    }
    p.connect_ms.insert(p.connect_ms.end(), out.connect_ms.begin(),
                        out.connect_ms.end());
    p.err.Merge(out.err);
    for (const auto& [key, sum] : out.charged) p.charged[key] += sum;
    p.shapes.insert(out.shapes.begin(), out.shapes.end());
    for (const auto& [kind, count] : out.kind_counts) {
      p.kind_counts[kind] += count;
    }
    p.queries_attempted += out.attempted;
    p.queries_failed += out.failed;
    if (p.error.empty()) p.error = out.error;
  }
  for (size_t t = 0; t < host.warmup.size(); ++t) {
    for (const QueryResponse& r : host.warmup[t]) {
      p.charged[{t, r.receipt.session}] += r.receipt.charged;
    }
  }
  return p;
}

}  // namespace wirebench
