// wirebench: loopback benchmark of the Blowfish serving stack.
//
//   wirebench --workload <tenant_mix|spatial_pipeline|cold_shapes>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Starts an in-process EngineHost + BlowfishServer, drives it over
// loopback with BlowfishClient threads for --seconds, checks every
// answer, and prints a report followed by one JSON line. With --trace 0
// the JSON carries the end-to-end metrics; with --trace 1 the run also
// measures an untraced phase (for the tracing overhead), a traced phase,
// and the per-layer replays (layers.h), and the JSON carries the
// per-layer metrics. Exit status is non-zero when a correctness check
// fails. README.md in this directory documents the workloads, metrics
// and predictions.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "drive.h"
#include "fixture.h"
#include "layers.h"
#include "util.h"
#include "verify.h"
#include "workload.h"

namespace wirebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/wirebench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// End-to-end figures of one wire phase.
struct E2E {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t latency_n = 0;
  size_t beyond_p99 = 0;
  /// The highest percentile with ten samples beyond it, and its value.
  double tail_q = 0.0;
  double tail_ms = 0.0;
  double err_ratio = 0.0;
  size_t err_n = 0;
  double failed_share = 0.0;
  size_t ok_queries = 0;
};

E2E Summarize(const PhaseResult& p) {
  E2E e;
  std::vector<double> latency_ms;
  for (const BatchRecord& rec : p.batches) {
    if (rec.done_s > p.seconds) continue;  // completed after the window
    latency_ms.push_back((rec.done_s - rec.submit_s) * 1e3);
    e.ok_queries += rec.queries - rec.failed;
  }
  e.qps = static_cast<double>(e.ok_queries) / p.seconds;
  e.p50_ms = Median(latency_ms);
  e.p99_ms = QuantileOrZero(latency_ms, 0.99);
  e.latency_n = latency_ms.size();
  e.beyond_p99 = CountAbove(latency_ms, e.p99_ms);
  e.tail_q = latency_ms.size() > 10
                 ? 1.0 - 10.0 / static_cast<double>(latency_ms.size())
                 : 0.0;
  e.tail_ms = QuantileOrZero(latency_ms, e.tail_q);
  e.err_ratio = p.err.Overall();
  e.err_n = p.err.Queries();
  e.failed_share = p.queries_attempted == 0
                       ? 0.0
                       : static_cast<double>(p.queries_failed) /
                             static_cast<double>(p.queries_attempted);
  return e;
}

void PrintProperties(const Workload& w, const std::vector<TenantTruth>& truth,
                     const PhaseResult& p, const ReplayExtras& replay) {
  std::printf("-- workload properties\n");
  size_t rows = 0;
  std::string tenants;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    rows += truth[t].rows;
    tenants += " " + TenantScope(w.tenants[t]) + "(" +
               std::to_string(truth[t].rows) + ")";
  }
  std::printf("  tenants: %zu, rows: %zu:%s\n", w.tenants.size(), rows,
              tenants.c_str());
  size_t queries = 0;
  for (const auto& [kind, count] : p.kind_counts) queries += count;
  double depth = 0.0;
  for (const BatchRecord& rec : p.batches) depth += rec.depth;
  const double batches =
      static_cast<double>(std::max<size_t>(1, p.batches.size()));
  std::printf("  query kind shares:");
  for (const auto& [kind, count] : p.kind_counts) {
    std::printf(" %s %.4f", kind.c_str(),
                static_cast<double>(count) / static_cast<double>(queries));
  }
  std::printf("\n  mean batch size: %.3f queries; mean pipeline depth: %.3f "
              "(n=%zu batches)\n",
              static_cast<double>(queries) / batches, depth / batches,
              p.batches.size());
  const double hits = p.StatDelta("sensitivity_cache_hits_total");
  const double misses = p.StatDelta("sensitivity_cache_misses_total");
  std::printf("  distinct sensitivity shapes: %zu vs cache capacity %zu; "
              "measured miss share %.4f (n=%.0f lookups)\n",
              p.shapes.size(), kCacheCapacity,
              hits + misses > 0 ? misses / (hits + misses) : 0.0,
              hits + misses);
  std::printf("  response bytes in frames over 16 KiB: %.4f (n=%zu batches "
              "re-encoded)\n",
              replay.result_bytes > 0
                  ? replay.large_frame_bytes / replay.result_bytes
                  : 0.0,
              replay.codec_us.size());
}

bool PrintChecks(const std::vector<Check>& checks) {
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("  [%s] %s: %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
    ok = ok && c.ok;
  }
  return ok;
}

std::string JsonMetrics(
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
        metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  return out + "}";
}

void WriteTrace(const std::string& path, const PhaseResult& p,
                const LayerReport& layers) {
  std::ofstream out(path);
  char buf[256];
  for (const Span& s : p.spans) {
    std::snprintf(buf, sizeof buf,
                  "{\"span\":\"%s\",\"thread\":%d,\"batch\":%lld,"
                  "\"start_us\":%.1f,\"dur_us\":%.1f}\n",
                  s.name.c_str(), s.thread, static_cast<long long>(s.batch),
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    out << buf;
  }
  for (size_t i = 0; i < layers.batch_index.size(); ++i) {
    out << "{\"span\":\"layers\",\"batch\":" << layers.batch_index[i]
        << ",\"wire_ms\":" << layers.wire_ms[i];
    for (size_t l = 0; l < kNumSelfLayers; ++l) {
      out << ",\"" << kSelfLayers[l] << "_ms\":" << layers.self_ms[l][i];
    }
    out << "}\n";
  }
}

int Run(const Args& args) {
  auto workload = MakeWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *workload;
  const std::string dir =
      args.workdir + "/run-" + std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 2;
  }
  auto fail = [&](const std::string& what, const blowfish::Status& s) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), s.ToString().c_str());
    std::filesystem::remove_all(dir, ec);
    return 2;
  };
  std::printf("== wirebench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  // Where the benchmark's own wall time goes (summed per stage name, in
  // first-seen order), printed with the report.
  std::vector<std::pair<std::string, double>> stages;
  double stage_start = NowSeconds();
  auto lap = [&](const std::string& name) {
    const double now = NowSeconds();
    auto it = std::find_if(stages.begin(), stages.end(),
                           [&](const auto& s) { return s.first == name; });
    if (it == stages.end()) {
      it = stages.insert(stages.end(), std::make_pair(name, 0.0));
    }
    it->second += now - stage_start;
    stage_start = now;
  };

  auto truth = BuildTruth(w, dir);
  if (!truth.ok()) return fail("data", truth.status());
  auto selftest = SelfTestGenerators(w, args.seed, *truth);
  if (!selftest.ok()) return fail("generator self-test", selftest.status());
  std::printf("generator self-test: ok (%zu lines parsed and validated, "
              "same-seed streams byte-identical)\n",
              *selftest);
  lap("data and generator self-test");

  std::vector<double> setup_s, load_s;
  auto setup = [&](int k) {
    auto host = SetupHost(w, *truth, args.seed,
                          dir + "/audit" + std::to_string(k) + ".jsonl");
    if (host.ok()) {
      setup_s.push_back((*host)->setup_s);
      load_s.push_back((*host)->load_s);
    }
    return host;
  };

  std::vector<Check> checks;
  PhaseResult untraced, traced;
  ReplayExtras replay;
  // Phase on host 1 (untraced); with --trace 1 a traced phase on host 2;
  // the replay check on a fresh host. An untraced run then sets up idle
  // hosts until it has kUntracedSetups, so its setup_s is a median of five.
  constexpr size_t kUntracedSetups = 5;
  {
    auto h1 = setup(1);
    if (!h1.ok()) return fail("setup", h1.status());
    lap("setup");
    untraced = RunWirePhase(w, *truth, **h1, args.seed, args.seconds, false);
    lap("untraced phase");
    for (Check c : CheckPhase(w, untraced, **h1)) {
      c.name = (args.trace ? "untraced." : "") + c.name;
      checks.push_back(c);
    }
    auto warm = (*h1)->warmup;
    h1->reset();
    lap("phase checks");
    if (args.trace) {
      auto h2 = setup(2);
      if (!h2.ok()) return fail("setup", h2.status());
      lap("setup");
      traced = RunWirePhase(w, *truth, **h2, args.seed, args.seconds, true);
      lap("traced phase");
      for (Check c : CheckPhase(w, traced, **h2)) {
        c.name = "traced." + c.name;
        checks.push_back(c);
      }
      warm = (*h2)->warmup;
      lap("phase checks");
    }
    const PhaseResult& checked = args.trace ? traced : untraced;
    auto fresh = setup(3);
    if (!fresh.ok()) return fail("setup", fresh.status());
    lap("setup");
    checks.push_back(CheckReplay(w, checked, warm, **fresh, &replay));
    fresh->reset();
    lap("replay check");
    for (int k = 4; !args.trace && setup_s.size() < kUntracedSetups; ++k) {
      auto extra = setup(k);
      if (!extra.ok()) return fail("setup", extra.status());
    }
    lap("setup");
  }
  const PhaseResult& shown = args.trace ? traced : untraced;
  const E2E e = Summarize(untraced);

  PrintProperties(w, *truth, shown, replay);
  std::printf(
      "-- end-to-end (untraced phase, closed loop, %d client threads)\n",
      w.client_threads);
  PrintMetric("qps", e.qps, "queries/s", e.ok_queries);
  PrintMetric("batch_p50_ms", e.p50_ms, "ms", e.latency_n);
  PrintMetric("batch_p99_ms", e.p99_ms, "ms", e.latency_n);
  std::printf("    (%zu samples beyond p99; the highest percentile with ten "
              "beyond is p%.2f = %.6g ms)\n",
              e.beyond_p99, 100.0 * e.tail_q, e.tail_ms);
  PrintMetric("setup_s", Median(setup_s), "s", setup_s.size());
  std::printf("    (setups in order, with their CSV loads:");
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::printf(" %.4g (%.4g)", setup_s[i], load_s[i]);
  }
  std::printf(" s)\n");
  PrintMetric("failed_share", e.failed_share, "ratio",
              untraced.queries_attempted);
  PrintMetric("err_ratio", e.err_ratio, "ratio", e.err_n);
  for (const auto& [kind, slot] : untraced.err.per_kind) {
    PrintMetric("mech." + kind + ".err_ratio",
                slot.first / static_cast<double>(slot.second), "ratio",
                slot.second);
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> json;
  std::vector<std::string> predictions;
  const double hits = shown.StatDelta("sensitivity_cache_hits_total");
  const double misses = shown.StatDelta("sensitivity_cache_misses_total");
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  {
    const bool cold = w.name == "cold_shapes";
    const bool met = cold ? hit_rate < 0.5 : hit_rate == 1.0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "engine.cache.hit_rate %s: predicted %s, observed %.4f -> %s",
                  w.name.c_str(), cold ? "< 0.5" : "1.0", hit_rate,
                  met ? "met" : "MISSED");
    predictions.push_back(buf);
  }

  if (args.trace) {
    const E2E t = Summarize(traced);
    LayerReport layers = RunLayers(w, *truth, traced, args.seed, dir);
    lap("layer replays");
    if (!layers.error.empty()) {
      return fail("layer replay", blowfish::Status::Internal(layers.error));
    }
    const double batches_all =
        std::max(1.0, static_cast<double>(traced.batches.size()));
    const double queries_all =
        std::max(1.0, static_cast<double>(traced.queries_attempted));
    std::printf("-- tracing overhead (traced - untraced, same seed)\n");
    PrintMetric("overhead.qps", t.qps - e.qps, "queries/s", t.ok_queries);
    PrintMetric("overhead.batch_p50_ms", t.p50_ms - e.p50_ms, "ms",
                t.latency_n);
    PrintMetric("overhead.batch_p99_ms", t.p99_ms - e.p99_ms, "ms",
                t.latency_n);
    PrintMetric("overhead.err_ratio", t.err_ratio - e.err_ratio, "ratio",
                t.err_n);

    std::printf("-- per-layer self times of the mean batch (non-negative, "
                "sum = mean wire latency; caps removed %.4g ms of replayed "
                "time)\n",
                layers.mean_capped_ms);
    double sum = 0.0, largest = -1.0;
    std::string largest_layer;
    for (size_t l = 0; l < kNumSelfLayers; ++l) {
      const double self = layers.mean_self_ms[l];
      sum += self;
      if (self > largest) {
        largest = self;
        largest_layer = kSelfLayers[l];
      }
      PrintMetric(std::string(kSelfLayers[l]) + ".self_ms", self, "ms",
                  layers.batches);
    }
    PrintMetric("sum_of_layers_ms", sum, "ms", layers.batches);
    PrintMetric("wire_batch_ms_mean", layers.mean_wire_ms, "ms",
                layers.batches);
    std::printf("  (the *_p50 metrics below are medians of the uncapped "
                "per-batch differences)\n");

    std::vector<double> all_execute;
    std::printf("-- per-layer metrics\n");
    auto add = [&](const std::string& name, double value,
                   const std::string& unit, size_t n) {
      PrintMetric(name, value, unit, n);
      json.push_back({name, {value, unit}});
    };
    add("net.self_ms_p50", Median(layers.self_ms[0]), "ms",
        layers.self_ms[0].size());
    std::vector<double> codec;
    for (double us : replay.codec_us) {
      if (us >= 0.0) codec.push_back(us);
    }
    add("net.codec_us_per_batch", Median(codec), "us", codec.size());
    add("net.bytes_per_query",
        (traced.StatDelta("net_bytes_in_total") +
         traced.StatDelta("net_bytes_out_total")) / queries_all,
        "bytes", traced.queries_attempted);
    add("net.frames_per_batch",
        (traced.StatDelta("net_frames_in_total") +
         traced.StatDelta("net_frames_out_total")) / batches_all,
        "frames", traced.batches.size());
    add("net.connect_ms_p50", Median(traced.connect_ms), "ms",
        traced.connect_ms.size());
    add("server.queue_ms_p50", Median(layers.self_ms[1]), "ms",
        layers.self_ms[1].size());
    add("engine.serial_wait_ms_p50", Median(layers.self_ms[2]), "ms",
        layers.self_ms[2].size());
    add("engine.admit_ms_p50", Median(layers.self_ms[3]), "ms",
        layers.self_ms[3].size());
    add("engine.execute_ms_p50", Median(layers.self_ms[4]), "ms",
        layers.self_ms[4].size());
    add("engine.settle_ms_p50", Median(layers.self_ms[5]), "ms",
        layers.self_ms[5].size());
    add("engine.cache.hit_rate", hit_rate, "ratio",
        static_cast<size_t>(hits + misses));
    add("engine.cache.evictions_per_query",
        traced.StatDelta("sensitivity_cache_evictions_total") / queries_all,
        "ratio", traced.queries_attempted);
    add("engine.budget.charge_us", layers.charge_us, "us", layers.charges);
    add("core.sensitivity_ms_p50", Median(layers.sensitivity_ms), "ms",
        layers.sensitivity_ms.size());
    for (const auto& [kind, samples] : layers.execute_us) {
      PrintMetric("mech." + kind + ".execute_us_p50", Median(samples), "us",
                  samples.size());
      all_execute.insert(all_execute.end(), samples.begin(), samples.end());
    }
    add("mech.execute_us_p50", Median(all_execute), "us", all_execute.size());
    add("data.load_s", Median(load_s), "s", load_s.size());
    add("data.engine_create_ms", layers.engine_create_ms, "ms",
        w.tenants.size());
    add("data.scan_ms", layers.scan_ms, "ms", w.tenants.size());
    add("obs.audit_bytes_per_query",
        static_cast<double>(traced.audit_bytes) / queries_all, "bytes",
        traced.queries_attempted);
    const double workers = static_cast<double>(kPoolThreads);
    add("pool.busy_share",
        traced.StatDelta("pool_task_latency_us_sum_us") /
            (traced.wall_s * 1e6 * workers),
        "ratio", static_cast<size_t>(traced.StatDelta("pool_tasks_total")));
    add("pool.tasks_per_batch",
        traced.StatDelta("pool_tasks_total") / batches_all, "tasks",
        traced.batches.size());
    const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    add("proc.cpu_util", traced.cpu_s / (traced.wall_s * cpus), "ratio", 1);

    // Predictions fixed before measuring (README.md), reported as
    // observed — a miss is printed, not tuned away.
    const double net_share = layers.mean_wire_ms > 0
                                 ? layers.mean_self_ms[0] / layers.mean_wire_ms
                                 : 0.0;
    char buf[200];
    if (w.name == "spatial_pipeline") {
      auto q = layers.execute_us.find("quadtree");
      std::snprintf(
          buf, sizeof buf,
          "mech.quadtree.execute_us_p50 %.0f us; largest self-time layer: "
          "predicted engine.execute, observed %s -> %s",
          q == layers.execute_us.end() ? 0.0 : Median(q->second),
          largest_layer.c_str(),
          largest_layer == "engine.execute" ? "met" : "MISSED");
      predictions.push_back(buf);
    }
    if (w.name != "cold_shapes") {
      // A cross-workload prediction: compare this share with the other
      // workload's report.
      std::snprintf(buf, sizeof buf,
                    "net.self share of wire latency on %s: %.4f (predicted "
                    "larger on tenant_mix than on spatial_pipeline)",
                    w.name.c_str(), net_share);
      predictions.push_back(buf);
    }
    std::filesystem::create_directories(args.workdir + "/traces", ec);
    const std::string trace_path = args.workdir + "/traces/" + w.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".jsonl";
    WriteTrace(trace_path, traced, layers);
    std::printf("spans written to %s\n", trace_path.c_str());
  } else {
    json.push_back({"qps", {e.qps, "queries/s"}});
    json.push_back({"batch_p50_ms", {e.p50_ms, "ms"}});
    json.push_back({"batch_p99_ms", {e.p99_ms, "ms"}});
    json.push_back({"setup_s", {Median(setup_s), "s"}});
    json.push_back({"err_ratio", {e.err_ratio, "ratio"}});
  }

  std::printf("-- predictions (observed vs predicted)\n");
  for (const std::string& line : predictions) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("-- benchmark wall time by stage\n");
  for (const auto& [name, seconds] : stages) {
    std::printf("  %-36s = %.3f s\n", name.c_str(), seconds);
  }
  std::printf("-- checks\n");
  const bool correct = PrintChecks(checks);
  std::filesystem::remove_all(dir, ec);

  const double rss = PeakRssMiB();
  PrintMetric("peak_rss_mb", rss, "MiB", 1);
  if (!args.trace) json.push_back({"peak_rss_mb", {rss, "MiB"}});
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", shown.queries_attempted,
              shown.queries_failed, JsonMetrics(json).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  wirebench::Args args;
  if (!wirebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  return wirebench::Run(args);
}
