// blowfish_cli — end-to-end command-line driver.
//
// Ties the declarative policy spec, CSV ingestion, strategy selection,
// and the release engine into the workflow a data publisher would run:
//
//   blowfish_cli <kind>    --policy p.txt --csv data.csv [--column 1]
//                          [--eps 0.5] [--<key> <value> ...]
//                          [--seed 7] [--budget 10] [--ledger_file f]
//   blowfish_cli advise    --policy p.txt --eps 0.5
//   blowfish_cli batch     --policy p.txt --csv data.csv
//                          --requests reqs.txt [--threads 4] [--seed 7]
//                          [--budget 10] [--ledger_file spend.ledger]
//                          [--stream]
//   blowfish_cli serve     --config host.cfg [--threads 4] [--seed 7]
//                          [--ledger_file spend.ledger] [--stream]
//   blowfish_cli sessions  --config host.cfg [--tenant name]
//                          [--ledger_file spend.ledger]
//   blowfish_cli remote    --port 7070 [--host 127.0.0.1]
//                          --policy <policy_id> --tenant <name>
//                          --requests reqs.txt [--stream] [--pipeline 4]
//                          [--trace_file c.jsonl] [--trace_seed 7]
//   blowfish_cli stats     --port 7070 [--host 127.0.0.1]
//   blowfish_cli stats     --metrics_file m.prom
//   blowfish_cli health    --port 7070 [--host 127.0.0.1]
//   blowfish_cli trace     --files server.jsonl,client.jsonl
//
// A command that names a registered query kind (histogram, range,
// quantiles, kmeans, ... — see src/engine/ops/) is a one-request
// `batch`: the request is `<kind> eps=<eps>` plus every flag this file
// does not own, as key=value (`range --lo 100 --hi 400` is the request
// line `range eps=... lo=100 hi=400`), served through the same host,
// output, ledger and cache path. No answer leaves the CLI any other way.
// Every other command reads a fixed set of flags (CommandFlags below)
// and refuses any other flag before it reads a file.
// The `advise` command prints the predicted per-range-query error of each
// strategy under the policy (mech/error_models.h) without touching data.
// The `batch` command serves a whole request file on a one-tenant
// EngineHost that server/host_builder.h builds and flushes, as for
// `serve`: its tenant flags are the tenant's config keys (--ledger_file
// is `ledger =`), and the tenant seed is --seed. Budget-accounted,
// sensitivity-cached, run on --threads pool workers (none by default:
// the calling thread), output identical for any thread count. See
// engine/batch_request.h for the file format.
// The `serve` command drives a multi-tenant EngineHost
// (server/engine_host.h) from a config file (server/serve_config.h):
// every tenant's request batch is submitted asynchronously up front and
// they interleave on one shared worker pool and one shared sensitivity
// cache. The `sessions` command lists each tenant's open budget sessions
// and remaining epsilon. `--ledger_file` (or a tenant's `ledger =`
// config key) loads budget spend from a previous run and saves it back
// on exit, so `sessions` reports epsilon spent across processes. `--stream`
// prints each query's response the moment it completes instead of
// waiting for its whole batch. The query kinds `batch`/`serve` accept
// are whatever the QueryOpRegistry holds (see src/engine/ops/) — this
// file's code names none of them. The `remote` command ships the same batch
// file to a running `blowfish_serverd` over the wire protocol
// (net/client.h) and prints the streamed responses; the tenant key is
// the (policy id, tenant name) pair the daemon's serve config
// registered. The `stats` command fetches a running daemon's metrics
// snapshot over the wire (STATS verb, no tenant needed) or prints a
// --metrics_file dump; metric names are catalogued in
// docs/observability.md. The `health` command fetches the daemon's
// liveness surface (HEALTH verb, also pre-HELLO): ready/draining,
// uptime, active connections, per-tenant remaining budgets. `remote
// --trace_file` turns on wire-propagated tracing: the batch's trace
// and span ids ride the SUBMIT frame, the daemon threads them through
// its spans and audit lines, and the client writes its own spans to
// the file — `trace` then merges any number of such JSONL files
// (client- and server-side) into one indented causal tree per trace
// id, with wall-clock deltas. docs/observability.md documents the
// span inventory and the trace-context contract.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_spec.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "mech/error_models.h"
#include "mech/ordered_hierarchical.h"
#include "net/client.h"
#include "obs/jsonl.h"
#include "obs/trace.h"
#include "server/engine_host.h"
#include "server/host_builder.h"
#include "server/serve_config.h"
#include "util/parse.h"
#include "util/text_file.h"

namespace blowfish {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  const char* Get(const std::string& key, const char* fallback = nullptr) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second.c_str();
  }

  /// Boolean flags (`--stream`) are stored as "1" by the arg parser;
  /// an explicit `--stream 0` / `--stream false` turns them back off.
  bool GetBool(const std::string& key) {
    const char* value = Get(key);
    if (value == nullptr) return false;
    return std::strcmp(value, "0") != 0 && std::strcmp(value, "false") != 0;
  }
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Prints responses in the `batch` output shape. `remote` passes no
/// requests: the kind names live server-side (the wire carries labels,
/// not ops), so its header lines have no kind= field.
void PrintResponses(const std::vector<QueryRequest>& requests,
                    const std::vector<QueryResponse>& responses) {
  for (size_t i = 0; i < responses.size(); ++i) {
    const QueryResponse& resp = responses[i];
    const std::string kind =
        requests.empty() ? "" : " kind=" + QueryKindName(requests[i]);
    std::printf("## query %zu%s label=%s status=%s\n", i, kind.c_str(),
                resp.label.c_str(),
                resp.status.ok() ? "OK" : resp.status.ToString().c_str());
    if (!resp.status.ok()) {
      if (resp.receipt.refunded) {
        std::printf("# refunded=%g remaining=%g session=%s\n",
                    resp.receipt.charged, resp.receipt.remaining,
                    resp.receipt.session.empty()
                        ? "(default)"
                        : resp.receipt.session.c_str());
      }
      continue;
    }
    std::printf(
        "# sensitivity=%g cache_hit=%d eps=%g charged=%g remaining=%g "
        "session=%s%s\n",
        resp.sensitivity, resp.cache_hit ? 1 : 0, resp.receipt.epsilon,
        resp.receipt.charged, resp.receipt.remaining,
        resp.receipt.session.empty() ? "(default)"
                                     : resp.receipt.session.c_str(),
        resp.receipt.parallel ? " parallel=1" : "");
    for (size_t v = 0; v < resp.values.size(); ++v) {
      std::printf("%s%.6f", v == 0 ? "" : ",", resp.values[v]);
    }
    if (!resp.values.empty()) std::printf("\n");
  }
}

/// A per-query streaming callback printing one self-contained line as
/// each query completes. Lines from one batch are serialized by the
/// engine; `tenant` disambiguates interleaved tenants under `serve`.
/// The whole record goes through one fputs so concurrent *batches*
/// cannot shear a line.
QueryCompletionCallback StreamPrinter(const std::string& tenant) {
  return [tenant](size_t index, const QueryResponse& resp) {
    std::ostringstream out;
    out << "## stream";
    if (!tenant.empty()) out << " tenant=" << tenant;
    out << " query=" << index << " label=" << resp.label << " status="
        << (resp.status.ok() ? "OK" : resp.status.ToString());
    if (resp.status.ok()) {
      out << " sensitivity=" << resp.sensitivity << " values=";
      for (size_t v = 0; v < resp.values.size(); ++v) {
        out << (v == 0 ? "" : ",") << resp.values[v];
      }
    }
    out << "\n";
    std::fputs(out.str().c_str(), stdout);
    std::fflush(stdout);
  };
}

void PrintCacheStats(const SensitivityCache& cache) {
  const SensitivityCache::Stats stats = cache.stats();
  std::printf("## cache hits=%llu misses=%llu evictions=%llu\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions));
}

StatusOr<ServeConfig> LoadServeConfig(Args& args) {
  const char* config_path = args.Get("config");
  if (config_path == nullptr) {
    return Status::InvalidArgument("--config <file> is required");
  }
  BLOWFISH_ASSIGN_OR_RETURN(ServeConfig config,
                            LoadServeConfigFile(config_path));
  // --threads and --seed override the host keys of the same name.
  for (const char* flag : {"threads", "seed"}) {
    if (const char* value = args.Get(flag)) {
      BLOWFISH_RETURN_IF_ERROR(
          ApplyHostKey(flag, value, std::string("--") + flag, &config));
    }
  }
  return config;
}

/// Applies the --ledger_file override to `config`. Ledgers are per
/// tenant (one accountant each), so the override only makes sense once
/// the tenant set is down to one — which is why it runs *after*
/// `sessions --tenant` narrows the config, not inside LoadServeConfig.
Status ApplyLedgerOverride(Args& args, ServeConfig* config) {
  const char* f = args.Get("ledger_file");
  if (f == nullptr) return Status::OK();
  if (config->tenants.size() != 1) {
    return Status::InvalidArgument(
        "--ledger_file overrides a single tenant's ledger; " +
        std::to_string(config->tenants.size()) +
        " tenants are selected — use per-tenant 'ledger =' keys (or "
        "--tenant <name>) instead");
  }
  config->tenants[0].ledger_file = f;
  return Status::OK();
}

int RunServe(Args& args) {
  auto config = LoadServeConfig(args);
  if (!config.ok()) return Fail(config.status().ToString());
  Status ledger = ApplyLedgerOverride(args, &*config);
  if (!ledger.ok()) return Fail(ledger.ToString());
  auto host = BuildHostFromConfig(*config);
  if (!host.ok()) return Fail(host.status().ToString());
  std::printf("# serving %zu tenants on %zu pool threads\n",
              config->tenants.size(), (*host)->pool().size());

  // Submit every tenant's batch before collecting any result: the
  // batches interleave on the shared pool.
  struct PendingBatch {
    const TenantConfig* tenant;
    std::vector<QueryRequest> requests;
    std::future<StatusOr<std::vector<QueryResponse>>> result;
  };
  const bool stream = args.GetBool("stream");
  std::vector<PendingBatch> pending;
  for (const TenantConfig& tenant : config->tenants) {
    if (tenant.requests_file.empty()) continue;
    auto request_text = ReadTextFile(tenant.requests_file);
    if (!request_text.ok()) return Fail(request_text.status().ToString());
    auto requests = ParseBatchRequests(*request_text);
    if (!requests.ok()) {
      return Fail("tenant '" + tenant.name +
                  "': " + requests.status().ToString());
    }
    PendingBatch batch;
    batch.tenant = &tenant;
    batch.requests = *requests;  // kept for printing alongside responses
    batch.result = (*host)->SubmitBatch(
        tenant.policy_file, tenant.name, std::move(*requests),
        stream ? StreamPrinter(tenant.name) : QueryCompletionCallback());
    pending.push_back(std::move(batch));
  }
  for (PendingBatch& batch : pending) {
    // Every tenant is registered, so the future carries responses.
    auto responses = batch.result.get();
    if (!responses.ok()) return Fail(responses.status().ToString());
    if (!stream) {
      // Streaming already printed each query as it completed.
      std::printf("### tenant %s\n", batch.tenant->name.c_str());
      PrintResponses(batch.requests, *responses);
    }
  }
  PrintCacheStats((*host)->cache());
  for (const TenantConfig& tenant : config->tenants) {
    if (tenant.requests_file.empty() && tenant.sessions.empty()) continue;
    auto engine = (*host)->engine(tenant.policy_file, tenant.name);
    if (!engine.ok()) return Fail(engine.status().ToString());
    std::printf("### tenant %s\n%s", tenant.name.c_str(),
                (*engine)->accountant().ToString().c_str());
  }
  // One shared flush path with blowfish_serverd's drain
  // (server/host_builder.h), so the daemon and the CLI cannot diverge
  // on what persists.
  Status saved = SaveHostState(**host, *config);
  if (!saved.ok()) return Fail(saved.ToString());
  for (const TenantConfig& tenant : config->tenants) {
    if (tenant.ledger_file.empty()) continue;
    std::printf("# tenant %s budget ledger saved to %s\n",
                tenant.name.c_str(), tenant.ledger_file.c_str());
  }
  return 0;
}

int RunSessions(Args& args) {
  auto config = LoadServeConfig(args);
  if (!config.ok()) return Fail(config.status().ToString());
  const char* filter = args.Get("tenant");
  if (filter != nullptr) {
    // Narrow before building: no point ingesting every tenant's CSV to
    // print one tenant's sessions.
    std::vector<TenantConfig> kept;
    for (TenantConfig& tenant : config->tenants) {
      if (tenant.name == filter) kept.push_back(std::move(tenant));
    }
    if (kept.empty()) {
      return Fail("no tenant named '" + std::string(filter) +
                  "' in the config");
    }
    config->tenants = std::move(kept);
  }
  // After the --tenant narrowing, so `sessions --tenant x --ledger_file f`
  // works against a multi-tenant config.
  Status ledger = ApplyLedgerOverride(args, &*config);
  if (!ledger.ok()) return Fail(ledger.ToString());
  // No CSV is read and no engine built: a tenant's budgets are its
  // config's opening balances, merged with the spend earlier processes
  // saved to its ledger. The budget step is the one `serve` and the
  // daemon run at startup, so a tenant they refuse is refused here —
  // before anything is printed, so the output is all tenants or none.
  std::deque<BudgetAccountant> accountants;
  for (const TenantConfig& tenant : config->tenants) {
    accountants.emplace_back(tenant.budget);
    Status opened = OpenTenantSessions(tenant, accountants.back());
    if (!opened.ok()) return Fail(opened.ToString());
  }
  std::printf("tenant,session,budget,spent,remaining\n");
  for (size_t t = 0; t < config->tenants.size(); ++t) {
    const TenantConfig& tenant = config->tenants[t];
    bool default_listed = false;
    for (const auto& session : accountants[t].ListSessions()) {
      default_listed = default_listed || session.name.empty();
      std::printf("%s,%s,%g,%g,%g\n", tenant.name.c_str(),
                  session.name.empty() ? "(default)" : session.name.c_str(),
                  session.budget, session.spent, session.remaining);
    }
    // The default session materializes at first charge; until then it
    // has the tenant's default budget and nothing spent.
    if (!default_listed) {
      std::printf("%s,(default),%g,0,%g\n", tenant.name.c_str(),
                  tenant.budget, tenant.budget);
    }
  }
  return 0;
}

int RunStats(Args& args) {
  // Remote: STATS over the wire (no tenant handshake — the verb is
  // accepted before HELLO). Local: print a --metrics_file dump a
  // daemon's SIGUSR1 wrote.
  const char* port_text = args.Get("port");
  const char* metrics_file = args.Get("metrics_file");
  if (port_text != nullptr) {
    auto port = ParseNonNegativeInt(port_text, "--port");
    if (!port.ok()) return Fail(port.status().ToString());
    if (*port == 0 || *port > 65535) return Fail("--port out of range");
    auto samples = BlowfishClient::FetchStats(
        args.Get("host", "127.0.0.1"), static_cast<uint16_t>(*port));
    if (!samples.ok()) return Fail(samples.status().ToString());
    for (const MetricSample& sample : *samples) {
      std::printf("%s %.17g\n", sample.name.c_str(), sample.value);
    }
    return 0;
  }
  if (metrics_file != nullptr) {
    auto text = ReadTextFile(metrics_file);
    if (!text.ok()) return Fail(text.status().ToString());
    std::fputs(text->c_str(), stdout);
    return 0;
  }
  return Fail(
      "stats needs --port <p> [--host addr] (live daemon) or "
      "--metrics_file <f> (a SIGUSR1 dump)");
}

int RunHealth(Args& args) {
  const char* port_text = args.Get("port");
  if (port_text == nullptr) return Fail("--port <number> is required");
  auto port = ParseNonNegativeInt(port_text, "--port");
  if (!port.ok()) return Fail(port.status().ToString());
  if (*port == 0 || *port > 65535) return Fail("--port out of range");
  auto samples = BlowfishClient::FetchHealth(
      args.Get("host", "127.0.0.1"), static_cast<uint16_t>(*port));
  if (!samples.ok()) return Fail(samples.status().ToString());
  for (const MetricSample& sample : *samples) {
    std::printf("%s %.17g\n", sample.name.c_str(), sample.value);
  }
  return 0;
}

/// One JSONL line that carried a trace id: where it came from, when,
/// and everything else it said.
struct TraceLine {
  std::string trace;    // decimal token, displayed verbatim
  std::string span;     // decimal token ("" when the line had none)
  std::string kind;     // the "span"/"event" discriminator's value
  uint64_t ts_us = 0;   // 0 = untimed (e.g. a refused query's span)
  std::string detail;   // remaining fields, rendered k=v
  size_t order = 0;     // file position, the tiebreak for ts collisions
};

int RunTrace(Args& args) {
  const char* files = args.Get("files");
  if (files == nullptr) {
    return Fail("trace needs --files a.jsonl[,b.jsonl...] (any mix of "
                "server --trace_file / --audit_file and client files)");
  }
  std::vector<std::string> paths;
  {
    std::istringstream in(files);
    std::string token;
    while (std::getline(in, token, ',')) {
      if (!token.empty()) paths.push_back(token);
    }
  }
  if (paths.empty()) return Fail("--files lists no file");

  // trace id -> span id -> lines. std::map keeps the report stable
  // across runs and across file orderings.
  std::map<std::string, std::map<std::string, std::vector<TraceLine>>>
      traces;
  size_t untraced = 0;
  size_t order = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) return Fail("cannot read " + path);
    std::string line;
    std::vector<obs::JsonField> fields;
    size_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) continue;
      if (!obs::ParseFlatJsonLine(line, &fields)) {
        return Fail(path + ":" + std::to_string(line_number) +
                    ": not a flat JSON object");
      }
      const obs::JsonField* trace = obs::FindJsonField(fields, "trace");
      if (trace == nullptr || trace->is_string) {
        ++untraced;
        continue;
      }
      TraceLine entry;
      entry.trace = trace->value;
      entry.order = order++;
      for (const obs::JsonField& f : fields) {
        if (f.key == "trace") continue;
        if (f.key == "span_id") {
          entry.span = f.value;
          continue;
        }
        if (f.key == "span" || f.key == "event") {
          entry.kind = f.value;
          continue;
        }
        if (f.key == "ts_us") {
          entry.ts_us = std::strtoull(f.value.c_str(), nullptr, 10);
          continue;
        }
        if (!entry.detail.empty()) entry.detail += " ";
        entry.detail += f.key + "=" + f.value;
      }
      traces[entry.trace][entry.span].push_back(std::move(entry));
    }
  }

  for (auto& [trace_id, spans] : traces) {
    size_t lines = 0;
    for (const auto& [span_id, entries] : spans) lines += entries.size();
    std::printf("trace %s (%zu span%s, %zu lines)\n", trace_id.c_str(),
                spans.size(), spans.size() == 1 ? "" : "s", lines);
    // Span groups print in causal order: by their earliest timed line.
    std::vector<std::pair<uint64_t, const std::string*>> span_order;
    for (const auto& [span_id, entries] : spans) {
      uint64_t first = 0;
      for (const TraceLine& entry : entries) {
        if (entry.ts_us != 0 && (first == 0 || entry.ts_us < first)) {
          first = entry.ts_us;
        }
      }
      span_order.emplace_back(first, &span_id);
    }
    std::sort(span_order.begin(), span_order.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : *a.second < *b.second;
              });
    for (const auto& [span_start, span_id] : span_order) {
      std::printf("  span %s\n", span_id->c_str());
      std::vector<TraceLine> entries = spans[*span_id];
      std::sort(entries.begin(), entries.end(),
                [](const TraceLine& a, const TraceLine& b) {
                  // Untimed lines (ts 0) sink below timed ones; file
                  // position breaks ties so identical stamps keep
                  // their written order.
                  const uint64_t ka = a.ts_us == 0 ? UINT64_MAX : a.ts_us;
                  const uint64_t kb = b.ts_us == 0 ? UINT64_MAX : b.ts_us;
                  return ka != kb ? ka < kb : a.order < b.order;
                });
      for (const TraceLine& entry : entries) {
        if (entry.ts_us == 0) {
          std::printf("    +?        %-16s %s\n", entry.kind.c_str(),
                      entry.detail.c_str());
          continue;
        }
        std::printf("    +%-8llu %-16s %s\n",
                    static_cast<unsigned long long>(entry.ts_us -
                                                    span_start),
                    entry.kind.c_str(), entry.detail.c_str());
      }
    }
  }
  std::printf("# %zu trace%s, %zu untraced line%s skipped\n",
              traces.size(), traces.size() == 1 ? "" : "s", untraced,
              untraced == 1 ? "" : "s");
  return 0;
}

int RunRemote(Args& args) {
  const char* address = args.Get("host", "127.0.0.1");
  const char* port_text = args.Get("port");
  if (port_text == nullptr) return Fail("--port <number> is required");
  auto port = ParseNonNegativeInt(port_text, "--port");
  if (!port.ok()) return Fail(port.status().ToString());
  if (*port == 0 || *port > 65535) return Fail("--port out of range");
  const char* policy_id = args.Get("policy");
  const char* tenant = args.Get("tenant");
  if (policy_id == nullptr || tenant == nullptr) {
    return Fail(
        "--policy <id> and --tenant <name> are required (the tenant key "
        "the daemon's serve config registered)");
  }
  const char* requests_path = args.Get("requests");
  if (requests_path == nullptr) return Fail("--requests <file> required");
  auto request_text = ReadTextFile(requests_path);
  if (!request_text.ok()) return Fail(request_text.status().ToString());

  auto client = BlowfishClient::Connect(address,
                                        static_cast<uint16_t>(*port),
                                        policy_id, tenant);
  if (!client.ok()) return Fail(client.status().ToString());
  if (const char* trace_file = args.Get("trace_file")) {
    uint64_t trace_seed = 20140612;
    if (const char* s = args.Get("trace_seed")) {
      auto seed = ParseNonNegativeInt(s, "--trace_seed");
      if (!seed.ok()) return Fail(seed.status().ToString());
      trace_seed = *seed;
    }
    if (!obs::TraceWriter::Global()->Open(trace_file)) {
      return Fail(std::string("cannot open --trace_file ") + trace_file);
    }
    (*client)->EnableTracing(obs::TraceWriter::Global(), trace_seed);
  }
  const bool stream = args.GetBool("stream");
  BlowfishClient::ResultCallback on_result;
  if (stream) on_result = StreamPrinter("");
  size_t pipeline = 1;
  if (const char* p = args.Get("pipeline")) {
    auto n = ParseNonNegativeInt(p, "--pipeline");
    if (!n.ok()) return Fail(n.status().ToString());
    if (*n < 1) return Fail("--pipeline must be at least 1");
    pipeline = static_cast<size_t>(*n);
  }
  if (pipeline == 1) {
    auto responses = (*client)->SubmitBatchText(*request_text, on_result);
    if (!responses.ok()) return Fail(responses.status().ToString());
    if (!stream) PrintResponses({}, *responses);
  } else {
    // Pipelined mode: ship N copies of the batch back to back on one
    // connection (no reads in between), then claim them in submit
    // order. The daemon runs them concurrently; the batch tags keep
    // the interleaved reply frames attributable.
    std::vector<uint64_t> handles;
    handles.reserve(pipeline);
    for (size_t i = 0; i < pipeline; ++i) {
      auto handle = (*client)->SubmitPipelined(*request_text);
      if (!handle.ok()) return Fail(handle.status().ToString());
      handles.push_back(*handle);
    }
    for (size_t i = 0; i < handles.size(); ++i) {
      std::printf("# batch %zu/%zu\n", i + 1, handles.size());
      auto responses = (*client)->AwaitBatch(handles[i], on_result);
      if (!responses.ok()) return Fail(responses.status().ToString());
      if (!stream) PrintResponses({}, *responses);
    }
  }
  Status bye = (*client)->Bye();
  if (!bye.ok()) return Fail(bye.ToString());
  obs::TraceWriter::Global()->Close();
  return 0;
}

/// Flags a single-shot query command consumes itself; every other flag
/// becomes a key=value on its request.
const std::set<std::string>& QueryCommandFlags() {
  static const auto* kFlags = new std::set<std::string>{
      "policy", "csv",     "column", "columns",     "bin_width", "eps",
      "seed",   "threads", "budget", "ledger_file", "stream"};
  return *kFlags;
}

/// The flags each named command reads; RunCli refuses any other.
const std::map<std::string, std::set<std::string>>& CommandFlags() {
  static const auto* kFlags =
      new std::map<std::string, std::set<std::string>>{
          {"advise", {"policy", "eps"}},
          {"batch",
           {"policy", "csv", "column", "columns", "bin_width", "eps", "seed",
            "threads", "budget", "ledger_file", "stream", "requests"}},
          {"serve", {"config", "threads", "seed", "ledger_file", "stream"}},
          {"sessions", {"config", "tenant", "ledger_file"}},
          {"remote",
           {"host", "port", "policy", "tenant", "requests", "stream",
            "pipeline", "trace_file", "trace_seed"}},
          {"stats", {"host", "port", "metrics_file"}},
          {"health", {"host", "port"}},
          {"trace", {"files"}},
      };
  return *kFlags;
}

int RunCli(Args args) {
  const QueryOpRegistry& registry = QueryOpRegistry::Global();
  const auto command = CommandFlags().find(args.command);
  const bool single_shot =
      command == CommandFlags().end() && registry.Has(args.command);
  if (command == CommandFlags().end() && !single_shot) {
    return Fail("unknown command '" + args.command +
                "' (query kinds: " + registry.KnownKindsString() + ")");
  }
  if (command != CommandFlags().end()) {
    for (const auto& [flag, value] : args.flags) {
      if (command->second.count(flag) == 0) {
        std::string accepted;
        for (const std::string& known : command->second) {
          accepted += " --" + known;
        }
        return Fail("unknown flag '--" + flag + "' for " + args.command +
                    " (accepted:" + accepted + ")");
      }
    }
  }
  if (args.command == "serve") return RunServe(args);
  if (args.command == "sessions") return RunSessions(args);
  if (args.command == "remote") return RunRemote(args);
  if (args.command == "stats") return RunStats(args);
  if (args.command == "health") return RunHealth(args);
  if (args.command == "trace") return RunTrace(args);

  // A single-shot request is built before any file is read, so a bad
  // flag costs no I/O. Its epsilon is set below, once the policy spec's
  // default is known (--eps is a CLI flag, never a request key).
  std::vector<QueryRequest> requests;
  if (single_shot) {
    std::vector<std::pair<std::string, std::string>> kv;
    for (const auto& [flag, value] : args.flags) {
      if (QueryCommandFlags().count(flag) == 0) kv.emplace_back(flag, value);
    }
    auto request = MakeQueryRequest(args.command, 0.0, kv);
    if (!request.ok()) return Fail(request.status().ToString());
    requests.push_back(std::move(*request));
  }

  const char* policy_path = args.Get("policy");
  if (policy_path == nullptr) return Fail("--policy <file> is required");
  auto spec_text = ReadTextFile(policy_path);
  if (!spec_text.ok()) return Fail(spec_text.status().ToString());
  auto parsed = ParsePolicySpec(*spec_text);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  Policy& policy = parsed->policy;

  double eps = parsed->epsilon.value_or(1.0);
  if (const char* e = args.Get("eps")) {
    auto parsed_eps = ParseFiniteDouble(e, "--eps");
    if (!parsed_eps.ok()) return Fail(parsed_eps.status().ToString());
    eps = *parsed_eps;
  }
  uint64_t seed = 20140612;
  if (const char* s = args.Get("seed")) {
    auto parsed_seed = ParseNonNegativeInt(s, "--seed");
    if (!parsed_seed.ok()) return Fail(parsed_seed.status().ToString());
    seed = *parsed_seed;
  }

  std::printf("# policy %s, eps = %g\n", policy.ToString().c_str(), eps);

  if (args.command == "advise") {
    auto ordered = OrderedRangeError(policy, eps);
    auto oh = OrderedHierarchicalRangeError(policy, eps, 16);
    const size_t n = policy.domain().size();
    double hier =
        OHErrorModel::Compute(n, n, 16).OptimalRangeError(eps);
    std::printf("strategy,predicted_range_mse\n");
    if (ordered.ok()) std::printf("ordered,%.4f\n", *ordered);
    if (oh.ok()) std::printf("ordered_hierarchical,%.4f\n", *oh);
    std::printf("hierarchical,%.4f\n", hier);
    auto best = BestRangeStrategy(policy, eps, 16);
    if (best.ok()) std::printf("# recommended: %s\n", best->name);
    return 0;
  }

  if (single_shot) {
    requests[0].epsilon = eps;
  } else {
    const char* requests_path = args.Get("requests");
    if (requests_path == nullptr) return Fail("--requests <file> required");
    auto request_text = ReadTextFile(requests_path);
    if (!request_text.ok()) return Fail(request_text.status().ToString());
    auto parsed_requests = ParseBatchRequests(*request_text);
    if (!parsed_requests.ok()) {
      return Fail(parsed_requests.status().ToString());
    }
    requests = std::move(*parsed_requests);
  }

  // The batch runs on a one-tenant host that host_builder builds and
  // flushes, as for `serve` and blowfish_serverd: each tenant flag is
  // that tenant's config key, and the tenant seed is --seed.
  if (args.Get("csv") == nullptr) return Fail("--csv required");
  ServeConfig config;
  // --threads n: n pool workers, as for `serve`. Without it, none: the
  // batch runs on this thread.
  config.threads = 0;
  if (const char* t = args.Get("threads")) {
    Status applied = ApplyHostKey("threads", t, "--threads", &config);
    if (!applied.ok()) return Fail(applied.ToString());
  }
  TenantConfig tenant;
  tenant.name = "cli";
  tenant.seed = seed;
  // (flag, config key), applied in order: --column wins over --columns.
  static const std::pair<const char*, const char*> kTenantFlags[] = {
      {"policy", "policy"},       {"csv", "csv"},
      {"columns", "columns"},     {"column", "columns"},
      {"bin_width", "bin_width"}, {"budget", "budget"},
      {"ledger_file", "ledger"}};
  for (const auto& [flag, key] : kTenantFlags) {
    const char* value = args.Get(flag);
    if (value == nullptr) continue;
    Status applied =
        ApplyTenantKey(key, value, std::string("--") + flag, &tenant);
    if (!applied.ok()) return Fail(applied.ToString());
  }
  config.tenants.push_back(std::move(tenant));
  const TenantConfig& cli = config.tenants[0];
  auto host = BuildHostFromConfig(config);
  if (!host.ok()) return Fail(host.status().ToString());
  ReleaseEngine* engine = (*host)->engine(cli.policy_file, cli.name).value();
  std::printf("# loaded %zu rows\n",
              static_cast<size_t>(engine->hist().Total()));

  QueryCompletionCallback on_complete;
  if (args.GetBool("stream")) on_complete = StreamPrinter("");
  auto responses =
      (*host)->ServeBatch(cli.policy_file, cli.name, requests, on_complete);
  if (!responses.ok()) return Fail(responses.status().ToString());
  if (!on_complete) PrintResponses(requests, *responses);
  PrintCacheStats((*host)->cache());
  std::printf("%s", engine->accountant().ToString().c_str());
  Status saved = SaveHostState(**host, config);
  if (!saved.ok()) return Fail(saved.ToString());
  if (!cli.ledger_file.empty()) {
    std::printf("# budget ledger saved to %s\n", cli.ledger_file.c_str());
  }
  // A batch reports refusals per query; a single-shot command has one
  // query, so its refusal is the command's failure.
  return single_shot && !(*responses)[0].status.ok() ? 1 : 0;
}

}  // namespace
}  // namespace blowfish

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: blowfish_cli <kind>   --policy <file> --csv <file> "
                 "[--eps <v>] [--<key> <value> ...]\n"
                 "       blowfish_cli advise   --policy <file> [--eps <v>]\n"
                 "       blowfish_cli batch    --policy <file> --csv <file> "
                 "--requests <file>\n"
                 "                             [--threads <n>] [--stream] "
                 "[--ledger_file <file>]\n"
                 "       blowfish_cli serve    --config <file> "
                 "[--threads <n>] [--seed <n>] [--stream]\n"
                 "                             [--ledger_file <file>]\n"
                 "       blowfish_cli sessions --config <file> "
                 "[--tenant <name>] [--ledger_file <file>]\n"
                 "       blowfish_cli remote   --port <p> "
                 "[--host 127.0.0.1] --policy <id> --tenant <name>\n"
                 "                             --requests <file> "
                 "[--stream] [--pipeline <n>]\n"
                 "                             [--trace_file <f> "
                 "[--trace_seed <n>]]\n"
                 "       blowfish_cli stats    --port <p> "
                 "[--host 127.0.0.1] | --metrics_file <file>\n"
                 "       blowfish_cli health   --port <p> "
                 "[--host 127.0.0.1]\n"
                 "       blowfish_cli trace    --files "
                 "<a.jsonl[,b.jsonl...]>\n"
                 "query kinds: %s\n",
                 blowfish::QueryOpRegistry::Global().KnownKindsString()
                     .c_str());
    return 1;
  }
  blowfish::Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strncmp(flag, "--", 2) != 0) {
      std::fprintf(stderr, "error: expected --flag [value] arguments\n");
      return 1;
    }
    // A flag followed by another --flag (or by nothing) is boolean, e.g.
    // `serve --stream --config host.cfg`. Values may start with a single
    // '-' (negative numbers) but not with '--'.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[flag + 2] = argv[i + 1];
      ++i;
    } else {
      args.flags[flag + 2] = "1";
    }
  }
  // Flag values go through util/parse.h, which returns errors instead of
  // throwing; this catch is a last-resort backstop (e.g. std::length_error
  // from an absurd allocation request) so bad input never aborts.
  try {
    return blowfish::RunCli(std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
