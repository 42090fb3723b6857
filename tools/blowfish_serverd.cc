// blowfish_serverd — the TCP wire-protocol daemon.
//
//   blowfish_serverd --config host.cfg [--port 7070] [--bind 127.0.0.1]
//                    [--threads 4] [--io_threads 2]
//                    [--max_connections 10000] [--idle_timeout_ms 300000]
//                    [--print_port] [--metrics_file m.prom]
//                    [--trace_file t.jsonl] [--audit_file a.jsonl]
//
// Builds a multi-tenant EngineHost from the same serve config
// `blowfish_cli serve` uses (server/serve_config.h), then serves the
// wire protocol of src/net/ until SIGTERM or SIGINT:
//
//   * --port 0 (the default) binds an ephemeral port; the bound port is
//     printed on startup (just the number with --print_port, so
//     scripts and tests can scrape it).
//   * Connections are served by an epoll reactor on --io_threads
//     event-loop threads (engine work stays on the --threads pool).
//     --max_connections caps concurrent connections (0 = unlimited; at
//     the cap a new connection gets a structured RESOURCE_EXHAUSTED
//     ERR and a close); --idle_timeout_ms evicts connections with no
//     traffic and nothing in flight (0 = never).
//   * On SIGTERM/SIGINT the daemon drains gracefully: it stops
//     accepting, lets every in-flight batch finish and flush its
//     frames, joins the I/O threads, then writes the budget
//     ledgers back to the config's files (server/host_builder.h,
//     SaveHostState) before exiting 0 — a restarted daemon refuses
//     what this process's clients already spent.
//   * Telemetry (docs/observability.md): every layer's counters live
//     in the process-wide metrics registry, served over the wire by
//     the STATS verb (`blowfish_cli stats`). SIGUSR1 dumps a
//     Prometheus-style text snapshot — to --metrics_file if given,
//     else to stdout — without disturbing serving; the same dump runs
//     once more on clean exit. --trace_file turns on per-batch /
//     per-query JSONL spans. During a drain the daemon logs progress
//     (~1/s): connections still in flight, and how many had to be
//     escalated to a full shutdown at the grace deadline.
//     --audit_file turns on the privacy audit log: one JSONL line per
//     budget-affecting event, replayable against the saved ledgers by
//     `blowfish_audit`. On drain both JSONL files are fsynced before
//     the process exits, after the last batch settles.
//
// Clients: `blowfish_cli remote` or the BlowfishClient library
// (net/client.h). docs/server.md documents the frame grammar and shows
// a raw nc(1) transcript.

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

#include "net/server.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/host_builder.h"
#include "util/parse.h"

namespace blowfish {
namespace {

/// Self-pipe: the signal handler writes one byte; main blocks on the
/// read side. The byte says which signal fired: 'U' = SIGUSR1 (dump
/// metrics, keep serving), 'T' = SIGTERM/SIGINT (drain and exit). The
/// only async-signal-safe thing the handler does is write(2).
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int signum) {
  const char byte = signum == SIGUSR1 ? 'U' : 'T';
  // Best effort: a full pipe means a wakeup is already pending.
  [[maybe_unused]] ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Prometheus-style snapshot of the process-wide registry: to `path`
/// when set (SIGUSR1's re-dumpable file contract), else to stdout.
void DumpMetrics(const std::string& path) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  if (path.empty()) {
    std::fputs(registry->RenderPrometheusText().c_str(), stdout);
  } else if (registry->WriteTextFile(path)) {
    std::printf("# metrics dumped to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write --metrics_file %s\n",
                 path.c_str());
  }
  std::fflush(stdout);
}

int Run(int argc, char** argv) {
  std::string config_path;
  ServerOptions server_options;
  // Operational defaults for a long-lived daemon (the library defaults
  // in ServerOptions are "off" so embedded/test servers opt in): cap
  // the connection herd and evict idle peers after five minutes.
  server_options.max_connections = 10000;
  server_options.idle_timeout_ms = 300000;
  std::string threads_override;
  std::string metrics_file;
  std::string trace_file;
  std::string audit_file;
  bool print_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--config") {
      const char* v = value();
      if (v == nullptr) return Fail("--config needs a file");
      config_path = v;
    } else if (flag == "--port") {
      const char* v = value();
      if (v == nullptr) return Fail("--port needs a value");
      auto port = ParseNonNegativeInt(v, "--port");
      if (!port.ok()) return Fail(port.status().ToString());
      if (*port > 65535) return Fail("--port out of range");
      server_options.port = static_cast<uint16_t>(*port);
    } else if (flag == "--bind") {
      const char* v = value();
      if (v == nullptr) return Fail("--bind needs an address");
      server_options.bind_address = v;
    } else if (flag == "--threads") {
      const char* v = value();
      if (v == nullptr) return Fail("--threads needs a value");
      threads_override = v;
    } else if (flag == "--io_threads") {
      const char* v = value();
      if (v == nullptr) return Fail("--io_threads needs a value");
      auto n = ParseNonNegativeInt(v, "--io_threads");
      if (!n.ok()) return Fail(n.status().ToString());
      if (*n < 1) return Fail("--io_threads must be at least 1");
      if (*n > uint64_t(INT_MAX)) return Fail("--io_threads out of range");
      server_options.io_threads = static_cast<int>(*n);
    } else if (flag == "--max_connections") {
      const char* v = value();
      if (v == nullptr) return Fail("--max_connections needs a value");
      auto n = ParseNonNegativeInt(v, "--max_connections");
      if (!n.ok()) return Fail(n.status().ToString());
      server_options.max_connections = static_cast<size_t>(*n);
    } else if (flag == "--idle_timeout_ms") {
      const char* v = value();
      if (v == nullptr) return Fail("--idle_timeout_ms needs a value");
      auto n = ParseNonNegativeInt(v, "--idle_timeout_ms");
      if (!n.ok()) return Fail(n.status().ToString());
      // An int field: a larger value would wrap to 0 or a negative,
      // silently turning idle eviction off.
      if (*n > uint64_t(INT_MAX)) {
        return Fail("--idle_timeout_ms out of range");
      }
      server_options.idle_timeout_ms = static_cast<int>(*n);
    } else if (flag == "--metrics_file") {
      const char* v = value();
      if (v == nullptr) return Fail("--metrics_file needs a file");
      metrics_file = v;
    } else if (flag == "--trace_file") {
      const char* v = value();
      if (v == nullptr) return Fail("--trace_file needs a file");
      trace_file = v;
    } else if (flag == "--audit_file") {
      const char* v = value();
      if (v == nullptr) return Fail("--audit_file needs a file");
      audit_file = v;
    } else if (flag == "--print_port") {
      print_port = true;
    } else {
      return Fail("unknown flag '" + flag +
                  "' (usage: blowfish_serverd --config <file> [--port p] "
                  "[--bind addr] [--threads n] [--io_threads n] "
                  "[--max_connections n] [--idle_timeout_ms ms] "
                  "[--print_port] [--metrics_file f] [--trace_file f] "
                  "[--audit_file f])");
    }
  }
  if (config_path.empty()) {
    return Fail("--config <file> is required");
  }

  auto config = LoadServeConfigFile(config_path);
  if (!config.ok()) return Fail(config.status().ToString());
  if (!threads_override.empty()) {
    Status threads =
        ApplyHostKey("threads", threads_override, "--threads", &*config);
    if (!threads.ok()) return Fail(threads.ToString());
  }

  // Open the tracer and audit log before the host exists so the very
  // first batch is traced and audited. Both go to the process-wide
  // sinks the engines default to.
  if (!trace_file.empty() &&
      !obs::TraceWriter::Global()->Open(trace_file)) {
    return Fail("cannot open --trace_file " + trace_file);
  }
  if (!audit_file.empty() &&
      !obs::AuditLog::Global()->Open(audit_file)) {
    return Fail("cannot open --audit_file " + audit_file);
  }

  auto host = BuildHostFromConfig(*config);
  if (!host.ok()) return Fail(host.status().ToString());

  if (::pipe(g_signal_pipe) != 0) {
    return Fail(std::string("pipe: ") + std::strerror(errno));
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGUSR1, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dead peers are error returns, not exits

  server_options.drain_log = [](const std::string& line) {
    std::printf("# %s\n", line.c_str());
    std::fflush(stdout);
  };
  auto server = BlowfishServer::Start(host->get(), server_options);
  if (!server.ok()) return Fail(server.status().ToString());

  if (print_port) {
    std::printf("%u\n", (*server)->port());
  } else {
    std::printf("# blowfish_serverd listening on %s:%u (%zu tenants, %zu "
                "pool threads)\n",
                server_options.bind_address.c_str(), (*server)->port(),
                (*host)->Tenants().size(), (*host)->pool().size());
  }
  std::fflush(stdout);

  // Block until a signal. SIGUSR1 dumps a metrics snapshot and keeps
  // serving (re-dumpable at will); SIGTERM/SIGINT fall through to the
  // drain.
  while (true) {
    char byte = 0;
    const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    if (byte == 'U') {
      DumpMetrics(metrics_file);
      continue;
    }
    break;
  }

  std::printf("# draining: in-flight batches complete, ledgers flush\n");
  std::fflush(stdout);
  (*server)->Stop();
  Status saved = SaveHostState(**host, *config);
  if (!saved.ok()) return Fail(saved.ToString());
  if (!metrics_file.empty()) DumpMetrics(metrics_file);
  // Flush() fsyncs what the per-line fflushes left in the page cache —
  // the drain guarantees durable trace and audit files, not just
  // written ones. Every batch has settled (Stop() waited for each
  // batch's settlement and SaveHostState ran), so these files are
  // complete.
  obs::TraceWriter::Global()->Flush();
  obs::TraceWriter::Global()->Close();
  obs::AuditLog::Global()->Flush();
  obs::AuditLog::Global()->Close();
  // The server reports into the process-wide registry; Stop() has
  // quiesced every writer, so the counts are exact.
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Global();
  auto count = [metrics](const char* name) {
    return static_cast<unsigned long long>(
        metrics->GetCounter(name)->Value());
  };
  std::printf("# served %llu batches over %llu connections "
              "(%llu protocol errors); state flushed\n",
              count("net_batches_total"), count("net_connections_total"),
              count("net_protocol_errors_total"));
  return 0;
}

}  // namespace
}  // namespace blowfish

int main(int argc, char** argv) { return blowfish::Run(argc, argv); }
