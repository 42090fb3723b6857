// Setup: the seeded tenant ground truth, its CSV files, and one served
// host — EngineHost + BlowfishServer on loopback with every tenant's
// data loaded through LoadCsvFile and every tenant's warm-up batch
// answered over the wire. A run sets up several hosts (the measured one,
// the fresh one the correctness replay runs on, ...) and reports the
// median setup time.

#ifndef WIREBENCH_FIXTURE_H_
#define WIREBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/csv_loader.h"
#include "engine/release_engine.h"
#include "net/server.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "server/engine_host.h"
#include "util/status.h"
#include "workload.h"

namespace wirebench {

/// Generates every tenant's data, builds its policy and histogram, and
/// writes the data as CSV under `dir` (a header, then one row of integer
/// levels per tuple); the tuples are then dropped.
blowfish::StatusOr<std::vector<TenantTruth>> BuildTruth(
    const Workload& w, const std::string& dir);

/// Loads tenant `t`'s CSV (LoadCsvFile) and checks it against the
/// generated tuples' digest.
blowfish::StatusOr<blowfish::Dataset> LoadTenantData(
    const TenantTruth& t, const blowfish::CsvOptions& options);

/// The EngineHost options every host of a run shares (same root seed, so
/// every host replays the same noise streams).
blowfish::EngineHostOptions HostOptions(uint64_t seed);

/// "policy/dataset" — the tenant's metrics, HEALTH and audit scope.
std::string TenantScope(const TenantSpec& t);

struct ServedHost {
  ServedHost() = default;
  ServedHost(const ServedHost&) = delete;
  ServedHost& operator=(const ServedHost&) = delete;
  /// Stops the server before the host drains its pool.
  ~ServedHost();

  // Declaration order is destruction order reversed: the server goes
  // first, then the host, then the sinks both report into.
  std::unique_ptr<blowfish::obs::MetricsRegistry> metrics;
  std::unique_ptr<blowfish::obs::AuditLog> audit;
  std::string audit_path;
  std::unique_ptr<blowfish::EngineHost> host;
  std::unique_ptr<blowfish::BlowfishServer> server;

  uint16_t port() const { return server->port(); }

  /// Wall time of the whole setup and of its LoadCsvFile calls.
  double setup_s = 0.0;
  double load_s = 0.0;
  /// Each tenant's warm-up responses (part of the session spend).
  std::vector<std::vector<blowfish::QueryResponse>> warmup;
};

/// Builds, loads, starts and warms one host. `audit_path` receives the
/// host's audit log.
blowfish::StatusOr<std::unique_ptr<ServedHost>> SetupHost(
    const Workload& w, const std::vector<TenantTruth>& truth, uint64_t seed,
    const std::string& audit_path);

/// Digest of a batch's responses over every field the wire carries
/// except cache_hit (which depends on interleaving).
uint64_t DigestResponses(const std::vector<blowfish::QueryResponse>& r);

}  // namespace wirebench

#endif  // WIREBENCH_FIXTURE_H_
