// Builds a fully-registered EngineHost from a serve config — the
// common startup path of `blowfish_cli serve`, `blowfish_cli sessions`,
// and the `blowfish_serverd` daemon (tools/blowfish_serverd.cc). One
// implementation so the three front ends cannot drift on how tenants
// are loaded, sessions opened, or persistence wired.

#ifndef BLOWFISH_SERVER_HOST_BUILDER_H_
#define BLOWFISH_SERVER_HOST_BUILDER_H_

#include <memory>
#include <string>
#include <utility>

#include "core/dataset.h"
#include "core/policy.h"
#include "server/engine_host.h"
#include "server/serve_config.h"
#include "util/status.h"

namespace blowfish {

/// Reads a whole file; NotFound when it cannot be opened.
StatusOr<std::string> ReadTextFile(const std::string& path);

/// Reads and parses a serve config file.
StatusOr<ServeConfig> LoadServeConfigFile(const std::string& path);

/// Loads one tenant's policy spec and CSV according to its config
/// block.
StatusOr<std::pair<Policy, Dataset>> LoadTenantData(
    const TenantConfig& tenant);

/// Builds the host and registers every tenant from the config: opens
/// each tenant's declared budget sessions and loads per-tenant ledgers
/// (missing = no prior spend). Tenant keys are (policy file, tenant
/// name). Fails if any tenant's engine refuses its policy, data or
/// budget (EngineHost::AddTenant).
StatusOr<std::unique_ptr<EngineHost>> BuildHostFromConfig(
    const ServeConfig& config);

/// Flushes the host's persistent state back to the config's files: each
/// tenant's budget ledger to its `ledger =` file. The serving front ends
/// run this on exit — blowfish_serverd runs it from its SIGTERM drain
/// path, so a terminated daemon's spend survives the restart.
Status SaveHostState(EngineHost& host, const ServeConfig& config);

}  // namespace blowfish

#endif  // BLOWFISH_SERVER_HOST_BUILDER_H_
