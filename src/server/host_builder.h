// Builds a fully-registered EngineHost from a serve config, and flushes
// it back — the startup and flush path of every front end:
// `blowfish_cli serve`, `blowfish_cli batch` and the single-shot query
// commands (a one-tenant config built from their flags), and the
// `blowfish_serverd` daemon (tools/blowfish_serverd.cc).
// `blowfish_cli sessions` builds no engine but opens budgets through
// the same step. One implementation, so the front ends cannot drift on
// how tenants are loaded, sessions opened, or ledgers loaded and saved.

#ifndef BLOWFISH_SERVER_HOST_BUILDER_H_
#define BLOWFISH_SERVER_HOST_BUILDER_H_

#include <memory>
#include <string>
#include <utility>

#include "core/dataset.h"
#include "core/policy.h"
#include "engine/budget_accountant.h"
#include "server/engine_host.h"
#include "server/serve_config.h"
#include "util/status.h"

namespace blowfish {

/// Reads and parses a serve config file.
StatusOr<ServeConfig> LoadServeConfigFile(const std::string& path);

/// Loads one tenant's policy spec and CSV according to its config
/// block.
StatusOr<std::pair<Policy, Dataset>> LoadTenantData(
    const TenantConfig& tenant);

/// The budget half of standing up a tenant: refuses a `budget =` that
/// is not finite and >= 0, opens each `session =` line on `accountant`,
/// then loads the `ledger =` file over them — the file carries spend
/// from earlier processes and overrides the opening balances; a missing
/// file is a cold start. Errors name the tenant.
Status OpenTenantSessions(const TenantConfig& tenant,
                          BudgetAccountant& accountant);

/// Builds the host and registers every tenant from the config, running
/// OpenTenantSessions on each tenant engine's accountant. Tenant keys
/// are (policy file, tenant name). Fails if any tenant's engine refuses
/// its policy, data or budget (EngineHost::AddTenant).
StatusOr<std::unique_ptr<EngineHost>> BuildHostFromConfig(
    const ServeConfig& config);

/// Flushes the host's persistent state back to the config's files: each
/// tenant's budget ledger to its `ledger =` file. The serving front ends
/// run this on exit — blowfish_serverd runs it from its SIGTERM drain
/// path, so a terminated daemon's spend survives the restart.
Status SaveHostState(EngineHost& host, const ServeConfig& config);

}  // namespace blowfish

#endif  // BLOWFISH_SERVER_HOST_BUILDER_H_
