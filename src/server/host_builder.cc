#include "server/host_builder.h"

#include <utility>
#include <vector>

#include "core/policy_spec.h"
#include "data/csv_loader.h"
#include "util/text_file.h"

namespace blowfish {

StatusOr<ServeConfig> LoadServeConfigFile(const std::string& path) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  return ParseServeConfig(text);
}

StatusOr<std::pair<Policy, Dataset>> LoadTenantData(
    const TenantConfig& tenant) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string spec_text,
                            ReadTextFile(tenant.policy_file));
  BLOWFISH_ASSIGN_OR_RETURN(ParsedPolicy parsed, ParsePolicySpec(spec_text));
  const Policy& policy = parsed.policy;
  if (tenant.columns.size() != policy.domain().num_attributes()) {
    return Status::InvalidArgument(
        "tenant '" + tenant.name +
        "': number of columns must match the policy's attributes");
  }
  std::vector<CsvColumnSpec> specs;
  for (size_t i = 0; i < tenant.columns.size(); ++i) {
    CsvColumnSpec spec;
    spec.column = tenant.columns[i];
    spec.attribute = policy.domain().attribute(i);
    if (tenant.bin_width.has_value()) spec.bin_width = *tenant.bin_width;
    specs.push_back(spec);
  }
  BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                            LoadCsvFile(tenant.csv_file, specs));
  return std::make_pair(std::move(parsed.policy), std::move(data));
}

Status OpenTenantSessions(const TenantConfig& tenant,
                          BudgetAccountant& accountant) {
  auto in_tenant = [&tenant](const Status& status) {
    return Status(status.code(),
                  "tenant '" + tenant.name + "': " + status.message());
  };
  Status valid = ValidateEpsilon(tenant.budget, "budget");
  if (!valid.ok()) return in_tenant(valid);
  for (const auto& [name, budget] : tenant.sessions) {
    Status opened = accountant.OpenSession(name, budget);
    if (!opened.ok()) return in_tenant(opened);
  }
  if (tenant.ledger_file.empty()) return Status::OK();
  Status loaded = accountant.LoadFromFile(tenant.ledger_file);
  if (loaded.ok() || loaded.code() == StatusCode::kNotFound) {
    return Status::OK();
  }
  return in_tenant(loaded);
}

StatusOr<std::unique_ptr<EngineHost>> BuildHostFromConfig(
    const ServeConfig& config) {
  EngineHostOptions host_options;
  host_options.num_threads = config.threads;
  host_options.cache_capacity = config.cache_capacity;
  if (config.seed.has_value()) host_options.root_seed = *config.seed;
  auto host = std::make_unique<EngineHost>(host_options);
  for (const TenantConfig& tenant : config.tenants) {
    BLOWFISH_ASSIGN_OR_RETURN(auto loaded, LoadTenantData(tenant));
    TenantOptions tenant_options;
    tenant_options.default_session_budget = tenant.budget;
    tenant_options.root_seed = tenant.seed;
    BLOWFISH_RETURN_IF_ERROR(
        host->AddTenant(tenant.policy_file, tenant.name,
                        std::move(loaded.first), std::move(loaded.second),
                        tenant_options));
    BLOWFISH_ASSIGN_OR_RETURN(ReleaseEngine * engine,
                              host->engine(tenant.policy_file, tenant.name));
    BLOWFISH_RETURN_IF_ERROR(
        OpenTenantSessions(tenant, engine->accountant()));
  }
  return host;
}

Status SaveHostState(EngineHost& host, const ServeConfig& config) {
  for (const TenantConfig& tenant : config.tenants) {
    if (tenant.ledger_file.empty()) continue;
    BLOWFISH_ASSIGN_OR_RETURN(ReleaseEngine * engine,
                              host.engine(tenant.policy_file, tenant.name));
    BLOWFISH_RETURN_IF_ERROR(
        engine->accountant().SaveToFile(tenant.ledger_file));
  }
  return Status::OK();
}

}  // namespace blowfish
