#include "server/serve_config.h"

#include <cctype>
#include <set>
#include <sstream>

#include "util/parse.h"

namespace blowfish {

namespace {

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

}  // namespace

Status ApplyHostKey(const std::string& key, const std::string& value,
                    const std::string& context, ServeConfig* config) {
  if (key == "threads") {
    BLOWFISH_ASSIGN_OR_RETURN(uint64_t threads,
                              ParseNonNegativeInt(value, context));
    config->threads = static_cast<size_t>(threads);
    return Status::OK();
  }
  if (key == "cache_capacity") {
    BLOWFISH_ASSIGN_OR_RETURN(uint64_t cap,
                              ParseNonNegativeInt(value, context));
    config->cache_capacity = static_cast<size_t>(cap);
    return Status::OK();
  }
  if (key == "seed") {
    BLOWFISH_ASSIGN_OR_RETURN(uint64_t seed,
                              ParseNonNegativeInt(value, context));
    config->seed = seed;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown host key " + context +
                                 " (tenant keys must follow a 'tenant =' "
                                 "line)");
}

Status ApplyTenantKey(const std::string& key, const std::string& value,
                      const std::string& context, TenantConfig* tenant) {
  if (key == "policy") {
    tenant->policy_file = value;
    return Status::OK();
  }
  if (key == "csv") {
    tenant->csv_file = value;
    return Status::OK();
  }
  if (key == "columns") {
    tenant->columns.clear();
    std::istringstream in(value);
    std::string token;
    while (std::getline(in, token, ',')) {
      BLOWFISH_ASSIGN_OR_RETURN(uint64_t column,
                                ParseNonNegativeInt(Trim(token), context));
      tenant->columns.push_back(static_cast<size_t>(column));
    }
    if (tenant->columns.empty()) {
      return Status::InvalidArgument("empty column list for " + context);
    }
    return Status::OK();
  }
  if (key == "bin_width") {
    BLOWFISH_ASSIGN_OR_RETURN(double width, ParseFiniteDouble(value, context));
    tenant->bin_width = width;
    return Status::OK();
  }
  if (key == "budget") {
    BLOWFISH_ASSIGN_OR_RETURN(tenant->budget, ParseFiniteDouble(value, context));
    return Status::OK();
  }
  if (key == "seed") {
    BLOWFISH_ASSIGN_OR_RETURN(uint64_t seed,
                              ParseNonNegativeInt(value, context));
    tenant->seed = seed;
    return Status::OK();
  }
  if (key == "requests") {
    tenant->requests_file = value;
    return Status::OK();
  }
  if (key == "ledger") {
    tenant->ledger_file = value;
    return Status::OK();
  }
  if (key == "session") {
    // `session = name : budget`
    const size_t colon = value.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("expected 'name : budget' for " +
                                     context);
    }
    const std::string name = Trim(value.substr(0, colon));
    if (name.empty()) {
      return Status::InvalidArgument("empty session name for " + context);
    }
    BLOWFISH_ASSIGN_OR_RETURN(
        double budget, ParseFiniteDouble(Trim(value.substr(colon + 1)), context));
    tenant->sessions.emplace_back(name, budget);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown tenant key " + context);
}

StatusOr<ServeConfig> ParseServeConfig(const std::string& text) {
  ServeConfig config;
  TenantConfig* current = nullptr;
  std::set<std::string> names;
  std::istringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected 'key = value' on line " +
                                     std::to_string(line_no));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    const std::string context =
        "'" + key + "' on line " + std::to_string(line_no);
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("empty key or value on line " +
                                     std::to_string(line_no));
    }
    if (key == "tenant") {
      if (!names.insert(value).second) {
        return Status::InvalidArgument("duplicate tenant '" + value +
                                       "' on line " +
                                       std::to_string(line_no));
      }
      config.tenants.emplace_back();
      current = &config.tenants.back();
      current->name = value;
      continue;
    }
    BLOWFISH_RETURN_IF_ERROR(
        current == nullptr ? ApplyHostKey(key, value, context, &config)
                           : ApplyTenantKey(key, value, context, current));
  }
  if (config.tenants.empty()) {
    return Status::InvalidArgument("config declares no tenants");
  }
  for (const TenantConfig& tenant : config.tenants) {
    if (tenant.policy_file.empty() || tenant.csv_file.empty()) {
      return Status::InvalidArgument("tenant '" + tenant.name +
                                     "' needs both 'policy' and 'csv'");
    }
  }
  return config;
}

}  // namespace blowfish
