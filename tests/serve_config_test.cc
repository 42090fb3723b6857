#include "server/serve_config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/budget_accountant.h"
#include "server/engine_host.h"
#include "server/host_builder.h"

namespace blowfish {
namespace {

/// The policy spec both tenants serve; tenant keys are (spec, name).
std::string SpecPath() {
  return ::testing::TempDir() + "/serve_config_spec.txt";
}

/// A host config with two tenants, `a` and `b`, over one line-graph
/// spec and a 200-row CSV. `a_extra` is appended to tenant a's block.
std::string TwoTenantConfig(const std::string& a_extra) {
  std::ofstream(SpecPath()) << "attribute = v : 50 : 1.0\ngraph = line\n";
  const std::string csv = ::testing::TempDir() + "/serve_config_data.csv";
  {
    std::ofstream rows(csv);
    for (int i = 0; i < 200; ++i) rows << (i * 7) % 50 << "\n";
  }
  return "threads = 1\n"
         "tenant = a\npolicy = " + SpecPath() + "\ncsv = " + csv + "\n" +
         a_extra +
         "tenant = b\npolicy = " + SpecPath() + "\ncsv = " + csv + "\n";
}

StatusOr<std::unique_ptr<EngineHost>> BuildHost(const std::string& config) {
  BLOWFISH_ASSIGN_OR_RETURN(ServeConfig parsed, ParseServeConfig(config));
  return BuildHostFromConfig(parsed);
}

TEST(ServeConfigTest, ParsesHostAndTenantBlocks) {
  const std::string text =
      "# host section\n"
      "threads = 8\n"
      "cache_capacity = 512\n"
      "seed = 99\n"
      "\n"
      "tenant = census\n"
      "policy = census_policy.txt\n"
      "csv = census.csv\n"
      "columns = 0, 2\n"
      "bin_width = 5.0\n"
      "budget = 4.5\n"
      "seed = 7\n"
      "requests = census_reqs.txt\n"
      "ledger = census.ledger\n"
      "session = alice : 2.5\n"
      "session = bob : 1.0\n"
      "\n"
      "tenant = salaries\n"
      "policy = salary_policy.txt\n"
      "csv = salaries.csv  # trailing comment\n";
  auto config = ParseServeConfig(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 8u);
  EXPECT_EQ(config->cache_capacity, 512u);
  ASSERT_TRUE(config->seed.has_value());
  EXPECT_EQ(*config->seed, 99u);
  ASSERT_EQ(config->tenants.size(), 2u);

  const TenantConfig& census = config->tenants[0];
  EXPECT_EQ(census.name, "census");
  EXPECT_EQ(census.policy_file, "census_policy.txt");
  EXPECT_EQ(census.csv_file, "census.csv");
  EXPECT_EQ(census.columns, (std::vector<size_t>{0, 2}));
  ASSERT_TRUE(census.bin_width.has_value());
  EXPECT_DOUBLE_EQ(*census.bin_width, 5.0);
  EXPECT_DOUBLE_EQ(census.budget, 4.5);
  ASSERT_TRUE(census.seed.has_value());
  EXPECT_EQ(*census.seed, 7u);
  EXPECT_EQ(census.requests_file, "census_reqs.txt");
  EXPECT_EQ(census.ledger_file, "census.ledger");
  ASSERT_EQ(census.sessions.size(), 2u);
  EXPECT_EQ(census.sessions[0].first, "alice");
  EXPECT_DOUBLE_EQ(census.sessions[0].second, 2.5);
  EXPECT_EQ(census.sessions[1].first, "bob");

  const TenantConfig& salaries = config->tenants[1];
  EXPECT_EQ(salaries.name, "salaries");
  EXPECT_EQ(salaries.csv_file, "salaries.csv");  // comment stripped
  // Defaults for unspecified tenant keys.
  EXPECT_EQ(salaries.columns, (std::vector<size_t>{0}));
  EXPECT_FALSE(salaries.bin_width.has_value());
  EXPECT_DOUBLE_EQ(salaries.budget, 10.0);
  EXPECT_FALSE(salaries.seed.has_value());
  EXPECT_TRUE(salaries.requests_file.empty());
  EXPECT_TRUE(salaries.ledger_file.empty());
}

TEST(ServeConfigTest, RejectsMalformedInput) {
  // No tenants at all.
  EXPECT_FALSE(ParseServeConfig("threads = 4\n").ok());
  // Tenant keys before any tenant line.
  EXPECT_FALSE(ParseServeConfig("policy = p.txt\n").ok());
  // Unknown keys, host or tenant.
  EXPECT_FALSE(ParseServeConfig("frobnicate = 1\n").ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbogus = 1\n").ok());
  // Missing '='.
  EXPECT_FALSE(ParseServeConfig("tenant t\n").ok());
  // Malformed numbers. NaN/inf budgets would silently disable budget
  // enforcement, so non-finite values are rejected at parse time.
  EXPECT_FALSE(ParseServeConfig("threads = many\n").ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbudget = nan\n")
          .ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbudget = inf\n")
          .ok());
  EXPECT_FALSE(ParseServeConfig(
                   "tenant = t\npolicy = p\ncsv = c\nsession = a : nan\n")
                   .ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbudget = x\n").ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nseed = -1\n").ok());
  // Out-of-range integers must error, not clamp to ULLONG_MAX.
  EXPECT_FALSE(ParseServeConfig("tenant = t\npolicy = p\ncsv = c\n"
                                "seed = 99999999999999999999999\n")
                   .ok());
  // Tenant missing required files.
  EXPECT_FALSE(ParseServeConfig("tenant = t\npolicy = p.txt\n").ok());
  EXPECT_FALSE(ParseServeConfig("tenant = t\ncsv = d.csv\n").ok());
  // Duplicate tenant names.
  EXPECT_FALSE(ParseServeConfig("tenant = t\npolicy = p\ncsv = c\n"
                                "tenant = t\npolicy = p\ncsv = c\n")
                   .ok());
  // The retired `scan` key is an unknown tenant key, whatever its value.
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nscan = fast\n")
          .ok());
  const auto retired_scan =
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nscan = shared\n");
  ASSERT_FALSE(retired_scan.ok());
  EXPECT_EQ(retired_scan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retired_scan.status().message().find("unknown tenant key 'scan'"),
            std::string::npos)
      << retired_scan.status().message();
  // The retired `cache_file` key is an unknown host key: S(f, P) has no
  // file source.
  const auto retired_cache =
      ParseServeConfig("cache_file = x\ntenant = t\npolicy = p\ncsv = c\n");
  ASSERT_FALSE(retired_cache.ok());
  EXPECT_EQ(retired_cache.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      retired_cache.status().message().find("unknown host key 'cache_file'"),
      std::string::npos)
      << retired_cache.status().message();
  // Malformed session declarations.
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nsession = alice\n")
          .ok());
  EXPECT_FALSE(ParseServeConfig(
                   "tenant = t\npolicy = p\ncsv = c\nsession = : 1.0\n")
                   .ok());
}

TEST(ServeConfigTest, CommentsAndBlankLinesIgnored) {
  auto config = ParseServeConfig(
      "# a comment\n"
      "\n"
      "   \n"
      "tenant = t   # tenant comment\n"
      "policy = p.txt\n"
      "csv = d.csv\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->tenants.size(), 1u);
  EXPECT_EQ(config->tenants[0].name, "t");
}

TEST(ServeConfigTest, BuildHostRefusesATenantItCannotServe) {
  // A negative budget is refused by the tenant's engine, whether or not
  // the tenant's block opens a session.
  for (const std::string sessions : {"", "session = s : 1\n"}) {
    auto host = BuildHost(TwoTenantConfig("budget = -1\n" + sessions));
    ASSERT_FALSE(host.ok()) << "sessions: '" << sessions << "'";
    EXPECT_EQ(host.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(host.status().message().find("default_session_budget"),
              std::string::npos)
        << host.status().message();
  }
}

TEST(ServeConfigTest, OpenTenantSessionsOpensSessionsThenLoadsTheLedger) {
  // The budget step BuildHostFromConfig runs on each engine's
  // accountant and `blowfish_cli sessions` on a bare one.
  TenantConfig tenant;
  tenant.name = "a";
  tenant.budget = -1.0;
  {
    BudgetAccountant accountant(10.0);
    const Status refused = OpenTenantSessions(tenant, accountant);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.message().find("tenant 'a': budget"),
              std::string::npos)
        << refused.message();
  }
  const std::string ledger =
      ::testing::TempDir() + "/open_tenant_sessions.ledger";
  std::remove(ledger.c_str());
  tenant.budget = 10.0;
  tenant.sessions = {{"s", 2.5}};
  tenant.ledger_file = ledger;
  {
    // No ledger yet: a cold start at the session line's balance.
    BudgetAccountant accountant(tenant.budget);
    ASSERT_TRUE(OpenTenantSessions(tenant, accountant).ok());
    EXPECT_EQ(accountant.Spent("s"), 0.0);
    EXPECT_EQ(accountant.Remaining("s"), 2.5);
    ASSERT_TRUE(accountant.ChargeSequential("s", 1.0).ok());
    ASSERT_TRUE(accountant.SaveToFile(ledger).ok());
  }
  // The ledger loads over the session the config opened.
  BudgetAccountant accountant(tenant.budget);
  ASSERT_TRUE(OpenTenantSessions(tenant, accountant).ok());
  EXPECT_EQ(accountant.Spent("s"), 1.0);
  EXPECT_EQ(accountant.Remaining("s"), 1.5);
}

TEST(ServeConfigTest, SessionLineOpensThatSession) {
  auto host = BuildHost(TwoTenantConfig("session = s : 2.5\n"));
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  const std::vector<EngineHost::TenantBudget> budgets =
      (*host)->BudgetSnapshot();
  // Tenant b has served nothing and opened no session.
  ASSERT_EQ(budgets.size(), 1u);
  EXPECT_EQ(budgets[0].session, "s");
  EXPECT_EQ(budgets[0].budget, 2.5);
  EXPECT_EQ(budgets[0].spent, 0.0);
}

TEST(ServeConfigTest, SaveHostStateWritesTheSpendTheNextHostLoads) {
  const std::string ledger = ::testing::TempDir() + "/serve_config.ledger";
  std::remove(ledger.c_str());
  auto config = ParseServeConfig(
      TwoTenantConfig("session = s : 2.5\nledger = " + ledger + "\n"));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  {
    auto host = BuildHostFromConfig(*config);
    ASSERT_TRUE(host.ok()) << host.status().ToString();
    auto served = (*host)->ServeBatch(
        SpecPath(), "a",
        EngineHost::ParseBatchText("histogram eps=0.5 session=s\n").value());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE((*served)[0].status.ok());
    ASSERT_TRUE(SaveHostState(**host, *config).ok());
  }
  auto reloaded = BuildHostFromConfig(*config);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto engine = (*reloaded)->engine(SpecPath(), "a");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->accountant().Spent("s"), 0.5);
}

}  // namespace
}  // namespace blowfish
