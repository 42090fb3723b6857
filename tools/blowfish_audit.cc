// blowfish_audit — replay a privacy audit log and prove it matches
// the saved budget ledger.
//
//   blowfish_audit --audit a.jsonl [--tenant p.txt/alice]
//                  [--ledger spend.ledger]
//
// Replays every budget-affecting event the daemon logged (--audit_file)
// through a fresh BudgetAccountant, in log order — the log is written
// in exact ledger-operation order, so the replay mints the same charge
// ids and reproduces the same double arithmetic. With --ledger, the
// rebuilt accountant's serialization is byte-compared against the
// ledger file the drained daemon saved: exit 0 means the audit log
// fully accounts for every epsilon in the ledger; any divergence
// (truncated, reordered, or edited log) exits 1 with the diff.
// Without --ledger, the rebuilt ledger is printed instead, for eyes or
// for diffing by hand.
//
// --tenant selects which tenant's events to replay; the scope is the
// same {tenant=...} label the daemon's metrics use:
// "<policy_path>/<tenant_name>" as registered by its serve config.
// Omitted, the replay covers events that carry no tenant field (an
// un-scoped, single-accountant log). One audit file can hold many
// tenants' events — run once per tenant.
//
// See src/server/audit_replay.h for the replay contract and its
// restart caveat (spend restored via a pre-existing ledger file at
// daemon startup predates the log and is out of scope).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "server/audit_replay.h"
#include "util/text_file.h"

namespace blowfish {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Run(int argc, char** argv) {
  std::string audit_path;
  std::string ledger_path;
  std::string tenant;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--audit") {
      const char* v = value();
      if (v == nullptr) return Fail("--audit needs a file");
      audit_path = v;
    } else if (flag == "--ledger") {
      const char* v = value();
      if (v == nullptr) return Fail("--ledger needs a file");
      ledger_path = v;
    } else if (flag == "--tenant") {
      const char* v = value();
      if (v == nullptr) return Fail("--tenant needs a scope");
      tenant = v;
    } else {
      return Fail("unknown flag '" + flag +
                  "' (usage: blowfish_audit --audit <file> "
                  "[--tenant <policy_path/name>] [--ledger <file>])");
    }
  }
  if (audit_path.empty()) return Fail("--audit <file> is required");

  std::ifstream audit(audit_path);
  if (!audit) return Fail("cannot read --audit " + audit_path);

  if (ledger_path.empty()) {
    // Replay-only: rebuild and print.
    obs::MetricsRegistry scratch;
    obs::AuditLog silent;
    BudgetAccountant accountant(0.0, &scratch, "", &silent);
    auto stats = ReplayAuditLog(audit, tenant, &accountant);
    if (!stats.ok()) return Fail(stats.status().ToString());
    std::ostringstream rebuilt;
    Status saved = accountant.Save(rebuilt);
    if (!saved.ok()) return Fail(saved.ToString());
    std::fputs(rebuilt.str().c_str(), stdout);
    std::printf("# replayed %zu opens, %zu charges, %zu refunds, "
                "%zu settles, %zu refusals (%zu lines skipped)\n",
                stats->opens, stats->charges, stats->refunds,
                stats->settles, stats->refusals, stats->skipped);
    return 0;
  }

  auto ledger = ReadTextFile(ledger_path);
  if (!ledger.ok()) return Fail(ledger.status().ToString());
  auto stats = VerifyAuditReplay(audit, tenant, *ledger);
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::printf("audit log replays to the saved ledger byte for byte\n"
              "# %zu opens, %zu charges, %zu refunds, %zu settles, "
              "%zu refusals (%zu lines skipped)\n",
              stats->opens, stats->charges, stats->refunds,
              stats->settles, stats->refusals, stats->skipped);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main(int argc, char** argv) { return blowfish::Run(argc, argv); }
