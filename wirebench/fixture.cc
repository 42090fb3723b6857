#include "fixture.h"

#include <fstream>

#include "data/csv_loader.h"
#include "net/client.h"
#include "util.h"

namespace wirebench {

using blowfish::Dataset;
using blowfish::QueryResponse;
using blowfish::Status;
using blowfish::StatusOr;

namespace {

/// Word-wise FNV-style digest of a tuple vector. It runs inside the timed
/// setup, so it must cost far less than the load it checks.
uint64_t DigestTuples(const std::vector<blowfish::ValueIndex>& tuples) {
  uint64_t h = 0xcbf29ce484222325ULL ^ tuples.size();
  for (blowfish::ValueIndex v : tuples) h = (h ^ v) * 0x100000001b3ULL;
  return h;
}

Status WriteCsv(const Dataset& data, const std::string& path) {
  const blowfish::Domain& domain = data.domain();
  std::string text;
  for (size_t a = 0; a < domain.num_attributes(); ++a) {
    text += (a == 0 ? "" : ",") + domain.attribute(a).name;
  }
  text += "\n";
  for (blowfish::ValueIndex v : data.tuples()) {
    for (size_t a = 0; a < domain.num_attributes(); ++a) {
      if (a > 0) text += ",";
      text += std::to_string(domain.Coordinate(v, a));
    }
    text += "\n";
  }
  std::ofstream out(path, std::ios::binary);
  out << text;
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

}  // namespace

StatusOr<std::vector<TenantTruth>> BuildTruth(const Workload& w,
                                              const std::string& dir) {
  std::vector<TenantTruth> out;
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    BLOWFISH_ASSIGN_OR_RETURN(Dataset data, GenerateTenantData(w, i));
    BLOWFISH_ASSIGN_OR_RETURN(blowfish::Policy policy,
                              BuildPolicy(w.tenants[i], data));
    BLOWFISH_ASSIGN_OR_RETURN(blowfish::Histogram hist,
                              data.CompleteHistogram());
    BLOWFISH_ASSIGN_OR_RETURN(Dataset schema,
                              Dataset::Create(data.domain_ptr(), {}));
    TenantTruth t{std::move(policy), std::move(schema), std::move(hist),
                  data.size(), DigestTuples(data.tuples()),
                  dir + "/tenant" + std::to_string(i) + ".csv"};
    BLOWFISH_RETURN_IF_ERROR(WriteCsv(data, t.csv));
    out.push_back(std::move(t));
  }
  return out;
}

StatusOr<Dataset> LoadTenantData(const TenantTruth& t,
                                 const blowfish::CsvOptions& options) {
  const blowfish::Domain& domain = t.schema.domain();
  std::vector<blowfish::CsvColumnSpec> columns;
  for (size_t a = 0; a < domain.num_attributes(); ++a) {
    columns.push_back({a, domain.attribute(a), 1.0, 0.0});
  }
  BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                            blowfish::LoadCsvFile(t.csv, columns, options));
  if (DigestTuples(data.tuples()) != t.tuples_digest) {
    return Status::Internal("CSV round trip changed the tuples of " + t.csv);
  }
  return data;
}

blowfish::EngineHostOptions HostOptions(uint64_t seed) {
  blowfish::EngineHostOptions options;
  options.num_threads = kPoolThreads;
  options.cache_capacity = kCacheCapacity;
  options.root_seed = blowfish::SplitMix64(seed ^ 0x5e7e5e7eULL);
  return options;
}

std::string TenantScope(const TenantSpec& t) {
  return t.policy_id + "/" + t.dataset_id;
}

ServedHost::~ServedHost() {
  if (server != nullptr) server->Stop();
  server.reset();
  host.reset();
  if (audit != nullptr) audit->Close();
}

StatusOr<std::unique_ptr<ServedHost>> SetupHost(
    const Workload& w, const std::vector<TenantTruth>& truth, uint64_t seed,
    const std::string& audit_path) {
  auto served = std::make_unique<ServedHost>();
  const double start = NowSeconds();
  served->metrics = std::make_unique<blowfish::obs::MetricsRegistry>();
  served->audit = std::make_unique<blowfish::obs::AuditLog>();
  served->audit_path = audit_path;
  if (!served->audit->Open(audit_path)) {
    return Status::Internal("cannot open audit log " + audit_path);
  }
  blowfish::EngineHostOptions options = HostOptions(seed);
  options.metrics = served->metrics.get();
  options.audit = served->audit.get();
  served->host = std::make_unique<blowfish::EngineHost>(options);

  for (size_t i = 0; i < w.tenants.size(); ++i) {
    const TenantSpec& spec = w.tenants[i];
    blowfish::CsvOptions csv_options;
    csv_options.metrics = served->metrics.get();
    const double load_start = NowSeconds();
    BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                              LoadTenantData(truth[i], csv_options));
    served->load_s += NowSeconds() - load_start;
    BLOWFISH_ASSIGN_OR_RETURN(blowfish::Policy policy,
                              BuildPolicy(spec, data));
    blowfish::TenantOptions tenant_options;
    tenant_options.default_session_budget = kSessionBudget;
    BLOWFISH_RETURN_IF_ERROR(served->host->AddTenant(
        spec.policy_id, spec.dataset_id, std::move(policy), std::move(data),
        tenant_options));
  }

  blowfish::ServerOptions server_options;
  server_options.io_threads = kIoThreads;
  server_options.metrics = served->metrics.get();
  BLOWFISH_ASSIGN_OR_RETURN(
      served->server,
      blowfish::BlowfishServer::Start(served->host.get(), server_options));

  // Each tenant's first batch: lazy engine build, first scan, and the
  // warm-up shapes, answered over the wire like any other batch.
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    const TenantSpec& spec = w.tenants[i];
    BLOWFISH_ASSIGN_OR_RETURN(
        auto client,
        blowfish::BlowfishClient::Connect("127.0.0.1", served->port(),
                                          spec.policy_id, spec.dataset_id));
    BLOWFISH_ASSIGN_OR_RETURN(std::vector<QueryResponse> responses,
                              client->SubmitBatchText(WarmupBatch(w, i)));
    for (const QueryResponse& r : responses) {
      if (!r.status.ok()) {
        return Status::Internal("warm-up query failed on " +
                                TenantScope(spec) + ": " +
                                r.status.ToString());
      }
    }
    BLOWFISH_RETURN_IF_ERROR(client->Bye());
    served->warmup.push_back(std::move(responses));
  }
  served->setup_s = NowSeconds() - start;
  return served;
}

uint64_t DigestResponses(const std::vector<QueryResponse>& responses) {
  Digest d;
  d.U64(responses.size());
  for (const QueryResponse& r : responses) {
    d.U64(static_cast<uint64_t>(r.status.code()));
    d.Str(r.status.message());
    d.Str(r.label);
    d.U64(r.values.size());
    for (double v : r.values) d.F64(v);
    d.F64(r.sensitivity);
    const blowfish::BudgetReceipt& receipt = r.receipt;
    d.Str(receipt.session);
    d.Str(receipt.label);
    d.U64(receipt.charge_id);
    d.F64(receipt.charged);
    d.F64(receipt.epsilon);
    d.F64(receipt.remaining);
    d.F64(receipt.budget);
    d.U64(receipt.parallel ? 1 : 0);
    d.U64(receipt.refunded ? 1 : 0);
  }
  return d.value();
}

}  // namespace wirebench
