// The three traffic mixes: tenant specs, seeded data, policies, and the
// deterministic batch-text generators the client threads draw from.
//
// Everything here is a pure function of (workload, seed): the datasets
// are a fixed corpus, and the same seed yields byte-identical batch
// texts, which is what the generator self-test (SelfTestGenerators)
// pins.

#ifndef WIREBENCH_WORKLOAD_H_
#define WIREBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/policy.h"
#include "engine/ops/query_op.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace wirebench {

/// Session budget for every tenant: large enough that nothing is
/// refused, and a power of two so dyadic charges sum exactly.
constexpr double kSessionBudget = 1048576.0;
/// Server shape: engine pool workers, reactor threads, cache entries.
constexpr size_t kPoolThreads = 4;
constexpr int kIoThreads = 2;
constexpr size_t kCacheCapacity = 1024;

enum class DataKind { kAdultCapitalLoss, kTwitterLatitude, kTwitterGrid };
enum class GraphKind { kLine, kDistance, kGridPartition };

struct TenantSpec {
  std::string policy_id;
  std::string dataset_id;
  DataKind data = DataKind::kTwitterLatitude;
  size_t rows = 0;
  GraphKind graph = GraphKind::kLine;
  /// Distance threshold (domain scale units, km) for kDistance.
  double theta = 0.0;
  /// Cells per axis for kGridPartition.
  std::vector<uint64_t> cells;
  /// Closed value intervals whose counts are pinned from the data.
  std::vector<std::pair<uint64_t, uint64_t>> pinned;
};

/// One client thread's connection plan: which tenant it talks to, how
/// many batches it keeps in flight, and how many batches the connection
/// carries before BYE (0 = until the measured phase ends).
struct SessionPlan {
  size_t tenant = 0;
  int depth = 1;
  size_t batches = 0;
  std::string session;  // budget session charged by every query
};

struct Workload {
  std::string name;
  std::vector<TenantSpec> tenants;
  int client_threads = 1;
};

/// The workload called `name`, or InvalidArgument naming the known ones.
blowfish::StatusOr<Workload> MakeWorkload(const std::string& name);

/// A tenant's ground truth, built from the generated data (not from the
/// server): the policy every host serves and the data's exact complete
/// histogram — the oracle the error and noise checks use. The generated
/// tuples themselves live only in the tenant's CSV file (and in the hosts
/// that load it), so the oracle adds nothing to the process's peak RSS
/// beyond its histograms.
struct TenantTruth {
  blowfish::Policy policy;
  /// The tenant's domain with no rows (what QueryExecContext needs: only
  /// kmeans, which no workload sends, reads ctx.data).
  blowfish::Dataset schema;
  blowfish::Histogram hist;
  size_t rows = 0;
  /// DigestTuples of the generated tuples; every load is checked by it.
  uint64_t tuples_digest = 0;
  /// The CSV file setup loads the tenant from.
  std::string csv;
};

/// The datasets are a fixed corpus, like the paper's files: --seed
/// drives the traffic only. (Constrained sensitivity searches cost more
/// or less depending on the pinned answers, so a per-seed corpus made
/// cold_shapes' throughput a property of the drawn data.)
constexpr uint64_t kCorpusSeed = 20140612;

/// Generates tenant `index`'s dataset from the corpus seed.
blowfish::StatusOr<blowfish::Dataset> GenerateTenantData(const Workload& w,
                                                         size_t index);

/// The tenant's policy over `data` (pinned constraints take their
/// answers from `data`).
blowfish::StatusOr<blowfish::Policy> BuildPolicy(const TenantSpec& spec,
                                                 const blowfish::Dataset& data);

/// The deterministic warm-up batch each setup sends to each tenant: one
/// query of every kind the tenant's traffic uses (and, on tenant_mix's
/// partition tenants, every cell shape), so engines are built, the
/// histogram scanned, and the traffic's sensitivity shapes cached.
std::string WarmupBatch(const Workload& w, size_t tenant);

/// One client thread's infinite, seeded traffic stream.
class Traffic {
 public:
  Traffic(const Workload& w, uint64_t seed, int thread);

  /// The thread's next connection.
  SessionPlan NextSession();
  /// The next batch text on `plan`'s connection.
  std::string NextBatch(const SessionPlan& plan);

 private:
  /// One query line — or, for a parallel cell_histogram group, up to
  /// `max_lines` member lines.
  std::string Query(const TenantSpec& t, const std::string& session,
                    int max_lines, int* group_counter);

  const Workload& w_;
  int thread_;
  blowfish::Random rng_;
  /// tenant_mix session draws: sessions so far and the seeded shifts of
  /// the tenant / depth / length sequences.
  uint64_t sessions_ = 0;
  double offsets_[3] = {0.0, 0.0, 0.0};
};

/// Kinds whose exact answer follows from the histogram (err_ratio).
bool ErrKind(const std::string& kind);

/// Upper bound on the RESULT frame payload bytes of a query's answer on
/// its tenant (values at 25 bytes each plus envelope).
size_t ResultBytesBound(const blowfish::QueryOp& op, const TenantTruth& t);

/// Generator self-test: for every client thread, the first batches of
/// two streams built from the same seed are byte-identical; every line
/// parses through EngineHost::ParseBatchText and passes its op's
/// Validate on its tenant's policy; and no answer can exceed the frame
/// cap. Returns the number of lines checked.
blowfish::StatusOr<size_t> SelfTestGenerators(
    const Workload& w, uint64_t seed,
    const std::vector<TenantTruth>& truth);

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOAD_H_
