// Served-bytes pin: every registered QueryOp served through ReleaseEngine
// at pool sizes {0, 1, 8}, on line and grid fixtures (unconstrained and
// constrained twins of each), must reproduce recorded transcript
// digests — FNV-1a hashes over values, statuses, sensitivities and full
// budget receipts. Each transcript is pinned as three digests: one over
// every response except kmeans's and quadtree's, one over kmeans's
// alone and one over quadtree's alone. The rest digests were recorded
// from the engine as it stood before kmeans was served from h(D); the
// kmeans digests were re-recorded then, because that change re-keyed
// kmeans's noise on purpose, and the grid fixtures' quadtree digests
// were re-recorded when quadtree nodes took counter-based draws. Every
// later deletion in the serving path is checked against the same bytes,
// not merely against another path of the same build. A change that
// moves served bytes on purpose re-records the digests it moves and
// says so.
//
// A final test drives the same contract over the wire: a daemon tenant
// answers the whole-registry batch with the transcript of the in-process
// engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;
constexpr double kEps = 0.25;

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed = 11) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

/// One batch line per registered kind, each with its own ExampleArgs —
/// enumerating the registry keeps this suite honest when a new op file
/// lands: the new kind is covered (and moves the digests) with zero
/// edits here.
std::string WholeRegistryBatchText() {
  std::string text;
  for (const std::string& kind :
       QueryOpRegistry::Global().KnownKinds()) {
    auto op = QueryOpRegistry::Global().Create(kind);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    text += kind + " eps=" + std::to_string(kEps) + " label=" + kind;
    const std::string args = (*op)->ExampleArgs();
    if (!args.empty()) text += " " + args;
    text += "\n";
  }
  return text;
}

std::vector<QueryRequest> WholeRegistryBatch() {
  auto requests = ParseBatchRequests(WholeRegistryBatchText());
  EXPECT_TRUE(requests.ok()) << requests.status().ToString();
  return std::move(*requests);
}

/// The part of a transcript a digest covers: every response but
/// kmeans's and quadtree's, kmeans's alone, or quadtree's alone (the
/// whole-registry batch labels each request with its kind).
enum class Part { kRest, kKMeans, kQuadtree };

Part PartOf(const QueryResponse& r) {
  if (r.label == "kmeans") return Part::kKMeans;
  if (r.label == "quadtree") return Part::kQuadtree;
  return Part::kRest;
}

/// FNV-1a over one part of a transcript: status code and message,
/// label, payload bits, sensitivity bits and every receipt field.
/// Doubles hash by bit pattern, so the digest is exactly as strict as
/// operator== on each value.
class TranscriptDigest {
 public:
  explicit TranscriptDigest(Part part) : part_(part) {}

  void Add(const std::vector<QueryResponse>& responses) {
    std::vector<const QueryResponse*> kept;
    for (const QueryResponse& r : responses) {
      if (PartOf(r) == part_) kept.push_back(&r);
    }
    U64(kept.size());
    for (const QueryResponse* r : kept) {
      U64(static_cast<uint64_t>(r->status.code()));
      Str(r->status.message());
      Str(r->label);
      U64(r->values.size());
      for (double v : r->values) F64(v);
      F64(r->sensitivity);
      const BudgetReceipt& receipt = r->receipt;
      Str(receipt.session);
      Str(receipt.label);
      U64(receipt.charge_id);
      F64(receipt.charged);
      F64(receipt.epsilon);
      F64(receipt.remaining);
      F64(receipt.budget);
      U64(receipt.parallel ? 1 : 0);
      U64(receipt.refunded ? 1 : 0);
    }
  }

  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) { h_ = (h_ ^ b) * 1099511628211ull; }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }

  Part part_;
  uint64_t h_ = 14695981039346656037ull;
};

/// The three digests of a transcript.
struct Digests {
  uint64_t rest;
  uint64_t kmeans;
  uint64_t quadtree;
};

/// Accumulates the three digests over consecutive batches.
class SplitDigest {
 public:
  void Add(const std::vector<QueryResponse>& responses) {
    rest_.Add(responses);
    kmeans_.Add(responses);
    quadtree_.Add(responses);
  }
  Digests value() const {
    return {rest_.value(), kmeans_.value(), quadtree_.value()};
  }

 private:
  TranscriptDigest rest_{Part::kRest};
  TranscriptDigest kmeans_{Part::kKMeans};
  TranscriptDigest quadtree_{Part::kQuadtree};
};

Digests Digest(const std::vector<QueryResponse>& responses) {
  SplitDigest d;
  d.Add(responses);
  return d.value();
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void ExpectDigests(const Digests& actual, const Digests& recorded) {
  EXPECT_EQ(Hex(actual.rest), Hex(recorded.rest)) << "rest digest";
  EXPECT_EQ(Hex(actual.kmeans), Hex(recorded.kmeans)) << "kmeans digest";
  EXPECT_EQ(Hex(actual.quadtree), Hex(recorded.quadtree))
      << "quadtree digest";
}

struct Fixture {
  std::string name;
  Policy policy;
  Dataset data;
  /// Kinds expected to refuse this fixture (dimension mismatch or the
  /// documented hier_range constrained holdout). Refusals are part of
  /// the transcript and of its digest, same as served payloads.
  std::vector<std::string> expected_refusals;
  /// Digests of the fixture's first whole-registry batch on a fresh
  /// engine — the same at every pool size.
  Digests first_batch;
  /// Digests of three consecutive whole-registry batches on one engine:
  /// a later batch reads the same h(D) under later stream ids.
  Digests three_rounds;
};

/// Five fixtures covering the registry's whole domain/graph/constraint
/// matrix: Line(16) split into four G^P cells (plus a constrained twin
/// pinning one count constraint from the data), Line(16) under the
/// line secret graph, and an 8x8 grid split into 2x2 G^P cells (plus
/// its constrained twin). On the partitioned line the refusals are the
/// spatial op (quadtree needs two attributes) and hier_range (the OH
/// mechanism resolves theta from line/full/threshold graphs only; on
/// the pinned twin it refuses as the documented constrained holdout);
/// on the line graph cell_histogram refuses (no G^P cells) and
/// hier_range finally serves; on the grid the whole 1-D family refuses
/// instead.
std::vector<Fixture> Fixtures() {
  const std::vector<std::string> kGridRefusals{
      "cdf", "hier_range", "mean", "quantiles", "range", "wavelet_range"};
  std::vector<Fixture> out;
  auto domain = LineDomain(16);
  Dataset data = MakeData(domain, 300, 13);
  {
    auto part = PartitionGraph::UniformGrid(domain, {4}).value();
    Policy policy =
        Policy::Create(domain,
                       std::shared_ptr<const SecretGraph>(part.release()))
            .value();
    out.push_back(Fixture{"unconstrained", std::move(policy), data,
                          {"hier_range", "quadtree"},
                          {0x728bb71e424375abull, 0xafd2c968c0d51415ull,
                           0x593122b5ba3c6917ull},
                          {0x59008baaa5d880c6ull, 0x194e828b31e2b80cull,
                           0xcb16d65709bdf79full}});
  }
  {
    auto part = PartitionGraph::UniformGrid(domain, {4}).value();
    ConstraintSet cs;
    CountQuery low("low", [](ValueIndex x) { return x < 4; });
    const uint64_t answer = low.Evaluate(data);
    cs.AddWithAnswer(std::move(low), answer);
    Policy policy =
        Policy::Create(domain,
                       std::shared_ptr<const SecretGraph>(part.release()),
                       std::move(cs))
            .value();
    out.push_back(Fixture{"constrained", std::move(policy), data,
                          {"hier_range", "quadtree"},
                          {0x45114a3d578ef4cbull, 0x0789ea0a8b0cb6d0ull,
                           0x593122b5ba3c6917ull},
                          {0xdb0f2a43d1151612ull, 0x6da916b4091eda29ull,
                           0xcb16d65709bdf79full}});
  }
  {
    Policy policy =
        Policy::Create(domain, std::make_shared<LineGraph>(domain->size()))
            .value();
    out.push_back(Fixture{"line_graph", std::move(policy), std::move(data),
                          {"cell_histogram", "quadtree"},
                          {0x4ec794e6bd4f89b2ull, 0xf79d35c57d0b9177ull,
                           0x593122b5ba3c6917ull},
                          {0x17404c97c7c6192full, 0xd491835d77ea5220ull,
                           0xcb16d65709bdf79full}});
  }
  auto grid =
      std::make_shared<const Domain>(Domain::Grid(8, 2).value());
  Dataset grid_data = MakeData(grid, 300, 17);
  {
    auto part = PartitionGraph::UniformGrid(grid, {2, 2}).value();
    Policy policy =
        Policy::Create(grid,
                       std::shared_ptr<const SecretGraph>(part.release()))
            .value();
    out.push_back(Fixture{"grid_unconstrained", std::move(policy), grid_data,
                          kGridRefusals,
                          {0xa16ec9cfee2475f1ull, 0x7fd1d88d268ac132ull,
                           0x08888cea34d9314cull},
                          {0x2baf40f6637a803bull, 0x7949edb422c4cbbcull,
                           0xdafecf94650f2673ull}});
  }
  {
    auto part = PartitionGraph::UniformGrid(grid, {2, 2}).value();
    ConstraintSet cs;
    CountQuery corner("corner", [grid](ValueIndex x) {
      return grid->Coordinate(x, 0) < 2 && grid->Coordinate(x, 1) < 2;
    });
    const uint64_t answer = corner.Evaluate(grid_data);
    cs.AddWithAnswer(std::move(corner), answer);
    Policy policy =
        Policy::Create(grid,
                       std::shared_ptr<const SecretGraph>(part.release()),
                       std::move(cs))
            .value();
    out.push_back(Fixture{"grid_constrained", std::move(policy),
                          std::move(grid_data), kGridRefusals,
                          {0x7492f67970847e99ull, 0x65a3f981c1348cc8ull,
                           0xf6868cd21e0ddc6dull},
                          {0x0e083299b6b02511ull, 0x24e6d17b86086412ull,
                           0xeaa4719815c55cd9ull}});
  }
  return out;
}

std::unique_ptr<ReleaseEngine> MakeEngine(
    const Policy& policy, const Dataset& data,
    std::shared_ptr<ThreadPool> pool = nullptr) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 10.0;
  if (pool != nullptr) options.pool = std::move(pool);
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(TranscriptPinTest, AllOpsMatchRecordedDigestsAtEveryPoolSize) {
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
      SCOPED_TRACE("pool " + std::to_string(pool_size));
      auto engine = MakeEngine(f.policy, f.data,
                               std::make_shared<ThreadPool>(pool_size));
      const std::vector<QueryResponse> responses =
          engine->ServeBatch(WholeRegistryBatch());
      ASSERT_EQ(responses.size(),
                QueryOpRegistry::Global().KnownKinds().size());
      // Exactly the fixture's expected-refusal set refuses; every other
      // kind serves. (Refusal CONTENT is checked in
      // constrained_ops_e2e_test and query_ops_test; the digest pins it
      // here.)
      for (const QueryResponse& r : responses) {
        const bool expect_refusal =
            std::find(f.expected_refusals.begin(), f.expected_refusals.end(),
                      r.label) != f.expected_refusals.end();
        EXPECT_EQ(r.status.ok(), !expect_refusal)
            << r.label << ": " << r.status.ToString();
      }
      EXPECT_GT(engine->accountant().Spent(""), 0.0);
      ExpectDigests(Digest(responses), f.first_batch);
    }
  }
}

TEST(TranscriptPinTest, RepeatedBatchesMatchRecordedDigest) {
  // Three consecutive batches on one engine read the same h(D) under
  // later stream ids and budgets; they must reproduce the recorded
  // three-round transcript.
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto engine = MakeEngine(f.policy, f.data);
    SplitDigest digest;
    for (int round = 0; round < 3; ++round) {
      const std::vector<QueryResponse> responses =
          engine->ServeBatch(WholeRegistryBatch());
      if (round == 0) ExpectDigests(Digest(responses), f.first_batch);
      digest.Add(responses);
    }
    ExpectDigests(digest.value(), f.three_rounds);
  }
}

TEST(TranscriptPinTest, KMeansReleasesOnlyItsCentroids) {
  // kmeans's payload is its k noisy centroids, k * d values; nothing
  // computed from the data without noise rides along.
  auto op = QueryOpRegistry::Global().Create("kmeans");
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  ASSERT_NE((*op)->ExampleArgs().find("k=2"), std::string::npos);
  const size_t k = 2;
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto engine = MakeEngine(f.policy, f.data);
    size_t served = 0;
    for (const QueryResponse& r : engine->ServeBatch(WholeRegistryBatch())) {
      if (r.label != "kmeans") continue;
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.values.size(), k * f.policy.domain().num_attributes());
      ++served;
    }
    EXPECT_EQ(served, 1u);
  }
}

TEST(TranscriptPinTest, WireTranscriptMatchesRecordedDigest) {
  // The full e2e path (parse -> admit -> execute -> frame) over
  // a daemon: the tenant is the "unconstrained" fixture under the same
  // seed, so its wire transcript must hash to that fixture's digest.
  const Fixture f = Fixtures().front();
  ASSERT_EQ(f.name, "unconstrained");
  EngineHostOptions host_options;
  host_options.num_threads = 2;
  auto host = std::make_unique<EngineHost>(host_options);
  TenantOptions tenant;
  tenant.default_session_budget = 10.0;
  tenant.root_seed = kSeed;
  ASSERT_TRUE(host->AddTenant("p", "d", f.policy, f.data, tenant).ok());

  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client =
      BlowfishClient::Connect("127.0.0.1", (*server)->port(), "p", "d");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto responses = (*client)->SubmitBatchText(WholeRegistryBatchText());
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_TRUE((*client)->Bye().ok());
  (*server)->Stop();
  ExpectDigests(Digest(*responses), f.first_batch);
}

}  // namespace
}  // namespace blowfish
