#include "engine/sensitivity_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "core/secret_graph.h"

namespace blowfish {
namespace {

TEST(SensitivityCacheTest, MissThenHit) {
  SensitivityCache cache(8);
  int computes = 0;
  auto compute = [&computes]() -> StatusOr<double> {
    ++computes;
    return 2.0;
  };
  auto first = cache.GetOrCompute("P", "h", compute);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(*first, 2.0);
  auto second = cache.GetOrCompute("P", "h", compute);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(*second, 2.0);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SensitivityCacheTest, DistinctKeysAreDistinctEntries) {
  SensitivityCache cache(8);
  ASSERT_TRUE(
      cache.GetOrCompute("P", "h", []() -> StatusOr<double> { return 2.0; })
          .ok());
  ASSERT_TRUE(cache
                  .GetOrCompute("P", "S_T",
                                []() -> StatusOr<double> { return 7.0; })
                  .ok());
  ASSERT_TRUE(cache
                  .GetOrCompute("P2", "h",
                                []() -> StatusOr<double> { return 4.0; })
                  .ok());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(*cache.GetOrCompute(
                       "P", "h", []() -> StatusOr<double> { return -1.0; }),
                   2.0);
}

TEST(SensitivityCacheTest, ErrorsAreNotCached) {
  SensitivityCache cache(8);
  int computes = 0;
  auto failing = [&computes]() -> StatusOr<double> {
    ++computes;
    return Status::ResourceExhausted("edge budget");
  };
  EXPECT_FALSE(cache.GetOrCompute("P", "h", failing).ok());
  EXPECT_FALSE(cache.GetOrCompute("P", "h", failing).ok());
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.size(), 0u);
  // A later success for the same key is cached normally.
  ASSERT_TRUE(
      cache.GetOrCompute("P", "h", []() -> StatusOr<double> { return 2.0; })
          .ok());
  EXPECT_TRUE(cache.Contains("P", "h"));
}

TEST(SensitivityCacheTest, LruEviction) {
  SensitivityCache cache(2);
  auto value = [](double v) {
    return [v]() -> StatusOr<double> { return v; };
  };
  ASSERT_TRUE(cache.GetOrCompute("P", "a", value(1)).ok());
  ASSERT_TRUE(cache.GetOrCompute("P", "b", value(2)).ok());
  // Touch "a" so "b" becomes the LRU entry.
  ASSERT_TRUE(cache.GetOrCompute("P", "a", value(-1)).ok());
  ASSERT_TRUE(cache.GetOrCompute("P", "c", value(3)).ok());
  EXPECT_TRUE(cache.Contains("P", "a"));
  EXPECT_FALSE(cache.Contains("P", "b"));
  EXPECT_TRUE(cache.Contains("P", "c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SensitivityCacheTest, ZeroCapacityAlwaysComputes) {
  SensitivityCache cache(0);
  int computes = 0;
  auto compute = [&computes]() -> StatusOr<double> {
    ++computes;
    return 2.0;
  };
  ASSERT_TRUE(cache.GetOrCompute("P", "h", compute).ok());
  ASSERT_TRUE(cache.GetOrCompute("P", "h", compute).ok());
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SensitivityCacheTest, ConcurrentAccessComputesOnce) {
  SensitivityCache cache(8);
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 100; ++i) {
        auto v = cache.GetOrCompute("P", "h",
                                    [&computes]() -> StatusOr<double> {
                                      ++computes;
                                      return 2.0;
                                    });
        ASSERT_TRUE(v.ok());
        ASSERT_DOUBLE_EQ(*v, 2.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Compute runs under the cache lock: exactly one execution.
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 800u);
}

TEST(SensitivityCacheTest, PolicyFingerprintSeparatesPolicies) {
  auto domain = std::make_shared<const Domain>(Domain::Line(16).value());
  Policy full = Policy::FullDomain(domain).value();
  Policy line = Policy::Line(domain).value();
  Policy theta = Policy::DistanceThreshold(domain, 4.0).value();
  const std::string fp_full = SensitivityCache::PolicyFingerprint(full);
  const std::string fp_line = SensitivityCache::PolicyFingerprint(line);
  const std::string fp_theta = SensitivityCache::PolicyFingerprint(theta);
  EXPECT_NE(fp_full, fp_line);
  EXPECT_NE(fp_full, fp_theta);
  EXPECT_NE(fp_line, fp_theta);
  // Same policy shape -> same fingerprint.
  Policy full2 = Policy::FullDomain(domain).value();
  EXPECT_EQ(fp_full, SensitivityCache::PolicyFingerprint(full2));

  // Equal names, different content. UniformGrid names a partition by its
  // cell count, so {4,4} and {2,8} on one grid are both "partition|16";
  // the key must see the cells themselves.
  auto grid = std::make_shared<const Domain>(
      Domain::Create({Attribute{"x", 400, 1.0}, Attribute{"y", 300, 1.0}})
          .value());
  auto partition = [&grid](std::vector<uint64_t> cells) {
    auto part = PartitionGraph::UniformGrid(grid, std::move(cells)).value();
    return Policy::Create(grid,
                          std::shared_ptr<const SecretGraph>(part.release()))
        .value();
  };
  const std::string fp_square =
      SensitivityCache::PolicyFingerprint(partition({4, 4}));
  EXPECT_NE(fp_square,
            SensitivityCache::PolicyFingerprint(partition({2, 8})));
  EXPECT_EQ(fp_square,
            SensitivityCache::PolicyFingerprint(partition({4, 4})));

  // Two explicit graphs, both named "explicit", with different edges.
  auto explicit_policy =
      [&domain](std::vector<std::pair<ValueIndex, ValueIndex>> edges) {
        auto graph = ExplicitGraph::Create(domain->size(), edges).value();
        return Policy::Create(
                   domain, std::shared_ptr<const SecretGraph>(graph.release()))
            .value();
      };
  EXPECT_NE(SensitivityCache::PolicyFingerprint(explicit_policy({{0, 1}})),
            SensitivityCache::PolicyFingerprint(explicit_policy({{0, 2}})));

  // Two pinned count constraints under one name with different
  // predicates.
  auto pinned = [&domain](uint64_t bound) {
    auto part = PartitionGraph::UniformGrid(domain, {4}).value();
    ConstraintSet cs;
    cs.AddWithAnswer(
        CountQuery("c", [bound](ValueIndex x) { return x < bound; }), 1);
    return Policy::Create(domain,
                          std::shared_ptr<const SecretGraph>(part.release()),
                          std::move(cs))
        .value();
  };
  EXPECT_NE(SensitivityCache::PolicyFingerprint(pinned(4)),
            SensitivityCache::PolicyFingerprint(pinned(2)));
  EXPECT_EQ(SensitivityCache::PolicyFingerprint(pinned(4)),
            SensitivityCache::PolicyFingerprint(pinned(4)));
}

TEST(SensitivityCacheTest, ConstrainedAndUnconstrainedVariantsAreDistinct) {
  // The same query shape against the constrained and unconstrained
  // variants of one policy must occupy distinct entries — a shared
  // entry would serve the (larger) constrained bound's slot with the
  // unconstrained value, under-calibrating the noise.
  auto domain = std::make_shared<const Domain>(Domain::Line(8).value());
  auto make_policy = [&domain](ConstraintSet cs) {
    auto part = PartitionGraph::UniformGrid(domain, {2}).value();
    return Policy::Create(domain,
                          std::shared_ptr<const SecretGraph>(part.release()),
                          std::move(cs))
        .value();
  };
  Policy unconstrained = make_policy(ConstraintSet{});
  ConstraintSet one;
  one.AddWithAnswer(CountQuery("low", [](ValueIndex x) { return x < 2; }),
                    1);
  Policy constrained = make_policy(std::move(one));
  // Two different constraint sets of the same size hash apart too (the
  // fingerprint covers the query names, not just the count).
  ConstraintSet other;
  other.AddWithAnswer(CountQuery("high", [](ValueIndex x) { return x >= 6; }),
                      1);
  Policy constrained_other = make_policy(std::move(other));

  const std::string fp_plain =
      SensitivityCache::PolicyFingerprint(unconstrained);
  const std::string fp_low = SensitivityCache::PolicyFingerprint(constrained);
  const std::string fp_high =
      SensitivityCache::PolicyFingerprint(constrained_other);
  EXPECT_NE(fp_plain, fp_low);
  EXPECT_NE(fp_plain, fp_high);
  EXPECT_NE(fp_low, fp_high);

  // Pinned-ness is part of the signature: the same query under the same
  // name, pinned vs unpinned, has different sensitivities (only pinned
  // queries restrict I_Q and force compensating moves), so the variants
  // must not share an entry.
  ConstraintSet unpinned_low;
  unpinned_low.Add(CountQuery("low", [](ValueIndex x) { return x < 2; }));
  Policy unpinned = make_policy(std::move(unpinned_low));
  EXPECT_NE(SensitivityCache::PolicyFingerprint(unpinned), fp_low);
  EXPECT_NE(SensitivityCache::PolicyFingerprint(unpinned), fp_plain);

  // Both variants of one shape live side by side as separate entries,
  // each with its own value.
  SensitivityCache cache(8);
  ASSERT_TRUE(cache
                  .GetOrCompute(fp_plain, "h_cells[0]",
                                []() -> StatusOr<double> { return 2.0; })
                  .ok());
  ASSERT_TRUE(cache
                  .GetOrCompute(fp_low, "h_cells[0]",
                                []() -> StatusOr<double> { return 4.0; })
                  .ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(
      *cache.GetOrCompute(fp_plain, "h_cells[0]",
                          []() -> StatusOr<double> { return -1.0; }),
      2.0);
  EXPECT_DOUBLE_EQ(
      *cache.GetOrCompute(fp_low, "h_cells[0]",
                          []() -> StatusOr<double> { return -1.0; }),
      4.0);
}

}  // namespace
}  // namespace blowfish
