// Memoized policy-specific sensitivity for the serving layer.
//
// Sensitivity is the expensive half of every Blowfish release: the
// Thm 8.2 policy-graph alpha/xi bounds are exponential DFS (the problem is
// NP-hard, Thm 8.1), and even the generic unconstrained engine enumerates
// secret-graph edges. But S(f, P) depends only on the (policy, query
// shape) pair — never on the data or epsilon — so a serving system can
// compute each value once and reuse it for the lifetime of the policy.
// This cache is a mutex-guarded LRU map from (policy fingerprint, query
// shape) to S(f, P), shared by all worker threads of a ReleaseEngine.
// It lives in memory only, so every value in it was computed by this
// process.

#ifndef BLOWFISH_ENGINE_SENSITIVITY_CACHE_H_
#define BLOWFISH_ENGINE_SENSITIVITY_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/policy.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blowfish {

/// Mutex-guarded LRU cache of (policy, query-shape) -> S(f, P).
class SensitivityCache {
 public:
  /// `metrics` is the registry hit/miss/eviction counters and the
  /// NP-hard compute-time histogram report into; nullptr = process-wide
  /// default. The internal Stats remain authoritative for exact
  /// per-cache assertions; the obs mirrors exist so a daemon exposes
  /// them over STATS without reaching into the cache.
  explicit SensitivityCache(size_t capacity = 128,
                            obs::MetricsRegistry* metrics = nullptr)
      : capacity_(capacity) {
    if (metrics == nullptr) metrics = obs::MetricsRegistry::Global();
    hits_total_ = metrics->GetCounter("sensitivity_cache_hits_total");
    misses_total_ = metrics->GetCounter("sensitivity_cache_misses_total");
    evictions_total_ =
        metrics->GetCounter("sensitivity_cache_evictions_total");
    compute_us_ = metrics->GetHistogram("sensitivity_cache_compute_us");
  }

  struct Stats {
    uint64_t hits = 0;
    /// Misses == number of times `compute` actually ran.
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Returns the cached sensitivity for (policy_fp, query_shape), or runs
  /// `compute`, caches its value, and returns it. Errors from `compute`
  /// are returned and NOT cached (a transient ResourceExhausted should not
  /// poison the key). The compute runs *outside* the cache lock with a
  /// per-key in-flight marker: each key is still computed exactly once
  /// under concurrent traffic (duplicate requesters wait for the
  /// in-flight result), but a slow NP-hard computation for one key never
  /// blocks hits or computes for other keys — essential now that one
  /// cache is shared by every tenant of an EngineHost. Keep compute
  /// deterministic and side-effect free. `was_hit` (optional) reports
  /// whether this call was served from the cache, decided under the
  /// cache's own lock — a separate Contains() probe would race other
  /// engines sharing the cache.
  StatusOr<double> GetOrCompute(
      const std::string& policy_fp, const std::string& query_shape,
      const std::function<StatusOr<double>()>& compute,
      bool* was_hit = nullptr);

  /// Whether the key is currently cached (does not touch LRU order).
  bool Contains(const std::string& policy_fp,
                const std::string& query_shape) const;

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// A stable fingerprint of the policy for use as a cache key: domain
  /// attributes (name/cardinality/scale), secret-graph name, and the
  /// constraint signature (count, rectangle coordinates, and a hash of
  /// the count-query names and per-query pinned-ness). Names alone do
  /// not identify content — a UniformGrid partition is named by its
  /// cell count, and constraint predicates are opaque — so the key also
  /// folds in a hash of what the names stand for: CellOf(x) over the
  /// domain for a partition graph, the adjacency lists of an explicit
  /// graph, and Matches(x) over the domain for each pinned count query.
  /// O(|T|) per partition or pinned query; the engine computes it once,
  /// at construction.
  static std::string PolicyFingerprint(const Policy& policy);

 private:
  using Entry = std::pair<std::string, double>;  // (key, sensitivity)

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// Keys whose compute is running outside the lock; duplicate
  /// requesters wait on in_flight_cv_ instead of recomputing.
  std::set<std::string> in_flight_;
  std::condition_variable in_flight_cv_;
  Stats stats_;
  /// obs mirrors of stats_ plus the compute-time histogram; resolved in
  /// the constructor, never null.
  obs::Counter* hits_total_;
  obs::Counter* misses_total_;
  obs::Counter* evictions_total_;
  obs::Histogram* compute_us_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_SENSITIVITY_CACHE_H_
