#include "engine/sensitivity_cache.h"

#include <sstream>
#include <vector>

#include "core/constraints.h"
#include "core/secret_graph.h"

namespace blowfish {

namespace {

std::string MakeKey(const std::string& policy_fp,
                    const std::string& query_shape) {
  return policy_fp + "\x1f" + query_shape;
}

/// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void Byte(uint8_t b) { h_ = (h_ ^ b) * 1099511628211ull; }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// Hash of the secret graph's content beyond its name, "" for graphs the
/// name and the domain already determine.
std::string GraphContentHash(const SecretGraph& graph) {
  Fnv1a h;
  if (const auto* partition = dynamic_cast<const PartitionGraph*>(&graph)) {
    for (ValueIndex x = 0; x < graph.num_vertices(); ++x) {
      h.U64(partition->CellOf(x));
    }
  } else if (const auto* explicit_graph =
                 dynamic_cast<const ExplicitGraph*>(&graph)) {
    for (ValueIndex x = 0; x < graph.num_vertices(); ++x) {
      const std::vector<ValueIndex>& neighbors = explicit_graph->Neighbors(x);
      h.U64(neighbors.size());
      for (ValueIndex y : neighbors) h.U64(y);
    }
  } else {
    return "";
  }
  std::ostringstream out;
  out << "#" << std::hex << h.value();
  return out.str();
}

}  // namespace

StatusOr<double> SensitivityCache::GetOrCompute(
    const std::string& policy_fp, const std::string& query_shape,
    const std::function<StatusOr<double>()>& compute, bool* was_hit) {
  const std::string key = MakeKey(policy_fp, query_shape);
  if (was_hit != nullptr) *was_hit = false;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      hits_total_->Increment();
      if (was_hit != nullptr) *was_hit = true;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    if (in_flight_.count(key) == 0) break;
    // Someone is computing this key right now; wait for their result
    // rather than duplicating an NP-hard computation. If their compute
    // errored (nothing cached), the next iteration claims the key.
    in_flight_cv_.wait(lock);
  }
  in_flight_.insert(key);
  ++stats_.misses;
  misses_total_->Increment();
  lock.unlock();
  // The expensive part runs without the lock: one tenant's cold
  // policy-graph bound must not block other keys' hits and computes.
  StatusOr<double> computed = [&]() {
    obs::ScopedLatencyTimer timer(compute_us_);
    return compute();
  }();
  lock.lock();
  in_flight_.erase(key);
  in_flight_cv_.notify_all();
  if (!computed.ok()) return computed.status();
  // The in-flight claim kept every other writer off this key, so it is
  // still absent: insert it at the LRU front.
  if (capacity_ > 0) {
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
      evictions_total_->Increment();
    }
    lru_.emplace_front(key, *computed);
    index_[key] = lru_.begin();
  }
  return *computed;
}

bool SensitivityCache::Contains(const std::string& policy_fp,
                                const std::string& query_shape) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(MakeKey(policy_fp, query_shape)) > 0;
}

SensitivityCache::Stats SensitivityCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SensitivityCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void SensitivityCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

std::string SensitivityCache::PolicyFingerprint(const Policy& policy) {
  std::ostringstream out;
  out << "T{";
  for (const Attribute& a : policy.domain().attributes()) {
    out << a.name << ":" << a.cardinality << ":" << a.scale << ";";
  }
  out << "}G{" << policy.graph().name() << GraphContentHash(policy.graph())
      << "}Q{"
      << policy.constraints().size();
  for (const Rectangle& r : policy.constraints().rectangles()) {
    out << "[";
    for (uint64_t v : r.lo) out << v << ",";
    out << ":";
    for (uint64_t v : r.hi) out << v << ",";
    out << "]";
  }
  out << "}";
  if (!policy.constraints().empty()) {
    // Constraint signature: FNV-1a over the count-query names and their
    // pinned-ness, so two constraint sets of equal size (e.g. the [A]
    // vs [B] marginals of the same domain) occupy distinct cache
    // entries. Marginal and rectangle constraints get structured names
    // from their builders. Answer VALUES are excluded because S(f, P)
    // never depends on them (Sec 8.1), but answer PRESENCE is folded in:
    // the weighted policy-graph analysis classifies moves against
    // pinned queries only, so the pinned and unpinned variants of one
    // constraint set have different sensitivities and must not share an
    // entry. A pinned query's predicate is folded in too, value by
    // value: two constraints may share a name and not a meaning.
    // Hashed rather than inlined to keep keys bounded in length.
    const ConstraintSet& constraints = policy.constraints();
    Fnv1a h;
    for (size_t i = 0; i < constraints.size(); ++i) {
      for (char c : constraints.query(i).name()) {
        h.Byte(static_cast<uint8_t>(c));
      }
      h.Byte(constraints.pinned(i) ? 0x70 : 0x75);  // pinned marker
      if (constraints.pinned(i)) {
        for (ValueIndex x = 0; x < policy.domain().size(); ++x) {
          h.Byte(constraints.query(i).Matches(x) ? 1 : 0);
        }
      }
      h.Byte(0x1f);  // query separator
    }
    out << "C{" << std::hex << h.value() << "}";
  }
  return out.str();
}

}  // namespace blowfish
