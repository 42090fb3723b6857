#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "core/constraints.h"
#include "data/synthetic.h"
#include "net/frame.h"
#include "server/engine_host.h"

namespace wirebench {

using blowfish::Dataset;
using blowfish::Policy;
using blowfish::Random;
using blowfish::Status;
using blowfish::StatusOr;

namespace {

constexpr const char* kEps[] = {"0.0625", "0.125", "0.25"};

/// tenant_mix partition tenants draw cell sets from a fixed family — the
/// 16 cells in four quads, each usable whole, as one of its two pairs,
/// or as one of its four singletons (28 shapes) — so the warm-up batch
/// caches every shape the traffic can ask for.
std::string QuadCells(uint64_t quad, int variant) {
  const uint64_t base = quad * 4;
  std::ostringstream out;
  if (variant == 0) {
    out << base << "," << base + 1 << "," << base + 2 << "," << base + 3;
  } else if (variant <= 2) {
    const uint64_t first = base + 2 * static_cast<uint64_t>(variant - 1);
    out << first << "," << first + 1;
  } else {
    out << base + static_cast<uint64_t>(variant - 3);
  }
  return out.str();
}

uint64_t DomainSize(const TenantSpec& t) {
  switch (t.data) {
    case DataKind::kAdultCapitalLoss:
      return 4357;
    case DataKind::kTwitterLatitude:
      return 400;
    case DataKind::kTwitterGrid:
      return 400 * 300;
  }
  return 0;
}

/// Random [lo, hi] with lo <= hi inside [0, size).
std::pair<uint64_t, uint64_t> Interval(Random& rng, uint64_t size) {
  int64_t a = rng.UniformInt(0, static_cast<int64_t>(size) - 1);
  int64_t b = rng.UniformInt(0, static_cast<int64_t>(size) - 1);
  if (a > b) std::swap(a, b);
  return {static_cast<uint64_t>(a), static_cast<uint64_t>(b)};
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  auto tenant = [](std::string policy_id, std::string dataset_id,
                   DataKind data, size_t rows, GraphKind graph) {
    TenantSpec t;
    t.policy_id = std::move(policy_id);
    t.dataset_id = std::move(dataset_id);
    t.data = data;
    t.rows = rows;
    t.graph = graph;
    return t;
  };
  if (name == "tenant_mix") {
    // Ordered by Zipf rank: tenant 0 is the most popular.
    w.tenants.push_back(tenant("adult_line", "adult_1m",
                               DataKind::kAdultCapitalLoss, size_t{1} << 20,
                               GraphKind::kLine));
    w.tenants.push_back(tenant("lat_line", "lat_1m",
                               DataKind::kTwitterLatitude, size_t{1} << 20,
                               GraphKind::kLine));
    TenantSpec dist = tenant("lat_dist", "lat_512k_d",
                             DataKind::kTwitterLatitude, size_t{1} << 19,
                             GraphKind::kDistance);
    dist.theta = 50.0;
    w.tenants.push_back(dist);
    for (const char* id : {"lat_512k_a", "lat_512k_b"}) {
      TenantSpec grid = tenant("lat_grid16", id, DataKind::kTwitterLatitude,
                               size_t{1} << 19, GraphKind::kGridPartition);
      grid.cells = {16};
      w.tenants.push_back(grid);
    }
    w.tenants.push_back(tenant("adult_line", "adult_256k",
                               DataKind::kAdultCapitalLoss, size_t{1} << 18,
                               GraphKind::kLine));
    w.client_threads = 4;
  } else if (name == "spatial_pipeline") {
    TenantSpec grid = tenant("geo_grid", "geo_1m", DataKind::kTwitterGrid,
                             size_t{1} << 20, GraphKind::kGridPartition);
    grid.cells = {16, 12};
    w.tenants.push_back(grid);
    w.client_threads = 2;
  } else if (name == "cold_shapes") {
    // GridPartition{12} over 400 values: cell k = [34k, 34k + 33]. Each
    // pinned interval sits inside one cell (fixture-B shape); the two
    // tenants pin different cells, so their policies — and cache
    // entries — differ.
    const std::vector<std::pair<uint64_t, uint64_t>> pins[] = {
        {{40, 60}, {210, 230}}, {{75, 95}, {280, 300}}};
    const char* ids[] = {"lat_pin_a", "lat_pin_b"};
    for (int i = 0; i < 2; ++i) {
      TenantSpec t = tenant(ids[i], std::string(ids[i]) + "_128k",
                            DataKind::kTwitterLatitude, size_t{1} << 17,
                            GraphKind::kGridPartition);
      t.cells = {12};
      t.pinned = pins[i];
      w.tenants.push_back(t);
    }
    w.client_threads = 2;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (known: tenant_mix, spatial_pipeline, cold_shapes)");
  }
  return w;
}

StatusOr<Dataset> GenerateTenantData(const Workload& w, size_t index) {
  const TenantSpec& t = w.tenants[index];
  Random rng = Random(kCorpusSeed).Fork(0x7e4a47 + index);
  switch (t.data) {
    case DataKind::kAdultCapitalLoss:
      return blowfish::GenerateAdultCapitalLossLike(t.rows, rng);
    case DataKind::kTwitterLatitude:
      return blowfish::GenerateTwitterLatitudeLike(t.rows, rng);
    case DataKind::kTwitterGrid:
      return blowfish::GenerateTwitterLike(t.rows, rng);
  }
  return Status::InvalidArgument("unknown data kind");
}

StatusOr<Policy> BuildPolicy(const TenantSpec& spec, const Dataset& data) {
  auto domain = data.domain_ptr();
  StatusOr<Policy> base = Status::InvalidArgument("unknown graph kind");
  switch (spec.graph) {
    case GraphKind::kLine:
      base = Policy::Line(domain);
      break;
    case GraphKind::kDistance:
      base = Policy::DistanceThreshold(domain, spec.theta);
      break;
    case GraphKind::kGridPartition:
      base = Policy::GridPartition(domain, spec.cells);
      break;
  }
  if (!base.ok() || spec.pinned.empty()) return base;
  blowfish::ConstraintSet constraints;
  for (size_t i = 0; i < spec.pinned.size(); ++i) {
    const auto [lo, hi] = spec.pinned[i];
    // The sensitivity cache keys a constraint set by its query NAMES
    // (SensitivityCache::PolicyFingerprint), not its predicates: two
    // tenants whose constraints share names would share — and race for —
    // each other's S(f, P) entries. Naming each query after its interval
    // keeps distinct constraint sets apart.
    blowfish::CountQuery query(
        "count[" + std::to_string(lo) + "," + std::to_string(hi) + "]",
        [lo = lo, hi = hi](blowfish::ValueIndex x) {
          return x >= lo && x <= hi;
        });
    const uint64_t answer = query.Evaluate(data);
    constraints.AddWithAnswer(std::move(query), answer);
  }
  return Policy::Create(domain, base->graph_ptr(), std::move(constraints));
}

std::string WarmupBatch(const Workload& w, size_t tenant) {
  const TenantSpec& t = w.tenants[tenant];
  const std::string tail = " session=warmup\n";
  std::string out;
  if (t.data == DataKind::kTwitterGrid) {
    // The grid's full histogram (120k cells) would exceed the frame
    // cap; quadtree shares its "h" sensitivity shape.
    return "quadtree eps=0.25 x0=0 x1=0 y0=0 y1=0" + tail;
  }
  out += "histogram eps=0.25" + tail;
  out += "range eps=0.25 lo=0 hi=1" + tail;
  if (!t.pinned.empty()) return out;
  out += "cdf eps=0.25" + tail;
  out += "mean eps=0.25" + tail;
  out += "quantiles eps=0.25" + tail;
  out += "wavelet_range eps=0.25 lo=0 hi=1" + tail;
  if (t.graph == GraphKind::kGridPartition) {
    for (uint64_t quad = 0; quad < 4; ++quad) {
      for (int variant = 0; variant < 7; ++variant) {
        out += "cell_histogram eps=0.25 cells=" + QuadCells(quad, variant) +
               tail;
      }
    }
  } else {
    out += "hier_range eps=0.25 lo=0 hi=1" + tail;
  }
  return out;
}

Traffic::Traffic(const Workload& w, uint64_t seed, int thread)
    : w_(w),
      thread_(thread),
      rng_(Random(seed).Fork(0xc11e47 + static_cast<uint64_t>(thread))) {
  for (double& offset : offsets_) offset = rng_.Uniform();
}

SessionPlan Traffic::NextSession() {
  SessionPlan plan;
  if (w_.name == "tenant_mix") {
    // Session parameters come from randomly shifted Weyl sequences
    // (stratified draws): each stays uniform on its range, but every run
    // carries the same mix of tenants, depths and session lengths, so a
    // run's figures do not depend on how lucky its seed's mix was.
    const double k = static_cast<double>(sessions_++);
    auto weyl = [&](int i, double step) {
      return std::fmod(offsets_[i] + k * step, 1.0);
    };
    // Zipf(1.1) over the tenants in rank order.
    std::vector<double> cumulative;
    double total = 0.0;
    for (size_t r = 1; r <= w_.tenants.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), 1.1);
      cumulative.push_back(total);
    }
    const double pick = weyl(0, 0.6180339887498949) * total;
    plan.tenant = w_.tenants.size() - 1;
    for (size_t r = 0; r < cumulative.size(); ++r) {
      if (pick < cumulative[r]) {
        plan.tenant = r;
        break;
      }
    }
    const int depths[] = {1, 2, 4};
    plan.depth = depths[static_cast<int>(weyl(1, 0.4142135623730951) * 3)];
    plan.batches =
        1 + static_cast<size_t>(weyl(2, 0.7320508075688772) * 16);
    plan.session = "analyst" + std::to_string(rng_.UniformInt(0, 7));
  } else if (w_.name == "spatial_pipeline") {
    plan.tenant = 0;
    plan.depth = 8;
    plan.session = "pipeline" + std::to_string(thread_);
  } else {
    plan.tenant = static_cast<size_t>(thread_) % w_.tenants.size();
    plan.depth = 1;
    plan.session = "shapes" + std::to_string(thread_);
  }
  return plan;
}

std::string Traffic::Query(const TenantSpec& t, const std::string& session,
                           int max_lines, int* group_counter) {
  const std::string eps = std::string("eps=") + kEps[rng_.UniformInt(0, 2)];
  const std::string tail = " session=" + session + "\n";
  const uint64_t size = DomainSize(t);
  if (w_.name == "spatial_pipeline") {
    const auto [x0, x1] = Interval(rng_, 400);
    const auto [y0, y1] = Interval(rng_, 300);
    std::ostringstream out;
    out << "quadtree " << eps << " x0=" << x0 << " x1=" << x1 << " y0=" << y0
        << " y1=" << y1 << tail;
    return out.str();
  }
  if (w_.name == "cold_shapes") {
    if (rng_.UniformInt(0, 7) == 0) {
      if (rng_.Bernoulli(0.5)) return "histogram " + eps + tail;
      const auto [lo, hi] = Interval(rng_, size);
      return "range " + eps + " lo=" + std::to_string(lo) +
             " hi=" + std::to_string(hi) + tail;
    }
    // A uniformly random non-empty subset of the 12 cells.
    const int64_t mask = rng_.UniformInt(1, 4095);
    std::string cells;
    for (int c = 0; c < 12; ++c) {
      if ((mask >> c) & 1) {
        if (!cells.empty()) cells += ",";
        cells += std::to_string(c);
      }
    }
    return "cell_histogram " + eps + " cells=" + cells + tail;
  }
  // tenant_mix: ~10% large answers, the rest small kinds.
  if (rng_.UniformInt(0, 9) == 0) {
    return (rng_.Bernoulli(0.5) ? "histogram " : "cdf ") + eps + tail;
  }
  const bool partition = t.graph == GraphKind::kGridPartition;
  const int kind = static_cast<int>(rng_.UniformInt(0, 4));
  switch (kind) {
    case 0:
    case 1: {
      if (kind == 1 && partition) {
        // A parallel group of 1-4 members over disjoint quads.
        std::vector<uint64_t> quads = {0, 1, 2, 3};
        const int members =
            std::min(static_cast<int>(rng_.UniformInt(1, 4)), max_lines);
        std::string group;
        if (members > 1) {
          group = " group=g" + std::to_string((*group_counter)++);
        }
        std::string out;
        for (int m = 0; m < members; ++m) {
          const size_t pick =
              static_cast<size_t>(rng_.UniformInt(0, 3 - m));
          const uint64_t quad = quads[pick];
          quads.erase(quads.begin() + static_cast<long>(pick));
          out += "cell_histogram " + std::string("eps=") +
                 kEps[rng_.UniformInt(0, 2)] + " cells=" +
                 QuadCells(quad, static_cast<int>(rng_.UniformInt(0, 6))) +
                 group + tail;
        }
        return out;
      }
      const auto [lo, hi] = Interval(rng_, size);
      const char* name = kind == 0 ? "range " : "hier_range ";
      return name + eps + " lo=" + std::to_string(lo) +
             " hi=" + std::to_string(hi) + tail;
    }
    case 2:
      return "mean " + eps + tail;
    case 3: {
      const char* qs[] = {"0.5", "0.25,0.5,0.75", "0.1,0.5,0.9"};
      return "quantiles " + eps + " qs=" + qs[rng_.UniformInt(0, 2)] + tail;
    }
    default: {
      const auto [lo, hi] = Interval(rng_, size);
      return "wavelet_range " + eps + " lo=" + std::to_string(lo) +
             " hi=" + std::to_string(hi) + tail;
    }
  }
}

std::string Traffic::NextBatch(const SessionPlan& plan) {
  const TenantSpec& t = w_.tenants[plan.tenant];
  int lo = 1, hi = 32;
  if (w_.name == "spatial_pipeline") hi = 4;
  if (w_.name == "cold_shapes") hi = 8;
  const int target = static_cast<int>(rng_.UniformInt(lo, hi));
  std::string text;
  int group_counter = 0;
  int lines = 0;
  while (lines < target) {
    std::string q = Query(t, plan.session, target - lines, &group_counter);
    for (char c : q) lines += c == '\n';
    text += q;
  }
  return text;
}

bool ErrKind(const std::string& kind) {
  static const std::set<std::string> kinds = {
      "histogram", "cell_histogram", "range",   "cdf",
      "hier_range", "wavelet_range", "quadtree"};
  return kinds.count(kind) > 0;
}

size_t ResultBytesBound(const blowfish::QueryOp& op, const TenantTruth& t) {
  // The zero-sensitivity path releases the exact answer in the same
  // layout as the noised one.
  blowfish::QueryExecContext ctx{t.policy, t.schema, t.hist, 1.0, 0.0};
  auto exact = op.Execute(ctx, Random(0));
  const size_t values = exact.ok() ? exact->size() : 0;
  return 512 + 25 * values;
}

StatusOr<size_t> SelfTestGenerators(const Workload& w, uint64_t seed,
                                    const std::vector<TenantTruth>& truth) {
  size_t lines = 0;
  auto check_batch = [&](size_t tenant,
                         const std::string& text) -> Status {
    auto requests = blowfish::EngineHost::ParseBatchText(text);
    if (!requests.ok()) return requests.status();
    for (const blowfish::QueryRequest& r : *requests) {
      Status valid = r.op->Validate(truth[tenant].policy);
      if (!valid.ok()) return valid;
      if (ResultBytesBound(*r.op, truth[tenant]) >
          blowfish::kMaxFramePayload) {
        return Status::ResourceExhausted(
            "generated query can exceed the frame cap: " +
            r.op->KindName());
      }
      ++lines;
    }
    return Status::OK();
  };
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    BLOWFISH_RETURN_IF_ERROR(check_batch(t, WarmupBatch(w, t)));
  }
  constexpr size_t kBatchesPerThread = 96;
  for (int thread = 0; thread < w.client_threads; ++thread) {
    Traffic a(w, seed, thread), b(w, seed, thread);
    size_t produced = 0;
    while (produced < kBatchesPerThread) {
      SessionPlan pa = a.NextSession(), pb = b.NextSession();
      if (pa.tenant != pb.tenant || pa.depth != pb.depth ||
          pa.batches != pb.batches || pa.session != pb.session) {
        return Status::Internal("same seed gave different session plans");
      }
      const size_t n = pa.batches == 0 ? kBatchesPerThread : pa.batches;
      for (size_t i = 0; i < n && produced < kBatchesPerThread;
           ++i, ++produced) {
        const std::string ta = a.NextBatch(pa), tb = b.NextBatch(pb);
        if (ta != tb) {
          return Status::Internal("same seed gave different batch texts");
        }
        BLOWFISH_RETURN_IF_ERROR(check_batch(pa.tenant, ta));
      }
    }
  }
  return lines;
}

}  // namespace wirebench
