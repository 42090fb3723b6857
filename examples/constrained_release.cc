// Blowfish with constraints (Sec 8): publishing a histogram when the
// adversary already knows a marginal of the table.
//
// A hospital previously published the exact [clinic x insurance] marginal
// of its admissions table. It now wants to release the full histogram
// (clinic x insurance x diagnosis). Differential-privacy-style noise
// calibrated to sensitivity 2 is *unsound* against an adversary who knows
// the marginal (correlations!); Blowfish calibrates to the policy graph
// instead (Thm 8.2 / 8.4). The release itself goes through the
// ReleaseEngine, which charges it against a budget and calibrates it to
// the constrained histogram bound. This example also demonstrates the
// Sec 3.2 averaging attack that motivates all of this.

#include <cstdio>
#include <memory>

#include "core/attack.h"
#include "core/policy.h"
#include "core/policy_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"

using namespace blowfish;

int main() {
  // Domain: 2 clinics x 2 insurance kinds x 3 diagnoses (Example 8.1).
  auto domain = std::make_shared<const Domain>(
      Domain::Create({Attribute{"clinic", 2, 1.0},
                      Attribute{"insurance", 2, 1.0},
                      Attribute{"diagnosis", 3, 1.0}})
          .value());

  // The admissions table.
  Random data_rng(11);
  std::vector<ValueIndex> tuples;
  for (int i = 0; i < 500; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        data_rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  Dataset admissions = Dataset::Create(domain, tuples).value();

  // Publicly known: the [clinic, insurance] marginal.
  Marginal known{{0, 1}};
  ConstraintSet constraints;
  (void)constraints.AddMarginal(domain, known, &admissions);

  // Policy: full-domain secrets + the marginal constraint.
  auto graph = std::make_shared<FullGraph>(domain->size());
  PolicyGraph pg =
      PolicyGraph::Build(constraints, *graph, uint64_t{1} << 24).value();
  std::printf("policy graph: alpha = %llu, xi = %llu\n",
              static_cast<unsigned long long>(
                  pg.LongestSimpleCycle().value()),
              static_cast<unsigned long long>(
                  pg.LongestSourceSinkPath().value()));
  std::printf("S(h, P) = 2 max(alpha, xi) = %.0f  (Thm 8.4: 2 size(C) = "
              "%.0f)\n\n",
              pg.HistogramSensitivityBound().value(),
              MarginalFullDomainSensitivity(*domain, known).value());

  // Release the histogram with correctly calibrated noise: a
  // one-request batch on a release engine.
  Policy policy =
      Policy::Create(domain, graph, std::move(constraints)).value();
  Histogram hist = admissions.CompleteHistogram().value();
  ReleaseEngineOptions options;
  options.root_seed = 13;
  auto engine = ReleaseEngine::Create(policy, admissions, options).value();
  QueryResponse released = engine->ServeBatch(
      {MakeQueryRequest("histogram", /*epsilon=*/1.0).value()})[0];
  if (!released.status.ok()) {
    std::printf("release refused: %s\n", released.status.ToString().c_str());
    return 1;
  }
  std::printf("released %zu counts at S(h, P) = %.0f; first cell true %.0f "
              "-> noisy %.1f\n\n",
              released.values.size(), released.sensitivity, hist[0],
              released.values[0]);

  // Why sensitivity-2 noise would be unsound: the Sec 3.2 averaging
  // attack. Counts + known pairwise sums reconstruct the table.
  std::printf("averaging attack against naive DP noise (Sec 3.2):\n");
  std::printf("%8s %12s %14s %12s\n", "k", "raw MAE", "attack MAE",
              "frac exact");
  Random attack_rng(17);
  for (size_t k : {16, 256}) {
    std::vector<double> counts(k, 25.0);
    for (size_t i = 0; i < k; ++i) counts[i] += (i * 3) % 11;
    auto res =
        RunAveragingAttack(counts, /*noise_scale=*/2.0, 200, attack_rng)
            .value();
    std::printf("%8zu %12.3f %14.3f %12.2f\n", k, res.raw_mean_abs_error,
                res.mean_abs_error, res.fraction_exact);
  }
  std::printf(
      "\nWith k = 256 correlated counts the adversary reconstructs nearly\n"
      "every count exactly from 'differentially private' answers. The\n"
      "Blowfish policy graph raises the noise to the level the known\n"
      "constraints actually require.\n");
  return 0;
}
