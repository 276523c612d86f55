// Ablation (extension beyond the paper): k-Shape initialization strategy.
// Algorithm 3 initializes with uniformly random assignments; on small
// datasets with similar class shapes this is prone to a symmetric local
// optimum where all initial centroids coincide (every random mixture has the
// same dominant eigenvector) and the split never recovers. SBD-D^2
// ("k-means++-style") seeding starts from spread-out series instead. This
// bench quantifies the gap per dataset and in aggregate.

#include <iostream>

#include "core/kshape.h"
#include "data/archive.h"
#include "harness/experiments.h"
#include "harness/table.h"
#include "common/stopwatch.h"

namespace kshape {
namespace {

// Runs `inner` and sums the ++ seeding telemetry of every run, so the
// seeding's share of the SBD-D2 time column can be printed.
class SeedingTally : public cluster::ClusteringAlgorithm {
 public:
  explicit SeedingTally(const cluster::ClusteringAlgorithm& inner)
      : inner_(inner) {}

  cluster::ClusteringResult Cluster(const tseries::SeriesBatch& series, int k,
                                    common::Rng* rng) const override {
    cluster::ClusteringResult result = inner_.Cluster(series, k, rng);
    seconds_ += result.seeding_seconds;
    stats_.computed += result.seeding_stats.computed;
    stats_.pruned_bounds += result.seeding_stats.pruned_bounds;
    stats_.abandoned_partial += result.seeding_stats.abandoned_partial;
    return result;
  }

  std::string Name() const override { return inner_.Name(); }

  double seconds() const { return seconds_; }
  const cluster::AssignmentIterationStats& stats() const { return stats_; }

 private:
  const cluster::ClusteringAlgorithm& inner_;
  mutable double seconds_ = 0.0;
  mutable cluster::AssignmentIterationStats stats_;
};

}  // namespace
}  // namespace kshape

int main() {
  using namespace kshape;

  const auto archive = data::MakeSyntheticArchive();

  const core::KShape kshape_random;  // Paper default.
  core::KShapeOptions pp_options;
  pp_options.init = core::KShapeInit::kPlusPlusSeeding;
  const core::KShape kshape_plus_plus(pp_options);
  const SeedingTally kshape_pp(kshape_plus_plus);

  harness::MethodScores random_scores{"k-Shape (random init)", {}, 0.0};
  harness::MethodScores pp_scores{"k-Shape (SBD-D2 seeding)", {}, 0.0};
  std::vector<std::string> dataset_names;

  uint64_t seed = 99;
  for (const auto& split : archive) {
    const tseries::Dataset fused = split.Fused();
    const int k = fused.NumClasses();
    dataset_names.push_back(split.name());
    {
      common::Stopwatch timer;
      random_scores.scores.push_back(harness::AverageRandIndex(
          kshape_random, fused.batch(), fused.labels(), k, 10, seed));
      random_scores.total_seconds += timer.ElapsedSeconds();
    }
    {
      common::Stopwatch timer;
      pp_scores.scores.push_back(harness::AverageRandIndex(
          kshape_pp, fused.batch(), fused.labels(), k, 10, seed));
      pp_scores.total_seconds += timer.ElapsedSeconds();
    }
    ++seed;
  }

  harness::PrintSection(std::cout,
                        "Ablation: k-Shape initialization (random "
                        "assignment, Algorithm 3, vs SBD-D2 seeding)");
  harness::PrintComparisonTable(random_scores, {pp_scores}, "Rand Index",
                                0.01, std::cout);
  const cluster::AssignmentIterationStats& seeding = kshape_pp.stats();
  std::cout << "\nSBD-D2 seeding: "
            << harness::FormatDouble(kshape_pp.seconds(), 3) << " s of the "
            << harness::FormatDouble(pp_scores.total_seconds, 3)
            << " s total; seed-to-series pairs: " << seeding.computed
            << " computed, " << seeding.pruned_bounds
            << " skipped by the triangle test, " << seeding.abandoned_partial
            << " abandoned by the spectral bound\n";
  harness::PrintSection(std::cout, "Per-dataset Rand index");
  harness::PrintScatterPairs(random_scores, pp_scores, dataset_names,
                             std::cout);
  std::cout << "\n(The paper's protocol — averaging over random restarts — "
               "already absorbs part\nof the initialization variance; the "
               "seeding mainly helps datasets whose class\nshapes are "
               "similar, where random mixtures start indistinguishable.)\n";
  return 0;
}
