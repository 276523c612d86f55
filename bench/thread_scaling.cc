// Thread-scaling benchmark for the parallel execution layer: times each
// parallelized hot path at 1/2/4/8 threads and reports speedup vs the
// single-threaded run, one BENCH JSON line per (path, thread count) so the
// numbers are machine-parseable:
//
//   BENCH {"bench":"thread_scaling","path":"pairwise_sbd","n":200,"m":512,
//          "threads":4,"seconds":1.234,"speedup_vs_1":3.81}
//
// It also cross-checks the determinism guarantee: every path's result at
// every thread count must be bit-identical to the 1-thread reference (the
// binary aborts otherwise, so a regression cannot produce plausible-looking
// timings). On machines with fewer cores than threads the speedup saturates
// at the core count — the invariance checks still hold.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "classify/nearest_neighbor.h"
#include "cluster/kmedoids.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "data/generators.h"
#include "harness/table.h"
#include "tseries/normalization.h"

namespace {

using kshape::tseries::Series;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// SBD without the batched hooks, so PairwiseDistanceMatrix takes the generic
// per-pair loop — the uncached mode of the spectrum-cache comparison.
class UncachedSbd : public kshape::distance::DistanceMeasure {
 public:
  double Distance(kshape::tseries::SeriesView x,
                  kshape::tseries::SeriesView y) const override {
    return kshape::core::Sbd(x, y).distance;
  }
  std::string Name() const override { return "SBD_uncached"; }
};

std::vector<Series> MakeSeries(std::size_t n, std::size_t m, uint64_t seed) {
  kshape::common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(kshape::tseries::ZNormalized(
        kshape::data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
  }
  return series;
}

kshape::tseries::Dataset MakeDataset(std::size_t n, std::size_t m,
                                     uint64_t seed) {
  kshape::common::Rng rng(seed);
  kshape::tseries::Dataset dataset("thread-scaling");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(kshape::tseries::ZNormalized(
                    kshape::data::MakeCbf(klass, m, &rng)),
                klass);
  }
  return dataset;
}

void EmitBenchLine(const char* path, std::size_t n, std::size_t m,
                   int threads, double seconds, double speedup) {
  std::printf(
      "BENCH {\"bench\":\"thread_scaling\",\"path\":\"%s\",\"n\":%zu,"
      "\"m\":%zu,\"threads\":%d,\"seconds\":%.6f,\"speedup_vs_1\":%.3f}\n",
      path, n, m, threads, seconds, speedup);
}

// Times `run` at each thread count; `run` returns a digest of its result,
// which must match the 1-thread reference exactly.
void BenchPath(const char* path, std::size_t n, std::size_t m,
               const std::function<std::vector<double>()>& run) {
  double baseline_seconds = 0.0;
  std::vector<double> reference;
  kshape::harness::TablePrinter table({"threads", "seconds", "speedup"});
  for (int threads : kThreadCounts) {
    kshape::common::SetThreadCount(threads);
    kshape::common::Stopwatch timer;
    const std::vector<double> digest = run();
    const double seconds = timer.ElapsedSeconds();
    if (threads == 1) {
      baseline_seconds = seconds;
      reference = digest;
    } else {
      KSHAPE_CHECK_MSG(digest == reference,
                       "thread-count invariance violated");
    }
    const double speedup = seconds > 0.0 ? baseline_seconds / seconds : 0.0;
    EmitBenchLine(path, n, m, threads, seconds, speedup);
    table.AddRow({std::to_string(threads),
                  kshape::harness::FormatDouble(seconds, 4),
                  kshape::harness::FormatRatio(speedup)});
  }
  table.Print(std::cout);
  kshape::common::SetThreadCount(1);
}

}  // namespace

int main() {
  using namespace kshape;

  std::printf("hardware_concurrency=%d KSHAPE_THREADS default=%d\n",
              static_cast<int>(std::thread::hardware_concurrency()),
              common::DefaultThreadCount());

  // The acceptance workload: symmetric pairwise SBD matrix, n=200, m=512.
  // Two modes: the default spectrum-cached engine and the per-pair fallback.
  {
    const std::vector<Series> series = MakeSeries(200, 512, 1);
    auto matrix_digest = [&](const distance::DistanceMeasure& measure) {
      const linalg::Matrix d = cluster::PairwiseDistanceMatrix(series,
                                                               measure);
      std::vector<double> digest;
      digest.reserve(d.rows() * d.cols());
      for (std::size_t i = 0; i < d.rows(); ++i) {
        for (std::size_t j = 0; j < d.cols(); ++j) digest.push_back(d(i, j));
      }
      return digest;
    };
    harness::PrintSection(
        std::cout, "Pairwise SBD distance matrix, cached (n=200, m=512)");
    const core::SbdDistance sbd;
    BenchPath("pairwise_sbd", 200, 512, [&] { return matrix_digest(sbd); });
    harness::PrintSection(
        std::cout, "Pairwise SBD distance matrix, uncached (n=200, m=512)");
    const UncachedSbd uncached_sbd;
    BenchPath("pairwise_sbd_uncached", 200, 512,
              [&] { return matrix_digest(uncached_sbd); });
  }

  // Full k-Shape run (++ seeding exercises the D^2 scans too), in both the
  // spectrum-cached and the per-pair ablation modes.
  {
    const std::vector<Series> series = MakeSeries(300, 256, 2);
    auto kshape_digest = [&](const core::KShape& algorithm) {
      common::Rng rng(7);
      const cluster::ClusteringResult result =
          algorithm.Cluster(series, 3, &rng);
      std::vector<double> digest;
      for (int a : result.assignments) digest.push_back(a);
      for (const Series& c : result.centroids) {
        digest.insert(digest.end(), c.begin(), c.end());
      }
      return digest;
    };
    core::KShapeOptions options;
    options.init = core::KShapeInit::kPlusPlusSeeding;
    const core::KShape algorithm(options);
    harness::PrintSection(
        std::cout, "k-Shape full run, ++ seeding, cached (n=300, m=256, k=3)");
    BenchPath("kshape_plusplus", 300, 256,
              [&] { return kshape_digest(algorithm); });
    const core::SbdDistance per_pair_sbd;
    core::KShapeOptions uncached_options = options;
    uncached_options.assignment_distance = &per_pair_sbd;
    const core::KShape uncached_algorithm(uncached_options);
    harness::PrintSection(
        std::cout,
        "k-Shape full run, ++ seeding, uncached (n=300, m=256, k=3)");
    BenchPath("kshape_plusplus_uncached", 300, 256,
              [&] { return kshape_digest(uncached_algorithm); });
  }

  // Leave-one-out 1-NN under cDTW (the window-tuning inner loop).
  {
    harness::PrintSection(std::cout, "Leave-one-out 1-NN cDTW (n=150, m=256)");
    const tseries::Dataset data = MakeDataset(150, 256, 3);
    BenchPath("loo_cdtw_1nn", 150, 256, [&] {
      return std::vector<double>{
          classify::LeaveOneOutCdtwAccuracy(data, 12)};
    });
  }

  // 1-NN SBD accuracy over a train/test split.
  {
    harness::PrintSection(std::cout, "1-NN SBD accuracy (train=150, test=100, "
                                     "m=256)");
    const tseries::Dataset train = MakeDataset(150, 256, 4);
    const tseries::Dataset test = MakeDataset(100, 256, 5);
    const core::SbdDistance sbd;
    BenchPath("one_nn_sbd", 250, 256, [&] {
      return std::vector<double>{classify::OneNnAccuracy(train, test, sbd)};
    });
  }

  return 0;
}
