// Cached-vs-uncached SBD benchmark for the spectrum-cache engine: times every
// consumer of the cache (pairwise distance matrix, full k-Shape, 1-NN
// classification) against the per-pair Sbd() path at the same thread count,
// and cross-checks that the two paths agree within the documented tolerance.
// One BENCH JSON line per (workload, thread count):
//
//   BENCH {"bench":"sbd_cache","workload":"pairwise_matrix","impl":"fft",
//          "n":200,"m":512,"threads":1,"uncached_seconds":2.416,
//          "cached_seconds":0.913,"speedup":2.65}
//
// The same records are also written to BENCH_sbd_cache.json (a JSON array) in
// the working directory for CI consumption. The acceptance bar for this
// bench: >= 2x on the pairwise matrix workload (n >= 200, m >= 256).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
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
#include "linalg/matrix.h"
#include "tseries/normalization.h"

namespace {

using kshape::tseries::Series;

constexpr int kThreadCounts[] = {1, 4};

// SBD without the batched hooks: Distance() is the same per-pair Sbd() call,
// but PairwiseDistanceMatrix and the accuracy loops see no batch support and
// fall back to their generic paths — the pre-cache behavior.
class UncachedSbd : public kshape::distance::DistanceMeasure {
 public:
  explicit UncachedSbd(
      kshape::core::CrossCorrelationImpl impl =
          kshape::core::CrossCorrelationImpl::kFft)
      : impl_(impl) {}

  double Distance(kshape::tseries::SeriesView x,
                  kshape::tseries::SeriesView y) const override {
    return kshape::core::Sbd(x, y, impl_).distance;
  }

  std::string Name() const override { return "SBD_uncached"; }

 private:
  kshape::core::CrossCorrelationImpl impl_;
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
  kshape::tseries::Dataset dataset("sbd-cache");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(kshape::tseries::ZNormalized(
                    kshape::data::MakeCbf(klass, m, &rng)),
                klass);
  }
  return dataset;
}

// Collected records, serialized to BENCH_sbd_cache.json at exit.
kshape::bench::BenchJson g_records;

void Record(const char* workload, const char* impl, std::size_t n,
            std::size_t m, int threads, double uncached_seconds,
            double cached_seconds) {
  const double speedup =
      cached_seconds > 0.0 ? uncached_seconds / cached_seconds : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"sbd_cache\",\"workload\":\"%s\",\"impl\":\"%s\","
      "\"n\":%zu,\"m\":%zu,\"threads\":%d,\"uncached_seconds\":%.6f,"
      "\"cached_seconds\":%.6f,\"speedup\":%.3f}",
      workload, impl, n, m, threads, uncached_seconds, cached_seconds,
      speedup);
  g_records.Add(buffer);
}

double TimeSeconds(const std::function<void()>& run) {
  kshape::common::Stopwatch timer;
  run();
  return timer.ElapsedSeconds();
}

double MaxAbsDiff(const kshape::linalg::Matrix& a,
                  const kshape::linalg::Matrix& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      max_diff = std::max(max_diff, std::abs(a(i, j) - b(i, j)));
    }
  }
  return max_diff;
}

void BenchPairwise(const char* workload, const char* impl_name,
                   kshape::core::CrossCorrelationImpl impl, std::size_t n,
                   std::size_t m) {
  using namespace kshape;
  harness::PrintSection(
      std::cout, std::string("Pairwise SBD matrix (") + workload + ", n=" +
                     std::to_string(n) + ", m=" + std::to_string(m) + ")");
  const std::vector<Series> series = MakeSeries(n, m, 1);
  const UncachedSbd uncached(impl);
  const core::SbdDistance cached(impl);

  // Equivalence first: the two paths must agree within the documented
  // tolerance (epsilon, not bitwise — the packed transform rounds
  // differently from the cached per-series transforms).
  common::SetThreadCount(1);
  const linalg::Matrix reference =
      cluster::PairwiseDistanceMatrix(series, uncached);
  const linalg::Matrix cached_matrix =
      cluster::PairwiseDistanceMatrix(series, cached);
  const double max_diff = MaxAbsDiff(reference, cached_matrix);
  std::printf("max |cached - uncached| = %.3e\n", max_diff);
  KSHAPE_CHECK_MSG(max_diff < 1e-8, "cached matrix disagrees with direct SBD");

  harness::TablePrinter table(
      {"threads", "uncached (s)", "cached (s)", "speedup"});
  for (int threads : kThreadCounts) {
    common::SetThreadCount(threads);
    const double uncached_seconds = TimeSeconds(
        [&] { cluster::PairwiseDistanceMatrix(series, uncached); });
    const double cached_seconds =
        TimeSeconds([&] { cluster::PairwiseDistanceMatrix(series, cached); });
    Record(workload, impl_name, n, m, threads, uncached_seconds,
           cached_seconds);
    table.AddRow({std::to_string(threads),
                  harness::FormatDouble(uncached_seconds, 4),
                  harness::FormatDouble(cached_seconds, 4),
                  harness::FormatRatio(uncached_seconds / cached_seconds)});
  }
  table.Print(std::cout);
  kshape::common::SetThreadCount(1);
}

}  // namespace

int main() {
  using namespace kshape;

  // The acceptance workload: n=200 series of length m=512 (power-of-two FFT
  // length), then a Bluestein configuration (fft_len = 2m-1 = 767, not a
  // power of two) to show the chirp-z path benefits too.
  BenchPairwise("pairwise_matrix", "fft", core::CrossCorrelationImpl::kFft,
                200, 512);
  BenchPairwise("pairwise_matrix_bluestein", "fft_no_pow2",
                core::CrossCorrelationImpl::kFftNoPow2, 120, 384);

  // Full k-Shape: series spectra once per call, centroid spectra once per
  // iteration. An SbdDistance assignment distance switches the identical
  // algorithm back to per-pair Sbd().
  {
    constexpr std::size_t n = 300;
    constexpr std::size_t m = 256;
    harness::PrintSection(std::cout,
                          "k-Shape full run, ++ seeding (n=300, m=256, k=3)");
    const std::vector<Series> series = MakeSeries(n, m, 2);
    core::KShapeOptions cached_options;
    cached_options.init = core::KShapeInit::kPlusPlusSeeding;
    const core::SbdDistance per_pair_sbd;
    core::KShapeOptions uncached_options = cached_options;
    uncached_options.assignment_distance = &per_pair_sbd;
    const core::KShape cached_kshape(cached_options);
    const core::KShape uncached_kshape(uncached_options);

    auto run = [&](const core::KShape& algorithm) {
      common::Rng rng(7);
      return algorithm.Cluster(series, 3, &rng);
    };
    const cluster::ClusteringResult reference = run(uncached_kshape);
    const cluster::ClusteringResult cached_result = run(cached_kshape);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < n; ++i) {
      agree += reference.assignments[i] == cached_result.assignments[i];
    }
    std::printf("assignment agreement: %zu/%zu\n", agree, n);
    KSHAPE_CHECK_MSG(agree == n, "cached k-Shape changed the clustering");

    harness::TablePrinter table(
        {"threads", "uncached (s)", "cached (s)", "speedup"});
    for (int threads : kThreadCounts) {
      common::SetThreadCount(threads);
      const double uncached_seconds =
          TimeSeconds([&] { run(uncached_kshape); });
      const double cached_seconds = TimeSeconds([&] { run(cached_kshape); });
      Record("kshape_plusplus", "fft", n, m, threads, uncached_seconds,
             cached_seconds);
      table.AddRow({std::to_string(threads),
                    harness::FormatDouble(uncached_seconds, 4),
                    harness::FormatDouble(cached_seconds, 4),
                    harness::FormatRatio(uncached_seconds / cached_seconds)});
    }
    table.Print(std::cout);
    common::SetThreadCount(1);
  }

  // 1-NN SBD accuracy: training spectra once per call via the batch scanner.
  {
    constexpr std::size_t n_train = 150;
    constexpr std::size_t n_test = 100;
    constexpr std::size_t m = 256;
    harness::PrintSection(
        std::cout, "1-NN SBD accuracy (train=150, test=100, m=256)");
    const tseries::Dataset train = MakeDataset(n_train, m, 4);
    const tseries::Dataset test = MakeDataset(n_test, m, 5);
    const UncachedSbd uncached;
    const core::SbdDistance cached;

    common::SetThreadCount(1);
    const double reference_accuracy =
        classify::OneNnAccuracy(train, test, uncached);
    const double cached_accuracy =
        classify::OneNnAccuracy(train, test, cached);
    std::printf("accuracy: uncached=%.4f cached=%.4f\n", reference_accuracy,
                cached_accuracy);
    KSHAPE_CHECK_MSG(reference_accuracy == cached_accuracy,
                     "cached 1-NN changed predictions");

    harness::TablePrinter table(
        {"threads", "uncached (s)", "cached (s)", "speedup"});
    for (int threads : kThreadCounts) {
      common::SetThreadCount(threads);
      const double uncached_seconds = TimeSeconds(
          [&] { classify::OneNnAccuracy(train, test, uncached); });
      const double cached_seconds =
          TimeSeconds([&] { classify::OneNnAccuracy(train, test, cached); });
      Record("one_nn_sbd", "fft", n_train + n_test, m, threads,
             uncached_seconds, cached_seconds);
      table.AddRow({std::to_string(threads),
                    harness::FormatDouble(uncached_seconds, 4),
                    harness::FormatDouble(cached_seconds, 4),
                    harness::FormatRatio(uncached_seconds / cached_seconds)});
    }
    table.Print(std::cout);
    common::SetThreadCount(1);
  }

  g_records.Write("BENCH_sbd_cache.json");
  return 0;
}
