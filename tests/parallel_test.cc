// Thread-count invariance of every parallelized hot path: the same inputs
// (and, where stochastic, the same RNG seed) must produce bit-for-bit
// identical results with KSHAPE_THREADS = 1, 2, and 8. Each check runs the
// computation once per thread count via SetThreadCount and compares the raw
// doubles with operator== — no tolerances, by design: the parallel layer
// only redistributes identical per-index computations across threads.
//
// This binary is also the one CI runs under ThreadSanitizer, so the bodies
// double as race detectors for the pool and the FFT scratch caches.

#include <cstddef>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "classify/nearest_neighbor.h"
#include "cluster/kmedoids.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/multivariate.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "core/shape_extraction.h"
#include "data/generators.h"
#include "distance/dtw.h"
#include "tseries/conditioning.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<Series> MakeSeries(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
  }
  return series;
}

tseries::Dataset MakeDataset(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  tseries::Dataset dataset("parallel-test");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(tseries::ZNormalized(data::MakeCbf(klass, m, &rng)), klass);
  }
  return dataset;
}

// Runs `compute` once per thread count and asserts all results compare equal
// under `equal` (exact equality — the invariance guarantee is bitwise).
template <typename T>
void ExpectInvariant(const std::function<T()>& compute,
                     const std::function<bool(const T&, const T&)>& equal,
                     const char* what) {
  common::SetThreadCount(kThreadCounts[0]);
  const T reference = compute();
  for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
    common::SetThreadCount(kThreadCounts[t]);
    const T other = compute();
    EXPECT_TRUE(equal(reference, other))
        << what << " differs between " << kThreadCounts[0] << " and "
        << kThreadCounts[t] << " threads";
  }
  common::SetThreadCount(1);
}

bool MatricesBitIdentical(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

bool ResultsBitIdentical(const cluster::ClusteringResult& a,
                         const cluster::ClusteringResult& b) {
  if (a.assignments != b.assignments) return false;
  if (a.iterations != b.iterations || a.converged != b.converged) return false;
  if (a.empty_cluster_reseeds != b.empty_cluster_reseeds) return false;
  if (a.degenerate_centroids != b.degenerate_centroids) return false;
  if (a.centroids.size() != b.centroids.size()) return false;
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    if (a.centroids[j] != b.centroids[j]) return false;
  }
  return true;
}

TEST(ParallelInvarianceTest, PairwiseSbdDistanceMatrix) {
  const std::vector<Series> series = MakeSeries(40, 64, 1);
  const core::SbdDistance sbd;
  ExpectInvariant<linalg::Matrix>(
      [&] { return cluster::PairwiseDistanceMatrix(series, sbd); },
      MatricesBitIdentical, "pairwise SBD matrix");
  // The naive implementation declines the batched hook, so this runs the
  // generic per-pair loop over the same series.
  const core::SbdDistance naive(core::CrossCorrelationImpl::kNaive);
  ExpectInvariant<linalg::Matrix>(
      [&] { return cluster::PairwiseDistanceMatrix(series, naive); },
      MatricesBitIdentical, "pairwise SBD matrix (per-pair loop)");
}

TEST(ParallelInvarianceTest, PairwiseCdtwDistanceMatrix) {
  const std::vector<Series> series = MakeSeries(24, 48, 2);
  const dtw::DtwMeasure cdtw5 = dtw::DtwMeasure::SakoeChiba(0.05, "cDTW5");
  ExpectInvariant<linalg::Matrix>(
      [&] { return cluster::PairwiseDistanceMatrix(series, cdtw5); },
      MatricesBitIdentical, "pairwise cDTW matrix");
}

TEST(ParallelInvarianceTest, KShapeFullRunRandomInit) {
  const std::vector<Series> series = MakeSeries(36, 64, 3);
  const core::KShape algorithm;
  ExpectInvariant<cluster::ClusteringResult>(
      [&] {
        common::Rng rng(7);  // Fresh identical seed per thread count.
        return algorithm.Cluster(series, 3, &rng);
      },
      ResultsBitIdentical, "k-Shape (random init)");
}

TEST(ParallelInvarianceTest, KShapeFullRunPlusPlusInit) {
  // ++ seeding exercises the parallel D^2 scans *and* the RNG-driven
  // sequential sampling between them; invariance proves the scans do not
  // perturb the random stream.
  const std::vector<Series> series = MakeSeries(36, 64, 4);
  core::KShapeOptions options;
  options.init = core::KShapeInit::kPlusPlusSeeding;
  const core::KShape algorithm(options);
  ExpectInvariant<cluster::ClusteringResult>(
      [&] {
        common::Rng rng(11);
        return algorithm.Cluster(series, 3, &rng);
      },
      ResultsBitIdentical, "k-Shape (++ init)");
}

TEST(ParallelInvarianceTest, KShapeFullRunWithoutSpectrumCache) {
  // The per-pair path (an SbdDistance assignment distance) must stay
  // invariant too — it is the reference the cached pipeline is
  // tolerance-tested against.
  const std::vector<Series> series = MakeSeries(36, 64, 3);
  const core::SbdDistance sbd;
  for (const core::KShapeInit init : {core::KShapeInit::kRandomAssignment,
                                      core::KShapeInit::kPlusPlusSeeding}) {
    core::KShapeOptions options;
    options.init = init;
    options.assignment_distance = &sbd;
    const core::KShape algorithm(options);
    ExpectInvariant<cluster::ClusteringResult>(
        [&] {
          common::Rng rng(7);
          return algorithm.Cluster(series, 3, &rng);
        },
        ResultsBitIdentical,
        init == core::KShapeInit::kPlusPlusSeeding
            ? "k-Shape (no spectrum cache, ++ init)"
            : "k-Shape (no spectrum cache)");
  }
}

TEST(ParallelInvarianceTest, MatrixFreeShapeExtraction) {
  // The matrix-free extraction matvec fans out over fixed row blocks
  // (linalg::RowPoolMatVec) with a sequential fixed-order reduction; the
  // chunk boundaries are a pure function of the row count, never the thread
  // count, so the centroid must be bit-identical at every parallelism level.
  // This binary runs under TSan in CI, so the disjoint-write claim of the
  // block partials is race-checked here too.
  const std::vector<Series> members = MakeSeries(48, 96, 17);
  const Series reference = tseries::ZNormalized(members[0]);
  for (const bool warm : {false, true}) {
    core::ShapeExtractionOptions options;
    options.warm_start = warm;
    ASSERT_GE(members.size(), options.matrix_free_min_members);
    ExpectInvariant<Series>(
        [&] {
          common::Rng rng(19);
          return core::ExtractShape(members, warm ? reference : Series(96, 0.0),
                                    &rng, options);
        },
        [](const Series& a, const Series& b) { return a == b; },
        warm ? "matrix-free extraction (warm)"
             : "matrix-free extraction (cold)");
  }
}

TEST(ParallelInvarianceTest, SbdEnginePairwiseMatrix) {
  // The cached pipeline itself: the construction pre-pass (parallel forward
  // transforms with disjoint writes) and the row-parallel matrix fill must
  // both be bit-identical at every thread count. Rebuilding the engine inside
  // the lambda puts the pre-pass under test as well.
  const std::vector<Series> series = MakeSeries(30, 48, 13);
  ExpectInvariant<std::vector<double>>(
      [&] {
        const core::SbdEngine engine(series);
        std::vector<double> flat;
        engine.PairwiseFlat(&flat);
        return flat;
      },
      std::equal_to<std::vector<double>>(), "SbdEngine pairwise matrix");
}

TEST(ParallelInvarianceTest, SbdEngineDistanceToAll) {
  const std::vector<Series> series = MakeSeries(30, 48, 14);
  common::Rng rng(15);
  const Series query = tseries::ZNormalized(data::MakeCbf(1, 48, &rng));
  ExpectInvariant<std::vector<double>>(
      [&] {
        const core::SbdEngine engine(series);
        return engine.DistanceToAll(query);
      },
      std::equal_to<std::vector<double>>(), "SbdEngine DistanceToAll");
}

TEST(ParallelInvarianceTest, MultivariateKShapeFullRun) {
  // Covers the multichannel SbdEngine pre-pass (per-channel spectrum slots
  // and bound planes), its pruned channel-summed scans, and ClusterBlocks'
  // per-channel refinement.
  std::vector<core::MultivariateSeries> series;
  common::Rng rng(16);
  for (int i = 0; i < 24; ++i) {
    core::MultivariateSeries s;
    s.channels.push_back(
        tseries::ZNormalized(data::MakeCbf(i % 3, 40, &rng)));
    s.channels.push_back(
        tseries::ZNormalized(data::MakeCbf((i + 1) % 3, 40, &rng)));
    series.push_back(std::move(s));
  }
  const core::MultivariateKShape algorithm;
  auto equal = [](const core::MultivariateClusteringResult& a,
                  const core::MultivariateClusteringResult& b) {
    if (a.assignments != b.assignments) return false;
    if (a.iterations != b.iterations || a.converged != b.converged) {
      return false;
    }
    if (a.centroids.size() != b.centroids.size()) return false;
    for (std::size_t j = 0; j < a.centroids.size(); ++j) {
      if (a.centroids[j].channels != b.centroids[j].channels) return false;
    }
    return true;
  };
  ExpectInvariant<core::MultivariateClusteringResult>(
      [&] {
        common::Rng run_rng(21);
        return algorithm.Cluster(series, 3, &run_rng);
      },
      equal, "multivariate k-Shape");
}

// Determinism regression for the robustness layer: a fault-injected corpus
// (NaN runs, dropped tails, stuck segments) conditioned through the official
// repair path, then clustered with empty-cluster repair and degenerate
// flagging active, must stay bit-identical across thread counts — including
// the repair telemetry itself.
tseries::Dataset MakeConditionedCorruptedDataset(uint64_t seed) {
  common::Rng rng(seed);
  data::FaultInjectionOptions faults;
  faults.nan_probability = 0.4;
  faults.truncate_probability = 0.4;
  faults.constant_probability = 0.2;
  const data::CorruptedData corpus = data::MakeCorruptedData(
      "parallel-corrupted", 3, 10, [](int klass, common::Rng* r) {
        return data::MakeCbf(klass, 64, r);
      }, faults, &rng);
  tseries::ConditioningOptions options;
  options.length_policy = tseries::LengthPolicy::kResample;
  options.missing_policy = tseries::MissingPolicy::kInterpolate;
  auto dataset = tseries::ConditionToDataset(corpus.series, corpus.labels,
                                             corpus.name, options);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  tseries::Dataset out = std::move(dataset).value();
  out.ApplyInPlace(
      [](tseries::MutableSeriesView row) { tseries::ZNormalizeInPlace(row); });
  return out;
}

TEST(ParallelInvarianceTest, KShapeOnConditionedCorruptedCorpus) {
  const tseries::Dataset dataset = MakeConditionedCorruptedDataset(31);
  const core::KShape algorithm;
  ExpectInvariant<cluster::ClusteringResult>(
      [&] {
        common::Rng rng(9);
        auto result = algorithm.TryCluster(dataset.batch(), 3, &rng);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return std::move(result).value();
      },
      ResultsBitIdentical, "k-Shape on conditioned corrupted corpus");
}

TEST(ParallelInvarianceTest, CachedAndUncachedSbdAgreeOnConditionedLabels) {
  // Identical seeds must give identical labels whether SBD runs through the
  // spectrum cache or per pair, at every thread count. Centroids are not
  // compared: the cached distances agree within a tolerance, not bitwise, so
  // only the discrete outputs (assignments, iteration count, telemetry) are
  // required to coincide.
  const tseries::Dataset dataset = MakeConditionedCorruptedDataset(33);
  const core::SbdDistance sbd;
  core::KShapeOptions uncached_options;
  uncached_options.assignment_distance = &sbd;
  const core::KShape cached;
  const core::KShape uncached(uncached_options);

  common::SetThreadCount(1);
  common::Rng reference_rng(17);
  const cluster::ClusteringResult reference =
      uncached.Cluster(dataset.batch(), 3, &reference_rng);

  for (const int threads : kThreadCounts) {
    common::SetThreadCount(threads);
    for (const core::KShape* algorithm : {&cached, &uncached}) {
      common::Rng rng(17);
      const cluster::ClusteringResult result =
          algorithm->Cluster(dataset.batch(), 3, &rng);
      EXPECT_EQ(result.assignments, reference.assignments)
          << "threads=" << threads;
      EXPECT_EQ(result.iterations, reference.iterations)
          << "threads=" << threads;
      EXPECT_EQ(result.empty_cluster_reseeds, reference.empty_cluster_reseeds)
          << "threads=" << threads;
      EXPECT_EQ(result.degenerate_centroids, reference.degenerate_centroids)
          << "threads=" << threads;
    }
  }
  common::SetThreadCount(1);
}

TEST(ParallelInvarianceTest, OneNnAccuracySbd) {
  const tseries::Dataset train = MakeDataset(30, 64, 5);
  const tseries::Dataset test = MakeDataset(20, 64, 6);
  const core::SbdDistance sbd;
  ExpectInvariant<double>(
      [&] { return classify::OneNnAccuracy(train, test, sbd); },
      std::equal_to<double>(), "1-NN SBD accuracy");
}

TEST(ParallelInvarianceTest, LeaveOneOutCdtwAccuracy) {
  const tseries::Dataset data = MakeDataset(26, 48, 8);
  ExpectInvariant<double>(
      [&] { return classify::LeaveOneOutCdtwAccuracy(data, 3); },
      std::equal_to<double>(), "LOO cDTW accuracy");
}

TEST(ParallelInvarianceTest, TunedCdtwWindow) {
  // Window tuning stacks LOO runs; the chosen window is an integer, so any
  // scheduling sensitivity in the underlying accuracies would surface here.
  const tseries::Dataset train = MakeDataset(20, 40, 9);
  ExpectInvariant<int>(
      [&] {
        return classify::TuneCdtwWindowLoo(train, {0.0, 0.02, 0.05, 0.1});
      },
      std::equal_to<int>(), "tuned cDTW window");
}

TEST(ParallelInvarianceTest, KnnAndEarlyAbandonAccuracies) {
  const tseries::Dataset train = MakeDataset(24, 48, 10);
  const tseries::Dataset test = MakeDataset(15, 48, 12);
  const core::SbdDistance sbd;
  ExpectInvariant<double>(
      [&] { return classify::KnnAccuracy(train, test, sbd, 3); },
      std::equal_to<double>(), "3-NN SBD accuracy");
  ExpectInvariant<double>(
      [&] { return classify::OneNnAccuracyEdEarlyAbandon(train, test); },
      std::equal_to<double>(), "1-NN ED early-abandon accuracy");
}

}  // namespace
}  // namespace kshape
