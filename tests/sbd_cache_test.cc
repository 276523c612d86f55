// Equivalence contract of the spectrum-cached SBD path: every cached
// evaluation (SbdEngine, the batched pairwise hook, the 1-NN batch scanner,
// cached k-Shape, cached multivariate k-Shape) must agree with the direct
// per-pair path to a tight epsilon. Epsilon, not bitwise, by design: the
// direct path packs x + i*y into one complex transform while the cached path
// transforms each series separately, and the two round differently in the
// last ulps. Exact-value conventions (zero diagonal, distance exactly 1 for
// zero-norm inputs, bitwise matrix symmetry) ARE bitwise and are asserted
// with operator==, and so are cached k-Shape centroids against the per-pair
// run: extraction aligns members by integer NCC peak shifts, which the two
// paths agree on.

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "classify/nearest_neighbor.h"
#include "cluster/kmedoids.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/multivariate.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "distance/measure.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

// Power-of-two-transform tolerance; the Bluestein chain is longer, so the
// non-power-of-two lengths get an extra order of magnitude.
constexpr double kEpsPow2 = 1e-9;
constexpr double kEpsBluestein = 1e-8;

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
  tseries::Dataset dataset("sbd-cache-test");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(tseries::ZNormalized(data::MakeCbf(klass, m, &rng)), klass);
  }
  return dataset;
}

void ExpectEngineMatchesDirect(std::size_t m, core::CrossCorrelationImpl impl,
                               double eps) {
  const std::vector<Series> series = MakeSeries(12, m, m);
  const core::SbdEngine engine(series, impl);
  EXPECT_EQ(engine.size(), series.size());
  EXPECT_EQ(engine.series_length(), m);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      const double direct = core::Sbd(series[i], series[j], impl).distance;
      EXPECT_NEAR(engine.Distance(i, j), direct, eps)
          << "m=" << m << " pair (" << i << "," << j << ")";
    }
  }
}

TEST(SbdCacheTest, EngineMatchesDirectSbdPowerOfTwoLengths) {
  // 2m-1 already a power of two is impossible for m > 1, so these all pad;
  // m=64 and m=128 give fft_len 128 and 256.
  for (std::size_t m : {16, 64, 128}) {
    ExpectEngineMatchesDirect(m, core::CrossCorrelationImpl::kFft, kEpsPow2);
  }
}

TEST(SbdCacheTest, EngineMatchesDirectSbdBluesteinLengths) {
  // kFftNoPow2 transforms at exactly 2m-1: m=24 -> 47 (prime), m=50 -> 99,
  // m=80 -> 159 — all through the cached Bluestein chirp plans.
  for (std::size_t m : {24, 50, 80}) {
    ExpectEngineMatchesDirect(m, core::CrossCorrelationImpl::kFftNoPow2,
                              kEpsBluestein);
  }
}

TEST(SbdCacheTest, QueryPathMatchesDirectSbd) {
  const std::vector<Series> series = MakeSeries(10, 96, 1);
  common::Rng rng(2);
  const Series query = tseries::ZNormalized(data::MakeCbf(2, 96, &rng));
  const core::SbdEngine engine(series);
  const core::SbdEngine::Query q = engine.MakeQuery(query);
  std::vector<double> batched;
  engine.DistanceToAll(q, &batched);
  ASSERT_EQ(batched.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double direct = core::Sbd(query, series[i]).distance;
    EXPECT_NEAR(engine.Distance(q, i), direct, kEpsPow2);
    EXPECT_EQ(batched[i], engine.Distance(q, i));  // Same arithmetic path.
  }
}

TEST(SbdCacheTest, MaxNccMatchesDirectShiftAndValue) {
  const std::vector<Series> series = MakeSeries(8, 70, 3);
  common::Rng rng(4);
  const Series query = tseries::ZNormalized(data::MakeCbf(0, 70, &rng));
  const core::SbdEngine engine(series);
  const core::SbdEngine::Query q = engine.MakeQuery(query);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const core::NccPeak direct = core::MaxNcc(
        query, series[i], core::NccNormalization::kCoefficient);
    const core::NccPeak cached = engine.MaxNcc(q, i);
    EXPECT_NEAR(cached.value, direct.value, kEpsPow2);
    EXPECT_EQ(cached.shift, direct.shift);
  }
}

TEST(SbdCacheTest, PairwiseMatrixConventions) {
  std::vector<Series> series = MakeSeries(9, 32, 5);
  series.push_back(Series(32, 0.0));  // Zero-norm member.
  const core::SbdEngine engine(series);
  std::vector<double> d;
  engine.PairwiseFlat(&d);
  const std::size_t n = series.size();
  ASSERT_EQ(d.size(), n * n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(d[i * n + i], 0.0);  // Exact zero diagonal.
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(d[i * n + j], d[j * n + i]);  // Bitwise symmetry.
    }
    // Zero-norm convention: exactly 1 against every other series.
    if (i + 1 < n) {
      EXPECT_EQ(d[i * n + n - 1], 1.0);
    }
  }
}

TEST(SbdCacheTest, BatchedPairwiseHookMatchesGenericLoop) {
  // The routed path consumers actually take: PairwiseDistanceMatrix with an
  // SbdDistance goes through DistanceMeasure::BatchedPairwise.
  const std::vector<Series> series = MakeSeries(14, 60, 6);
  const core::SbdDistance sbd;
  std::vector<double> flat;
  ASSERT_TRUE(sbd.BatchedPairwise(series, &flat));
  ASSERT_EQ(flat.size(), series.size() * series.size());
  const linalg::Matrix routed = cluster::PairwiseDistanceMatrix(series, sbd);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_EQ(routed(i, j), flat[i * series.size() + j]);
      EXPECT_NEAR(routed(i, j), sbd.Distance(series[i], series[j]), kEpsPow2);
    }
  }
  // The naive implementation has no spectra; the hook must decline so the
  // generic loop handles it.
  const core::SbdDistance naive(core::CrossCorrelationImpl::kNaive);
  std::vector<double> unused;
  EXPECT_FALSE(naive.BatchedPairwise(series, &unused));
  EXPECT_EQ(naive.NewBatchScanner(series), nullptr);
}

TEST(SbdCacheTest, BatchScannerMatchesDirectDistances) {
  const std::vector<Series> series = MakeSeries(11, 44, 7);
  common::Rng rng(8);
  const Series query = tseries::ZNormalized(data::MakeCbf(1, 44, &rng));
  const core::SbdDistance sbd;
  const std::unique_ptr<distance::BatchScanner> scanner =
      sbd.NewBatchScanner(series);
  ASSERT_NE(scanner, nullptr);
  std::vector<double> dists;
  scanner->DistancesToAll(query, &dists);
  ASSERT_EQ(dists.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_NEAR(dists[i], sbd.Distance(query, series[i]), kEpsPow2);
  }
}

// Runs k-Shape on the cached engine path and on the per-pair SbdDistance
// path from the same seed. The two see distances that differ only in the
// last ulps, which on these corpora never flips an argmin or an NCC peak
// lag — so assignments, iterations, convergence and repairs all match, and
// the centroids match bit for bit: both paths align each member by the same
// integer shift (the cached one reads it off the assignment's peak, the
// per-pair one recomputes it with Sbd()), and the aligned row depends on
// that shift alone. Returns the cached run's reseed count.
int ExpectCachedKShapeMatchesUncached(const std::vector<Series>& series,
                                      int k, core::KShapeInit init,
                                      uint64_t seed) {
  core::KShapeOptions cached_options;
  cached_options.init = init;
  const core::SbdDistance sbd;
  core::KShapeOptions uncached_options = cached_options;
  uncached_options.assignment_distance = &sbd;
  const core::KShape cached(cached_options);
  const core::KShape uncached(uncached_options);

  common::Rng rng_a(seed);
  common::Rng rng_b(seed);
  const cluster::ClusteringResult a = cached.Cluster(series, k, &rng_a);
  const cluster::ClusteringResult b = uncached.Cluster(series, k, &rng_b);
  EXPECT_EQ(a.assignments, b.assignments) << "seed " << seed;
  EXPECT_EQ(a.iterations, b.iterations) << "seed " << seed;
  EXPECT_EQ(a.converged, b.converged) << "seed " << seed;
  EXPECT_EQ(a.empty_cluster_reseeds, b.empty_cluster_reseeds)
      << "seed " << seed;
  EXPECT_EQ(a.centroids, b.centroids) << "seed " << seed;
  return a.empty_cluster_reseeds;
}

TEST(SbdCacheTest, CachedKShapeMatchesUncachedAssignments) {
  ExpectCachedKShapeMatchesUncached(MakeSeries(45, 64, 9), 3,
                                    core::KShapeInit::kPlusPlusSeeding, 10);
}

TEST(SbdCacheTest, CachedKShapeMatchesUncachedThroughRepairs) {
  // k close to n empties clusters under random assignment, so the repair
  // path (which moves rows without a recorded shift) runs between
  // refinements; the sweep must actually reseed, not pass vacuously.
  int reseeds = 0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    reseeds += ExpectCachedKShapeMatchesUncached(
        MakeSeries(12, 31, 300 + seed), 8, core::KShapeInit::kRandomAssignment,
        seed);
  }
  EXPECT_GT(reseeds, 0);
}

TEST(SbdCacheTest, CachedOneNnMatchesUncachedMeasure) {
  // A measure without the batch hooks forces the per-pair classify path;
  // SbdDistance routes through the scanner. Predictions must agree.
  class PlainSbd : public distance::DistanceMeasure {
   public:
    double Distance(tseries::SeriesView x,
                    tseries::SeriesView y) const override {
      return core::Sbd(x, y).distance;
    }
    std::string Name() const override { return "SBD_plain"; }
  };
  const tseries::Dataset train = MakeDataset(24, 52, 11);
  const tseries::Dataset test = MakeDataset(18, 52, 12);
  const core::SbdDistance cached;
  const PlainSbd plain;
  EXPECT_EQ(classify::OneNnAccuracy(train, test, cached),
            classify::OneNnAccuracy(train, test, plain));
  EXPECT_EQ(classify::KnnAccuracy(train, test, cached, 3),
            classify::KnnAccuracy(train, test, plain, 3));
}

TEST(SbdCacheTest, CachedMultivariateLabelsArePerPairArgmins) {
  // The cached mSBD assignment must pick the same centroid the per-pair
  // MultivariateSbd() would: distances differ only in the last ulps, which
  // on this data never flips an argmin, so the converged labels are a fixed
  // point of per-pair assignment against the final centroids.
  std::vector<core::MultivariateSeries> series;
  common::Rng rng(13);
  for (int i = 0; i < 21; ++i) {
    core::MultivariateSeries s;
    s.channels.push_back(tseries::ZNormalized(data::MakeCbf(i % 3, 48, &rng)));
    s.channels.push_back(
        tseries::ZNormalized(data::MakeCbf((i + 2) % 3, 48, &rng)));
    series.push_back(std::move(s));
  }
  const core::MultivariateKShape cached;
  common::Rng cluster_rng(14);
  const core::MultivariateClusteringResult result =
      cached.Cluster(series, 3, &cluster_rng);
  ASSERT_TRUE(result.converged);
  for (std::size_t i = 0; i < series.size(); ++i) {
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int j = 0; j < 3; ++j) {
      const double d =
          core::MultivariateSbd(result.centroids[j], series[i]).distance;
      if (d < best_dist) {
        best_dist = d;
        best = j;
      }
    }
    EXPECT_EQ(result.assignments[i], best) << "series " << i;
  }
}

// ---------------------------------------------------------------------------
// Half-spectrum vs full-complex cache equivalence (fft/rfft.h).
// ---------------------------------------------------------------------------

void ExpectHalfMatchesFull(std::size_t m, core::CrossCorrelationImpl impl,
                           double eps) {
  const std::vector<Series> series = MakeSeries(12, m, m + 1000);
  const core::SbdEngine full(series, impl, /*use_half_spectrum=*/false);
  const core::SbdEngine half(series, impl, /*use_half_spectrum=*/true);
  EXPECT_FALSE(full.half_spectrum());
  EXPECT_TRUE(half.half_spectrum());

  // Both layouts share one padded-length convention (see fft/fft.h): kFft
  // transforms at the next power of two >= 2m-1, kFftNoPow2 at exactly 2m-1.
  const std::size_t expected_len = impl == core::CrossCorrelationImpl::kFft
                                       ? fft::NextPowerOfTwo(2 * m - 1)
                                       : 2 * m - 1;
  EXPECT_EQ(full.fft_length(), expected_len);
  EXPECT_EQ(half.fft_length(), expected_len);

  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_NEAR(half.Distance(i, j), full.Distance(i, j), eps)
          << "m=" << m << " pair (" << i << "," << j << ")";
    }
  }

  // Query path: peak value to epsilon, integer shift exactly.
  common::Rng rng(m + 2000);
  const Series query = tseries::ZNormalized(data::MakeCbf(1, m, &rng));
  const core::SbdEngine::Query fq = full.MakeQuery(query);
  const core::SbdEngine::Query hq = half.MakeQuery(query);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_NEAR(half.Distance(hq, i), full.Distance(fq, i), eps);
    const core::NccPeak fp = full.MaxNcc(fq, i);
    const core::NccPeak hp = half.MaxNcc(hq, i);
    EXPECT_NEAR(hp.value, fp.value, eps);
    EXPECT_EQ(hp.shift, fp.shift);
  }
}

TEST(SbdCacheTest, HalfSpectrumMatchesFullPowerOfTwoLengths) {
  for (std::size_t m : {16, 64, 128}) {
    ExpectHalfMatchesFull(m, core::CrossCorrelationImpl::kFft, kEpsPow2);
  }
}

TEST(SbdCacheTest, HalfSpectrumMatchesFullBluesteinLengths) {
  // 2m-1 is odd for every m >= 2, so the half engine takes the generic
  // (non-packed) RFFT path here — the conjugate-symmetry fold, not the
  // half-size transform.
  for (std::size_t m : {24, 50, 80}) {
    ExpectHalfMatchesFull(m, core::CrossCorrelationImpl::kFftNoPow2,
                          kEpsBluestein);
  }
}

TEST(SbdCacheDeathTest, QueryFromOtherLayoutIsRejected) {
  // A Query carries the spectrum layout of the engine that minted it; using
  // it against an engine with the other layout must abort loudly instead of
  // reading the wrong member.
  const std::vector<Series> series = MakeSeries(6, 32, 17);
  const core::SbdEngine full(series, core::CrossCorrelationImpl::kFft,
                             /*use_half_spectrum=*/false);
  const core::SbdEngine half(series, core::CrossCorrelationImpl::kFft,
                             /*use_half_spectrum=*/true);
  common::Rng rng(18);
  const Series query = tseries::ZNormalized(data::MakeCbf(0, 32, &rng));
  const core::SbdEngine::Query fq = full.MakeQuery(query);
  const core::SbdEngine::Query hq = half.MakeQuery(query);
  EXPECT_DEATH(half.Distance(fq, 0), "different engine configuration");
  EXPECT_DEATH(full.Distance(hq, 0), "different engine configuration");
}

TEST(SbdCacheTest, DirectSbdGateMatchesFullComplexPath) {
  // The direct (uncached) kFft path also routes through the half-spectrum
  // gate; flipping it changes results only at rounding level.
  const std::vector<Series> series = MakeSeries(8, 48, 19);
  const bool saved = fft::HalfSpectrumEnabled();
  fft::SetHalfSpectrumEnabledForTesting(true);
  std::vector<double> on;
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    on.push_back(core::Sbd(series[i], series[i + 1]).distance);
  }
  fft::SetHalfSpectrumEnabledForTesting(false);
  for (std::size_t i = 0; i + 1 < series.size(); ++i) {
    EXPECT_NEAR(core::Sbd(series[i], series[i + 1]).distance, on[i], kEpsPow2);
  }
  fft::SetHalfSpectrumEnabledForTesting(saved);
}

TEST(SbdCacheTest, KShapeHalfSpectrumGateMatchesFull) {
  // Same seed, two cache layouts: epsilon-level distance differences never
  // flip an argmin or alignment shift on this data, so labels, centroids,
  // and telemetry all match exactly.
  const std::vector<Series> series = MakeSeries(45, 64, 20);
  core::KShapeOptions options;
  options.init = core::KShapeInit::kPlusPlusSeeding;
  const core::KShape kshape(options);
  const bool saved = fft::HalfSpectrumEnabled();

  common::Rng rng_a(21);
  common::Rng rng_b(21);
  fft::SetHalfSpectrumEnabledForTesting(true);
  const cluster::ClusteringResult a = kshape.Cluster(series, 3, &rng_a);
  fft::SetHalfSpectrumEnabledForTesting(false);
  const cluster::ClusteringResult b = kshape.Cluster(series, 3, &rng_b);
  fft::SetHalfSpectrumEnabledForTesting(saved);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.empty_cluster_reseeds, b.empty_cluster_reseeds);
  EXPECT_EQ(a.degenerate_centroids, b.degenerate_centroids);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    ASSERT_EQ(a.centroids[j].size(), b.centroids[j].size());
    for (std::size_t t = 0; t < a.centroids[j].size(); ++t) {
      EXPECT_NEAR(a.centroids[j][t], b.centroids[j][t], kEpsPow2);
    }
  }
}

TEST(SbdCacheTest, EngineRepeatedEvaluationIsBitStable) {
  // Within the cached pipeline the arithmetic is fixed: the same pair asked
  // twice (or via the flat carrier) gives bitwise-identical doubles.
  const std::vector<Series> series = MakeSeries(7, 36, 15);
  const std::size_t n = series.size();
  const core::SbdEngine engine(series);
  std::vector<double> flat;
  engine.PairwiseFlat(&flat);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double once = engine.Distance(i, j);
      const double twice = engine.Distance(i, j);
      EXPECT_EQ(once, twice);
      // The flat carrier computes each pair once with i < j in the x role
      // and mirrors that value; Distance(j, i) swaps the roles and may round
      // differently in the last ulp, so only the computed orientation is
      // compared bitwise.
      if (i < j) {
        EXPECT_EQ(flat[i * n + j], once);
        EXPECT_EQ(flat[j * n + i], flat[i * n + j]);
      }
    }
  }
}

}  // namespace
}  // namespace kshape
