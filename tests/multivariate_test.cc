#include "core/multivariate.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/algorithm.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "tseries/normalization.h"

namespace kshape::core {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;

MultivariateSeries RandomMv(std::size_t d, std::size_t m, common::Rng* rng) {
  MultivariateSeries s;
  for (std::size_t c = 0; c < d; ++c) {
    Series channel(m);
    for (double& v : channel) v = rng->Gaussian();
    s.channels.push_back(std::move(channel));
  }
  return s;
}

// A d=2 instance: channel 0 a sine of `cycles`, channel 1 its cosine, both
// delayed by one COMMON random offset (the defining multivariate structure).
MultivariateSeries PhasedPair(double cycles, std::size_t m, common::Rng* rng,
                              double noise) {
  const double phase = rng->Uniform(0.0, 2.0 * kPi);
  MultivariateSeries s;
  s.channels.assign(2, Series(m));
  for (std::size_t t = 0; t < m; ++t) {
    const double u = 2.0 * kPi * cycles * t / static_cast<double>(m) + phase;
    s.channels[0][t] = std::sin(u) + rng->Gaussian(0.0, noise);
    s.channels[1][t] = std::cos(u) + rng->Gaussian(0.0, noise);
  }
  ZNormalizeMultivariate(&s);
  return s;
}

// The series as channel-major rows of d·m values, the layout SbdEngine and
// core::ClusterBatch read.
tseries::SeriesStore Pack(const std::vector<MultivariateSeries>& series) {
  tseries::SeriesStore rows;
  for (const MultivariateSeries& s : series) {
    Series row;
    for (const Series& channel : s.channels) {
      row.insert(row.end(), channel.begin(), channel.end());
    }
    rows.Append(row);
  }
  return rows;
}

// Two-channel CBF instances whose channels carry different classes.
std::vector<MultivariateSeries> TwoChannelCbf(std::size_t n, std::size_t m,
                                              uint64_t seed) {
  common::Rng rng(seed);
  std::vector<MultivariateSeries> series;
  for (std::size_t i = 0; i < n; ++i) {
    MultivariateSeries s;
    s.channels.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
    s.channels.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>((i + 1) % 3), m, &rng)));
    series.push_back(std::move(s));
  }
  return series;
}

// Restores the process-wide pruning and spectrum-layout gates on exit.
class GateGuard {
 public:
  GateGuard()
      : prune_(PruningEnabled()), half_(fft::HalfSpectrumEnabled()) {}
  ~GateGuard() {
    SetPruningEnabledForTesting(prune_);
    fft::SetHalfSpectrumEnabledForTesting(half_);
  }

 private:
  bool prune_;
  bool half_;
};

TEST(MultivariateSbdTest, SelfDistanceIsZero) {
  common::Rng rng(1);
  MultivariateSeries x = RandomMv(3, 40, &rng);
  ZNormalizeMultivariate(&x);
  const MultivariateSbdResult r = MultivariateSbd(x, x);
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  EXPECT_EQ(r.shift, 0);
}

TEST(MultivariateSbdTest, ReducesToUnivariateSbdForOneChannel) {
  common::Rng rng(2);
  MultivariateSeries x = RandomMv(1, 50, &rng);
  MultivariateSeries y = RandomMv(1, 50, &rng);
  const MultivariateSbdResult mv = MultivariateSbd(x, y);
  const SbdResult uni = Sbd(x.channels[0], y.channels[0]);
  EXPECT_NEAR(mv.distance, uni.distance, 1e-10);
  EXPECT_EQ(mv.shift, uni.shift);
}

TEST(MultivariateSbdTest, SymmetricInValue) {
  common::Rng rng(3);
  const MultivariateSeries x = RandomMv(2, 30, &rng);
  const MultivariateSeries y = RandomMv(2, 30, &rng);
  EXPECT_NEAR(MultivariateSbd(x, y).distance, MultivariateSbd(y, x).distance,
              1e-9);
}

TEST(MultivariateSbdTest, RecoversCommonShiftAcrossChannels) {
  const std::size_t m = 80;
  MultivariateSeries x;
  x.channels.assign(2, Series(m, 0.0));
  for (std::size_t t = 30; t < 40; ++t) {
    x.channels[0][t] = 1.0;
    x.channels[1][t] = -2.0 + 0.3 * static_cast<double>(t - 30);
  }
  MultivariateSeries y;
  for (const auto& channel : x.channels) {
    y.channels.push_back(tseries::ShiftWithZeroFill(channel, 7));
  }
  const MultivariateSbdResult r = MultivariateSbd(x, y);
  EXPECT_EQ(r.shift, -7);
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t t = 0; t + 7 < m; ++t) {
      EXPECT_NEAR(r.aligned_y.channels[c][t], x.channels[c][t], 1e-9);
    }
  }
}

TEST(MultivariateSbdTest, CommonShiftBeatsPerChannelContradiction) {
  // Channel 0 suggests shift +5, channel 1 suggests -5 with more energy:
  // the common shift must reconcile them (dominated by channel 1 here),
  // demonstrating that channels are not aligned independently.
  const std::size_t m = 64;
  MultivariateSeries x;
  x.channels.assign(2, Series(m, 0.0));
  for (std::size_t t = 20; t < 28; ++t) {
    x.channels[0][t] = 1.0;
    x.channels[1][t] = 3.0;  // Higher energy channel.
  }
  MultivariateSeries y;
  y.channels.push_back(tseries::ShiftWithZeroFill(x.channels[0], 5));
  y.channels.push_back(tseries::ShiftWithZeroFill(x.channels[1], -5));
  const MultivariateSbdResult r = MultivariateSbd(x, y);
  EXPECT_EQ(r.shift, 5);  // Align the heavy channel: y shifted by +5.
}

TEST(MultivariateSbdTest, ZeroNormGivesDistanceOne) {
  MultivariateSeries zero;
  zero.channels.assign(2, Series(10, 0.0));
  common::Rng rng(4);
  const MultivariateSeries x = RandomMv(2, 10, &rng);
  EXPECT_DOUBLE_EQ(MultivariateSbd(x, zero).distance, 1.0);
}

TEST(ExtractMultivariateShapeTest, IdenticalMembersGiveTheSharedShape) {
  common::Rng rng(5);
  MultivariateSeries base = PhasedPair(2.0, 64, &rng, 0.0);
  const std::vector<MultivariateSeries> members = {base, base, base};
  MultivariateSeries zero;
  zero.channels.assign(2, Series(64, 0.0));
  const MultivariateSeries centroid =
      ExtractMultivariateShape(members, zero, &rng);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(Sbd(base.channels[c], centroid.channels[c]).distance, 0.0,
                1e-6);
  }
}

TEST(ExtractMultivariateShapeTest, EmptyClusterGivesZeros) {
  common::Rng rng(6);
  MultivariateSeries reference;
  reference.channels.assign(3, Series(16, 0.0));
  const MultivariateSeries centroid =
      ExtractMultivariateShape({}, reference, &rng);
  ASSERT_EQ(centroid.num_channels(), 3u);
  for (const auto& channel : centroid.channels) {
    for (double v : channel) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

// A multichannel SbdEngine is the cached MultivariateSbd: distances and peak
// values within 1e-9, the same common shift, and a spectral bound (over the
// concatenated channel planes) that never falls below the channel-summed
// peak — on power-of-two and Bluestein lengths, in both spectrum layouts.
void ExpectEngineMatchesMultivariateSbd(std::size_t d, std::size_t m,
                                        CrossCorrelationImpl impl,
                                        bool half) {
  common::Rng rng(31 * m + d);
  std::vector<MultivariateSeries> series;
  for (int i = 0; i < 9; ++i) series.push_back(RandomMv(d, m, &rng));
  const tseries::SeriesStore rows = Pack(series);
  const SbdEngine engine(rows, impl, half, /*build_bound_planes=*/true, d);
  ASSERT_EQ(engine.channels(), d);
  ASSERT_EQ(engine.series_length(), m);
  const MultivariateSeries query = RandomMv(d, m, &rng);
  const SbdEngine::Query q = engine.MakeQuery(Pack({query})[0]);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::string where = "d=" + std::to_string(d) +
                              " m=" + std::to_string(m) +
                              " half=" + std::to_string(half) +
                              " i=" + std::to_string(i);
    const MultivariateSbdResult oracle = MultivariateSbd(query, series[i]);
    int shift = 0;
    EXPECT_NEAR(engine.Distance(q, i, &shift), oracle.distance, 1e-9)
        << where;
    EXPECT_EQ(shift, oracle.shift) << where;
    const NccPeak peak = engine.MaxNcc(q, i);
    EXPECT_NEAR(peak.value, 1.0 - oracle.distance, 1e-9) << where;
    EXPECT_EQ(peak.shift, oracle.shift) << where;
    EXPECT_GE(engine.NccUpperBound(q, i) + SbdEngine::kDefaultBoundSlack,
              peak.value)
        << where;
    bool abandoned = true;
    EXPECT_EQ(engine.DistanceWithAbandon(
                  q, i, std::numeric_limits<double>::infinity(), &abandoned),
              engine.Distance(q, i))
        << where;
    EXPECT_FALSE(abandoned) << where;
    for (std::size_t j = 0; j < series.size(); ++j) {
      EXPECT_NEAR(engine.Distance(i, j),
                  MultivariateSbd(series[i], series[j]).distance, 1e-9)
          << where << " j=" << j;
    }
  }
}

TEST(MultichannelEngineTest, MatchesMultivariateSbdPowerOfTwoLengths) {
  for (const bool half : {true, false}) {
    for (const std::size_t m : {16u, 40u, 64u}) {
      ExpectEngineMatchesMultivariateSbd(3, m, CrossCorrelationImpl::kFft,
                                         half);
    }
    ExpectEngineMatchesMultivariateSbd(1, 40, CrossCorrelationImpl::kFft,
                                       half);
  }
}

TEST(MultichannelEngineTest, MatchesMultivariateSbdBluesteinLengths) {
  for (const bool half : {true, false}) {
    for (const std::size_t m : {17u, 33u, 50u}) {
      ExpectEngineMatchesMultivariateSbd(2, m,
                                         CrossCorrelationImpl::kFftNoPow2,
                                         half);
    }
  }
}

// Multichannel k-Shape inherits the pruning layers: the gate changes no
// label, no centroid bit and no iteration count, the telemetry partitions
// n·k pairs every iteration, and the movement bounds, which rest on the
// channel-summed centroid-shift distances, actually prune.
TEST(MultivariateKShapeTest, PruningGateChangesNothingButTheWork) {
  GateGuard gate_guard;
  const int k = 3;
  long long pruned_bounds = 0;
  for (const uint64_t seed : {5u, 6u, 7u}) {
    const std::vector<MultivariateSeries> series =
        TwoChannelCbf(60, 48, 700 + seed);
    const tseries::SeriesStore rows = Pack(series);
    const std::size_t n = series.size();
    KShapeOptions options;
    SetPruningEnabledForTesting(true);
    common::Rng rng_a(seed);
    const cluster::ClusteringResult pruned =
        ClusterBatch(options, rows, 2, k, &rng_a, "pruned");
    SetPruningEnabledForTesting(false);
    common::Rng rng_b(seed);
    const cluster::ClusteringResult exact =
        ClusterBatch(options, rows, 2, k, &rng_b, "exact");
    EXPECT_EQ(pruned.assignments, exact.assignments) << "seed " << seed;
    EXPECT_EQ(pruned.centroids, exact.centroids) << "seed " << seed;
    EXPECT_EQ(pruned.iterations, exact.iterations) << "seed " << seed;
    EXPECT_EQ(pruned.converged, exact.converged) << "seed " << seed;
    ASSERT_EQ(pruned.assignment_stats.size(),
              static_cast<std::size_t>(pruned.iterations));
    for (const cluster::AssignmentIterationStats& s :
         pruned.assignment_stats) {
      EXPECT_EQ(s.computed + s.pruned_bounds + s.abandoned_partial,
                static_cast<long long>(n) * k);
      pruned_bounds += s.pruned_bounds;
    }
    for (const cluster::AssignmentIterationStats& s : exact.assignment_stats) {
      EXPECT_EQ(s.computed, static_cast<long long>(n) * k);
    }
    // Multichannel results carry no FittedModel.
    EXPECT_TRUE(pruned.model.empty());
  }
  EXPECT_GT(pruned_bounds, 0);
}

// One channel is univariate k-Shape: MultivariateKShape runs the one
// Algorithm 3 loop, so it must equal KShape with random-assignment init bit
// for bit — labels, centroids, iterations, convergence and reseeds — at any
// thread count. The k = 8, n = 12 corpus empties clusters, so repair runs.
TEST(MultivariateKShapeTest, OneChannelMatchesKShapeBitwise) {
  const int saved_threads = common::ThreadCount();
  struct Corpus {
    std::size_t n, m;
    int k;
    uint64_t seed;
  };
  int reseeds = 0;
  for (const Corpus corpus : {Corpus{45, 64, 3, 9}, Corpus{12, 31, 8, 303}}) {
    std::vector<Series> univariate;
    std::vector<MultivariateSeries> series;
    common::Rng data_rng(corpus.seed);
    for (std::size_t i = 0; i < corpus.n; ++i) {
      univariate.push_back(tseries::ZNormalized(
          data::MakeCbf(static_cast<int>(i % 3), corpus.m, &data_rng)));
      series.push_back(MultivariateSeries{{univariate.back()}});
    }
    KShapeOptions options;
    options.init = KShapeInit::kRandomAssignment;
    for (const int threads : {1, 4}) {
      common::SetThreadCount(threads);
      common::Rng rng_a(corpus.seed + 1);
      common::Rng rng_b(corpus.seed + 1);
      const cluster::ClusteringResult a =
          KShape(options).Cluster(univariate, corpus.k, &rng_a);
      const MultivariateClusteringResult b =
          MultivariateKShape().Cluster(series, corpus.k, &rng_b);
      EXPECT_EQ(a.assignments, b.assignments) << "threads " << threads;
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.converged, b.converged);
      EXPECT_EQ(a.empty_cluster_reseeds, b.empty_cluster_reseeds);
      ASSERT_EQ(b.centroids.size(), a.centroids.size());
      for (std::size_t j = 0; j < a.centroids.size(); ++j) {
        ASSERT_EQ(b.centroids[j].num_channels(), 1u);
        EXPECT_EQ(a.centroids[j], b.centroids[j].channels[0])  // Bitwise.
            << "threads " << threads << " centroid " << j;
      }
      reseeds += a.empty_cluster_reseeds;
    }
  }
  common::SetThreadCount(saved_threads);
  EXPECT_GT(reseeds, 0);
}

// The refinement inside the one loop is ExtractMultivariateShape: a
// replica alternating ExtractMultivariateShape refinements with per-pair
// MultivariateSbd argmin assignments walks the same iterations. Channel 1 is
// a raw constant, so it extracts to zero on the first (unaligned) pass and
// its members only take a shape when the common shift of the nonzero
// centroid moves them — the mixed zero-norm-channel rule.
TEST(MultivariateKShapeTest, RefinementMatchesExtractMultivariateShape) {
  const int k = 3;
  int shaped = 0;
  for (const uint64_t seed : {21u, 22u, 23u}) {
    common::Rng data_rng(seed);
    std::vector<MultivariateSeries> series;
    for (int i = 0; i < 30; ++i) {
      series.push_back(MultivariateSeries{
          {tseries::ZNormalized(data::MakeCbf(i % 3, 40, &data_rng)),
           Series(40, 0.5)}});
    }
    MultivariateKShapeOptions options;
    options.max_iterations = 4;
    common::Rng rng_a(seed + 100);
    const MultivariateClusteringResult fit =
        MultivariateKShape(options).Cluster(series, k, &rng_a);
    ASSERT_EQ(fit.empty_cluster_reseeds, 0) << "the replica does not repair";

    common::Rng rng_b(seed + 100);
    std::vector<int> labels = cluster::RandomAssignments(series.size(), k,
                                                         &rng_b);
    MultivariateSeries zero;
    zero.channels.assign(2, Series(40, 0.0));
    std::vector<MultivariateSeries> centroids(k, zero);
    int iterations = 0;
    while (iterations < options.max_iterations) {
      ++iterations;
      for (int j = 0; j < k; ++j) {
        std::vector<MultivariateSeries> members;
        for (std::size_t i = 0; i < series.size(); ++i) {
          if (labels[i] == j) members.push_back(series[i]);
        }
        centroids[j] = ExtractMultivariateShape(members, centroids[j],
                                                &rng_b, options.shape_options);
      }
      const std::vector<int> previous = labels;
      for (std::size_t i = 0; i < series.size(); ++i) {
        double best = std::numeric_limits<double>::infinity();
        for (int j = 0; j < k; ++j) {
          const double d = MultivariateSbd(centroids[j], series[i]).distance;
          if (d < best) {
            best = d;
            labels[i] = j;
          }
        }
      }
      if (labels == previous) break;
    }
    EXPECT_EQ(fit.assignments, labels) << "seed " << seed;
    EXPECT_EQ(fit.iterations, iterations) << "seed " << seed;
    for (int j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t t = 0; t < 40; ++t) {
          EXPECT_NEAR(fit.centroids[j].channels[c][t],
                      centroids[j].channels[c][t], 1e-9)
              << "seed " << seed << " centroid " << j << " channel " << c;
        }
      }
      if (linalg::Norm(fit.centroids[j].channels[1]) > 0.0) ++shaped;
    }
  }
  // The constant channel was aligned, not left as zero, somewhere.
  EXPECT_GT(shaped, 0);
}

TEST(MultivariateKShapeTest, RecoversTwoPhasedClasses) {
  common::Rng rng(7);
  std::vector<MultivariateSeries> series;
  std::vector<int> labels;
  for (int klass = 0; klass < 2; ++klass) {
    for (int i = 0; i < 10; ++i) {
      series.push_back(PhasedPair(klass == 0 ? 1.0 : 3.0, 64, &rng, 0.05));
      labels.push_back(klass);
    }
  }
  const MultivariateKShape mkshape;
  common::Rng seeder(8);
  double total = 0.0;
  const int runs = 3;
  for (int run = 0; run < runs; ++run) {
    common::Rng cluster_rng = seeder.Fork();
    const MultivariateClusteringResult result =
        mkshape.Cluster(series, 2, &cluster_rng);
    total += eval::RandIndex(labels, result.assignments);
  }
  EXPECT_GT(total / runs, 0.9);
}

TEST(MultivariateKShapeTest, OutputInvariants) {
  common::Rng rng(9);
  std::vector<MultivariateSeries> series;
  for (int i = 0; i < 8; ++i) {
    series.push_back(PhasedPair(1.0 + (i % 2) * 2.0, 32, &rng, 0.1));
  }
  const MultivariateKShape mkshape;
  common::Rng cluster_rng(10);
  const MultivariateClusteringResult result =
      mkshape.Cluster(series, 2, &cluster_rng);
  ASSERT_EQ(result.assignments.size(), series.size());
  ASSERT_EQ(result.centroids.size(), 2u);
  for (const auto& centroid : result.centroids) {
    ASSERT_EQ(centroid.num_channels(), 2u);
    ASSERT_EQ(centroid.length(), 32u);
  }
  std::vector<int> counts(2, 0);
  for (int a : result.assignments) ++counts[a];
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GE(result.iterations, 1);
}

TEST(MultivariateKShapeTest, DeterministicGivenSeed) {
  common::Rng rng(11);
  std::vector<MultivariateSeries> series;
  for (int i = 0; i < 6; ++i) {
    series.push_back(PhasedPair(1.0 + (i % 2) * 2.0, 32, &rng, 0.1));
  }
  const MultivariateKShape mkshape;
  common::Rng rng_a(42);
  common::Rng rng_b(42);
  EXPECT_EQ(mkshape.Cluster(series, 2, &rng_a).assignments,
            mkshape.Cluster(series, 2, &rng_b).assignments);
}

}  // namespace
}  // namespace kshape::core
