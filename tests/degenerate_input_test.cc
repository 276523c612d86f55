// Degenerate-input matrix: constant, length-1, all-NaN, ragged, empty and
// single-series datasets driven through every DistanceMeasure and every
// clustering algorithm. The contract under test (see cluster/algorithm.h and
// DESIGN.md "Robustness contract"): malformed data entering through
// TryCluster yields a clean common::Status error, well-formed-but-degenerate
// data (all-constant series, length-1 series, n = k) clusters to valid
// in-range labels with finite distances everywhere — never an abort, never a
// NaN, never an out-of-range label.
//
// CI additionally runs this binary under AddressSanitizer + UBSan (see
// ci/run_ci.sh), so every fallback path here is also exercised for memory
// and undefined-behavior bugs.

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/averaging.h"
#include "cluster/dba.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/kmedoids.h"
#include "cluster/ksc.h"
#include "cluster/spectral.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/multivariate.h"
#include "core/sbd.h"
#include "data/generators.h"
#include "distance/dtw.h"
#include "distance/elastic.h"
#include "distance/euclidean.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

// ---------------------------------------------------------------------------
// Distance measures on degenerate series: every value must be finite.
// ---------------------------------------------------------------------------

struct NamedMeasure {
  std::string name;
  const distance::DistanceMeasure* measure;
};

class MeasureFixture {
 public:
  MeasureFixture() {
    Add(std::make_unique<distance::EuclideanDistance>());
    Add(std::make_unique<core::SbdDistance>());
    Add(std::make_unique<core::SbdDistance>(core::CrossCorrelationImpl::kNaive));
    Add(std::make_unique<core::NccDistance>(core::NccNormalization::kBiased));
    Add(std::make_unique<core::NccDistance>(core::NccNormalization::kUnbiased));
    Add(std::make_unique<dtw::DtwMeasure>(
        dtw::DtwMeasure::Unconstrained()));
    Add(std::make_unique<dtw::DtwMeasure>(
        dtw::DtwMeasure::SakoeChiba(0.05, "cDTW5")));
    Add(std::make_unique<distance::ErpMeasure>());
    Add(std::make_unique<distance::EdrMeasure>());
    Add(std::make_unique<distance::MsmMeasure>());
    Add(std::make_unique<distance::CidMeasure>());
    Add(std::make_unique<cluster::KscDistance>());
  }

  const std::vector<NamedMeasure>& measures() const { return named_; }

 private:
  template <typename M>
  void Add(std::unique_ptr<M> m) {
    named_.push_back({m->Name(), m.get()});
    owned_.push_back(std::move(m));
  }

  std::vector<std::unique_ptr<distance::DistanceMeasure>> owned_;
  std::vector<NamedMeasure> named_;
};

TEST(DegenerateDistanceTest, ConstantSeriesGiveFiniteDistances) {
  const MeasureFixture fixture;
  const Series constant(24, 3.5);
  const Series zeros(24, 0.0);  // A constant series after z-normalization.
  common::Rng rng(3);
  const Series normal = tseries::ZNormalized(data::MakeCbf(0, 24, &rng));

  for (const NamedMeasure& m : fixture.measures()) {
    for (const auto& [x, y] : {std::pair<const Series&, const Series&>{
                                   constant, constant},
                               {zeros, zeros},
                               {constant, normal},
                               {zeros, normal},
                               {normal, zeros}}) {
      const double d = m.measure->Distance(x, y);
      EXPECT_TRUE(std::isfinite(d)) << m.name << " returned " << d;
    }
  }
}

TEST(DegenerateDistanceTest, LengthOneSeriesGiveFiniteDistances) {
  // DDTW is excluded by contract: the derivative transform documents a
  // KSHAPE_CHECK on length >= 2 (programmer error, not a data error).
  const MeasureFixture fixture;
  const Series a(1, 2.0);
  const Series b(1, -1.0);
  const Series z(1, 0.0);

  for (const NamedMeasure& m : fixture.measures()) {
    for (const auto& [x, y] : {std::pair<const Series&, const Series&>{a, b},
                               {a, a},
                               {z, z},
                               {z, a}}) {
      const double d = m.measure->Distance(x, y);
      EXPECT_TRUE(std::isfinite(d)) << m.name << " returned " << d;
    }
  }
}

TEST(DegenerateDistanceTest, SelfDistanceIsNonPositiveOrZeroForMetrics) {
  // Self-distance sanity on a degenerate input: for every measure,
  // d(x, x) must be finite; for the true metrics it must be ~0. (SBD on a
  // zero-norm series is the documented fallback 1, so it is only checked for
  // finiteness above.)
  const distance::EuclideanDistance ed;
  const dtw::DtwMeasure dtw = dtw::DtwMeasure::Unconstrained();
  const Series constant(16, 7.0);
  EXPECT_EQ(ed.Distance(constant, constant), 0.0);
  EXPECT_EQ(dtw.Distance(constant, constant), 0.0);
}

// ---------------------------------------------------------------------------
// Clustering algorithms: degenerate-but-valid datasets must produce in-range
// labels; malformed datasets must produce Status errors via TryCluster.
// ---------------------------------------------------------------------------

struct NamedAlgorithm {
  std::string name;
  const cluster::ClusteringAlgorithm* algorithm;
};

class AlgorithmFixture {
 public:
  AlgorithmFixture() {
    ed_ = std::make_unique<distance::EuclideanDistance>();
    sbd_ = std::make_unique<core::SbdDistance>();
    dtw_ = std::make_unique<dtw::DtwMeasure>(
        dtw::DtwMeasure::Unconstrained());
    mean_ = std::make_unique<cluster::ArithmeticMeanAveraging>();
    dba_ = std::make_unique<cluster::DbaAveraging>();

    Add("k-Shape", std::make_unique<core::KShape>());
    core::KShapeOptions uncached;
    uncached.assignment_distance = sbd_.get();
    Add("k-Shape (no cache)", std::make_unique<core::KShape>(uncached));
    Add("k-AVG+ED", std::make_unique<cluster::KMeans>(ed_.get(), mean_.get(),
                                                      "k-AVG+ED"));
    Add("k-DBA", std::make_unique<cluster::KMeans>(dtw_.get(), dba_.get(),
                                                   "k-DBA"));
    Add("PAM+SBD", std::make_unique<cluster::KMedoids>(sbd_.get(), "PAM+SBD"));
    Add("H-A+ED", std::make_unique<cluster::HierarchicalClustering>(
                      ed_.get(), cluster::Linkage::kAverage, "H-A+ED"));
    Add("Spectral+ED", std::make_unique<cluster::SpectralClustering>(
                           ed_.get(), "Spectral+ED"));
    Add("KSC", std::make_unique<cluster::Ksc>());
  }

  const std::vector<NamedAlgorithm>& algorithms() const { return named_; }

 private:
  void Add(std::string name,
           std::unique_ptr<cluster::ClusteringAlgorithm> algorithm) {
    named_.push_back({std::move(name), algorithm.get()});
    owned_.push_back(std::move(algorithm));
  }

  std::unique_ptr<distance::DistanceMeasure> ed_;
  std::unique_ptr<distance::DistanceMeasure> sbd_;
  std::unique_ptr<distance::DistanceMeasure> dtw_;
  std::unique_ptr<cluster::AveragingMethod> mean_;
  std::unique_ptr<cluster::AveragingMethod> dba_;
  std::vector<std::unique_ptr<cluster::ClusteringAlgorithm>> owned_;
  std::vector<NamedAlgorithm> named_;
};

void ExpectValidLabels(const cluster::ClusteringResult& result, std::size_t n,
                       int k, const std::string& what) {
  ASSERT_EQ(result.assignments.size(), n) << what;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(result.assignments[i], 0) << what << " series " << i;
    EXPECT_LT(result.assignments[i], k) << what << " series " << i;
  }
  for (const Series& centroid : result.centroids) {
    for (const double v : centroid) {
      EXPECT_TRUE(std::isfinite(v)) << what << " centroid value " << v;
    }
  }
}

TEST(DegenerateClusteringTest, AllConstantDataset) {
  const AlgorithmFixture fixture;
  const std::vector<Series> series(6, Series(20, 4.0));
  for (const NamedAlgorithm& a : fixture.algorithms()) {
    common::Rng rng(11);
    const auto result = a.algorithm->TryCluster(series, 2, &rng);
    ASSERT_TRUE(result.ok()) << a.name << ": " << result.status().ToString();
    ExpectValidLabels(result.value(), series.size(), 2, a.name);
  }
}

TEST(DegenerateClusteringTest, AllZeroDataset) {
  // The z-normalized image of a constant dataset: zero-norm everywhere, the
  // hardest case for the shape measures (every SBD/KSC distance hits the
  // documented fallback).
  const AlgorithmFixture fixture;
  const std::vector<Series> series(6, Series(20, 0.0));
  for (const NamedAlgorithm& a : fixture.algorithms()) {
    common::Rng rng(13);
    const auto result = a.algorithm->TryCluster(series, 2, &rng);
    ASSERT_TRUE(result.ok()) << a.name << ": " << result.status().ToString();
    ExpectValidLabels(result.value(), series.size(), 2, a.name);
  }
}

TEST(DegenerateClusteringTest, LengthOneDataset) {
  const AlgorithmFixture fixture;
  std::vector<Series> series;
  for (int i = 0; i < 6; ++i) {
    series.push_back(Series(1, static_cast<double>(i - 3)));
  }
  for (const NamedAlgorithm& a : fixture.algorithms()) {
    common::Rng rng(17);
    const auto result = a.algorithm->TryCluster(series, 2, &rng);
    ASSERT_TRUE(result.ok()) << a.name << ": " << result.status().ToString();
    ExpectValidLabels(result.value(), series.size(), 2, a.name);
  }
}

TEST(DegenerateClusteringTest, SingleSeriesSingleCluster) {
  const AlgorithmFixture fixture;
  common::Rng data_rng(19);
  const std::vector<Series> series = {
      tseries::ZNormalized(data::MakeCbf(1, 32, &data_rng))};
  for (const NamedAlgorithm& a : fixture.algorithms()) {
    common::Rng rng(19);
    const auto result = a.algorithm->TryCluster(series, 1, &rng);
    ASSERT_TRUE(result.ok()) << a.name << ": " << result.status().ToString();
    ExpectValidLabels(result.value(), series.size(), 1, a.name);
  }
}

TEST(DegenerateClusteringTest, KEqualsNDataset) {
  const AlgorithmFixture fixture;
  common::Rng data_rng(23);
  std::vector<Series> series;
  for (int i = 0; i < 4; ++i) {
    series.push_back(tseries::ZNormalized(data::MakeCbf(i % 3, 24, &data_rng)));
  }
  for (const NamedAlgorithm& a : fixture.algorithms()) {
    common::Rng rng(23);
    const auto result =
        a.algorithm->TryCluster(series, static_cast<int>(series.size()), &rng);
    ASSERT_TRUE(result.ok()) << a.name << ": " << result.status().ToString();
    ExpectValidLabels(result.value(), series.size(),
                      static_cast<int>(series.size()), a.name);
  }
}

TEST(DegenerateClusteringTest, MalformedInputsAreStatusErrorsNotAborts) {
  const AlgorithmFixture fixture;
  common::Rng data_rng(29);
  const Series good = tseries::ZNormalized(data::MakeCbf(0, 24, &data_rng));

  const std::vector<Series> empty_dataset;
  const std::vector<Series> with_empty_series = {good, Series{}};
  const std::vector<Series> ragged = {good, Series(12, 1.0)};
  std::vector<Series> with_nan = {good, good};
  with_nan[1][3] = std::numeric_limits<double>::quiet_NaN();
  std::vector<Series> with_inf = {good, good};
  with_inf[0][0] = std::numeric_limits<double>::infinity();
  const std::vector<Series> ok_pair = {good, good};

  for (const NamedAlgorithm& a : fixture.algorithms()) {
    common::Rng rng(29);
    EXPECT_FALSE(a.algorithm->TryCluster(empty_dataset, 1, &rng).ok())
        << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(with_empty_series, 1, &rng).ok())
        << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(ragged, 1, &rng).ok()) << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(with_nan, 1, &rng).ok()) << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(with_inf, 1, &rng).ok()) << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(ok_pair, 0, &rng).ok()) << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(ok_pair, 3, &rng).ok()) << a.name;
    EXPECT_FALSE(a.algorithm->TryCluster(ok_pair, -1, &rng).ok()) << a.name;
  }
}

TEST(DegenerateClusteringTest, DegenerateCentroidsAreFlaggedNotSilent) {
  // An all-constant dataset clusters into all-degenerate groups: k-Shape must
  // keep the documented zero centroid AND surface the repair signal, instead
  // of the old behavior (power iteration on the zero matrix returning a
  // z-normalized random vector as a silent garbage centroid).
  const core::KShape kshape;
  const std::vector<Series> series(5, Series(16, 2.0));
  common::Rng rng(31);
  const auto result = kshape.TryCluster(series, 2, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().degenerate_centroids, 1);
  for (const Series& centroid : result.value().centroids) {
    for (const double v : centroid) EXPECT_EQ(v, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Multivariate k-Shape boundary.
// ---------------------------------------------------------------------------

core::MultivariateSeries MakeMv(std::initializer_list<Series> channels) {
  core::MultivariateSeries s;
  for (const Series& c : channels) s.channels.push_back(c);
  return s;
}

TEST(DegenerateMultivariateTest, MalformedInputsAreStatusErrors) {
  const core::MultivariateKShape algorithm;
  common::Rng data_rng(37);
  const Series good = tseries::ZNormalized(data::MakeCbf(0, 16, &data_rng));
  common::Rng rng(37);

  EXPECT_FALSE(algorithm.TryCluster({}, 1, &rng).ok());
  EXPECT_FALSE(
      algorithm.TryCluster({MakeMv({})}, 1, &rng).ok());  // No channels.
  EXPECT_FALSE(algorithm
                   .TryCluster({MakeMv({good, good}), MakeMv({good})}, 1, &rng)
                   .ok());  // Channel count mismatch.
  EXPECT_FALSE(algorithm
                   .TryCluster({MakeMv({good}), MakeMv({Series(8, 1.0)})}, 1,
                               &rng)
                   .ok());  // Ragged lengths.
  Series with_nan = good;
  with_nan[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(algorithm
                   .TryCluster({MakeMv({good}), MakeMv({with_nan})}, 1, &rng)
                   .ok());
  EXPECT_FALSE(algorithm.TryCluster({MakeMv({good})}, 2, &rng).ok());  // k > n.
}

TEST(DegenerateMultivariateTest, ConstantChannelsClusterCleanly) {
  const core::MultivariateKShape algorithm;
  std::vector<core::MultivariateSeries> series(
      4, MakeMv({Series(12, 1.0), Series(12, -2.0)}));
  common::Rng rng(41);
  const auto result = algorithm.TryCluster(series, 2, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().assignments.size(), series.size());
  for (const int label : result.value().assignments) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 2);
  }
  for (const auto& centroid : result.value().centroids) {
    for (const Series& channel : centroid.channels) {
      for (const double v : channel) EXPECT_TRUE(std::isfinite(v));
    }
  }

  // One informative channel beside one constant channel (zero once
  // z-normalized). A centroid with a nonzero informative channel aligns
  // both channels of its members by one common shift, so the constant
  // channel's accumulator aligns against a zero reference and starts cold;
  // its members shift to zero and extract to the zero series.
  common::Rng data_rng(43);
  std::vector<core::MultivariateSeries> mixed;
  for (int i = 0; i < 12; ++i) {
    core::MultivariateSeries s =
        MakeMv({data::MakeCbf(i % 3, 32, &data_rng), Series(32, 5.0)});
    core::ZNormalizeMultivariate(&s);
    mixed.push_back(std::move(s));
  }
  const auto mixed_result = algorithm.TryCluster(mixed, 3, &rng);
  ASSERT_TRUE(mixed_result.ok()) << mixed_result.status().ToString();
  ASSERT_EQ(mixed_result.value().assignments.size(), mixed.size());
  for (const int label : mixed_result.value().assignments) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 3);
  }
  int informative = 0;
  for (const auto& centroid : mixed_result.value().centroids) {
    ASSERT_EQ(centroid.num_channels(), 2u);
    for (const double v : centroid.channels[0]) {
      EXPECT_TRUE(std::isfinite(v));
      if (v != 0.0) ++informative;
    }
    for (const double v : centroid.channels[1]) EXPECT_EQ(v, 0.0);
  }
  EXPECT_GT(informative, 0);
  EXPECT_EQ(mixed_result.value().degenerate_centroids, 0);
}

}  // namespace
}  // namespace kshape
