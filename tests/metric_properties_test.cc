// Property-based sweeps over the distance-measure roster: identity,
// symmetry, non-negativity for every measure; the triangle inequality for
// the true metrics (ED, ERP, MSM, Minkowski) and for sqrt(min(SBD, 1)), the
// metric the movement bounds rely on; and z-normalization-induced
// scale/translation invariance where the paper claims it (§2.2); and SBD
// <= 1 from any series to a zero-mean one, which keeps the movement bounds
// below the metric's cap.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmedoids.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "distance/dtw.h"
#include "distance/elastic.h"
#include "distance/euclidean.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

Series RandomSeries(std::size_t m, common::Rng* rng) {
  Series x(m);
  for (double& v : x) v = rng->Gaussian();
  return x;
}

struct MeasureCase {
  std::string name;
  bool is_metric;  // Satisfies the triangle inequality.
};

std::unique_ptr<distance::DistanceMeasure> MakeMeasure(
    const std::string& name) {
  if (name == "ED") return std::make_unique<distance::EuclideanDistance>();
  if (name == "DTW") {
    return std::make_unique<dtw::DtwMeasure>(dtw::DtwMeasure::Unconstrained());
  }
  if (name == "cDTW5") {
    return std::make_unique<dtw::DtwMeasure>(
        dtw::DtwMeasure::SakoeChiba(0.05, "cDTW5"));
  }
  if (name == "SBD") return std::make_unique<core::SbdDistance>();
  if (name == "ERP") return std::make_unique<distance::ErpMeasure>();
  if (name == "EDR") return std::make_unique<distance::EdrMeasure>();
  if (name == "MSM") return std::make_unique<distance::MsmMeasure>();
  if (name == "CID") return std::make_unique<distance::CidMeasure>();
  return nullptr;
}

class MeasurePropertyTest : public ::testing::TestWithParam<MeasureCase> {};

TEST_P(MeasurePropertyTest, IdentityOfIndiscernibles) {
  const auto measure = MakeMeasure(GetParam().name);
  ASSERT_NE(measure, nullptr);
  common::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Series x = RandomSeries(20 + 3 * trial, &rng);
    EXPECT_NEAR(measure->Distance(x, x), 0.0, 1e-9) << GetParam().name;
  }
}

TEST_P(MeasurePropertyTest, NonNegativity) {
  const auto measure = MakeMeasure(GetParam().name);
  common::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Series x = RandomSeries(24, &rng);
    const Series y = RandomSeries(24, &rng);
    EXPECT_GE(measure->Distance(x, y), -1e-12) << GetParam().name;
  }
}

TEST_P(MeasurePropertyTest, Symmetry) {
  const auto measure = MakeMeasure(GetParam().name);
  common::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Series x = RandomSeries(30, &rng);
    const Series y = RandomSeries(30, &rng);
    EXPECT_NEAR(measure->Distance(x, y), measure->Distance(y, x), 1e-9)
        << GetParam().name;
  }
}

TEST_P(MeasurePropertyTest, TriangleInequalityForMetrics) {
  if (!GetParam().is_metric) GTEST_SKIP() << "not claimed to be a metric";
  const auto measure = MakeMeasure(GetParam().name);
  common::Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const Series a = RandomSeries(16, &rng);
    const Series b = RandomSeries(16, &rng);
    const Series c = RandomSeries(16, &rng);
    EXPECT_LE(measure->Distance(a, c),
              measure->Distance(a, b) + measure->Distance(b, c) + 1e-9)
        << GetParam().name;
  }
}

TEST_P(MeasurePropertyTest, InvariantUnderZNormalizedAffineTransforms) {
  // §2.2: after z-normalization, a*x + b maps to the same sequence, so every
  // measure computed on z-normalized inputs is scale/translation invariant.
  const auto measure = MakeMeasure(GetParam().name);
  common::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Series x = RandomSeries(32, &rng);
    const Series y = RandomSeries(32, &rng);
    Series scaled = y;
    const double a = rng.Uniform(0.1, 5.0);
    const double b = rng.Uniform(-10.0, 10.0);
    for (double& v : scaled) v = a * v + b;
    const double base = measure->Distance(tseries::ZNormalized(x),
                                          tseries::ZNormalized(y));
    const double transformed = measure->Distance(tseries::ZNormalized(x),
                                                 tseries::ZNormalized(scaled));
    EXPECT_NEAR(base, transformed, 1e-7) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, MeasurePropertyTest,
    ::testing::Values(MeasureCase{"ED", true}, MeasureCase{"DTW", false},
                      MeasureCase{"cDTW5", false}, MeasureCase{"SBD", false},
                      MeasureCase{"ERP", true}, MeasureCase{"EDR", false},
                      MeasureCase{"MSM", true}, MeasureCase{"CID", false}),
    [](const ::testing::TestParamInfo<MeasureCase>& info) {
      return info.param.name;
    });

TEST(SbdSpecificPropertyTest, BoundedByTwo) {
  common::Rng rng(6);
  const core::SbdDistance sbd;
  for (int trial = 0; trial < 50; ++trial) {
    const Series x = RandomSeries(40, &rng);
    const Series y = RandomSeries(40, &rng);
    EXPECT_LE(sbd.Distance(x, y), 2.0 + 1e-9);
  }
}

TEST(SbdSpecificPropertyTest, AntiCorrelatedSeriesApproachTwo) {
  Series x(32);
  for (std::size_t t = 0; t < 32; ++t) {
    x[t] = std::sin(2.0 * 3.14159265358979 * t / 32.0);
  }
  Series neg = x;
  for (double& v : neg) v = -v;
  // Shifting the negated sine by half a period re-correlates it, but the
  // zero-fill truncation caps the achievable NCCc at ~0.5 for one full
  // cycle over m = 32 — so the distance is ~0.5, far above self-distance.
  const core::SbdDistance sbd;
  EXPECT_GT(sbd.Distance(x, neg), 0.4);
  EXPECT_GT(sbd.Distance(x, neg), sbd.Distance(x, x) + 0.3);
}

// sqrt(min(SBD, 1)) is a metric (DESIGN.md, "Movement bounds"): with zero
// padding to N >= 2m-1, 2·min(SBD(x, y), 1) = min over cyclic shifts g of
// ‖x/‖x‖ − g·y/‖y‖‖², a quotient distance under a group of isometries. The
// triangle inequality is checked over the cached engine's distances — the
// ones the movement bounds consume — on power-of-two and Bluestein lengths
// and both spectrum layouts. Each length mixes independent series, a
// near-copy and a shifted near-copy of each (SBD near 0, where rounding
// matters most) and negated copies (SBD above 1, where the cap matters).
// The tolerance is the square root of a few ulps: an absolute rounding
// error of a few ulps in an SBD near 0 becomes its square root after the
// sqrt.
//
// Each length also mixes in an offset, scaled copy a·x + b of each series,
// which is not zero-mean. Against any zero-mean series c, SBD(x, c) <= 1:
// the cross-correlation summed over all 2m−1 lags is (Σx)(Σc) = 0, so its
// peak is at least 0. k-Shape centroids are zero-mean (z-normalized, or
// all-zero), so the movement bounds' uncapped sqrt(SBD) never passes the
// cap (DESIGN.md, "Movement bounds"); that is checked here in both
// argument orders, up to rounding.
TEST(SbdSpecificPropertyTest, SqrtOfCappedSbdIsAMetricOverEngineDistances) {
  const double tol = std::sqrt(16.0 * std::numeric_limits<double>::epsilon());
  for (const core::CrossCorrelationImpl impl :
       {core::CrossCorrelationImpl::kFft,
        core::CrossCorrelationImpl::kFftNoPow2}) {
    for (const bool half : {true, false}) {
      for (const std::size_t m : {5u, 16u, 23u, 64u}) {
        common::Rng rng(100 + m);
        std::vector<Series> series;
        std::vector<bool> zero_mean;
        for (int base = 0; base < 6; ++base) {
          const Series x = tseries::ZNormalized(RandomSeries(m, &rng));
          Series near = x;
          for (double& v : near) v += 1e-7 * rng.Gaussian();
          Series shifted = tseries::ShiftWithZeroFill(x, 1 + base % 3);
          for (double& v : shifted) v += 1e-3 * rng.Gaussian();
          Series negated = x;
          for (double& v : negated) v = -v;
          Series offset = x;
          const double a = rng.Uniform(0.5, 2.0);
          const double b = (base % 2 == 0 ? 1.0 : -1.0) * rng.Uniform(1.0, 3.0);
          for (double& v : offset) v = a * v + b;
          series.push_back(x);
          series.push_back(tseries::ZNormalized(near));
          series.push_back(tseries::ZNormalized(shifted));
          series.push_back(negated);
          series.push_back(offset);
          zero_mean.insert(zero_mean.end(), {true, true, true, true, false});
        }
        const core::SbdEngine engine(series, impl, half);
        const std::size_t n = series.size();
        double worst_to_centroid = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (zero_mean[i] || !zero_mean[j]) continue;
            worst_to_centroid =
                std::max({worst_to_centroid, engine.Distance(i, j),
                          engine.Distance(j, i)});
          }
        }
        EXPECT_LE(worst_to_centroid, 1.0 + 1e-12)
            << "m=" << m << " half=" << half << " bluestein="
            << (impl == core::CrossCorrelationImpl::kFftNoPow2);
        std::vector<double> d(n * n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            d[i * n + j] =
                std::sqrt(std::clamp(engine.Distance(i, j), 0.0, 1.0));
          }
        }
        double worst = 0.0;
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t c = 0; c < n; ++c) {
              worst = std::max(
                  worst, d[a * n + c] - d[a * n + b] - d[b * n + c]);
            }
          }
        }
        EXPECT_LE(worst, tol) << "m=" << m << " half=" << half
                              << " bluestein="
                              << (impl ==
                                  core::CrossCorrelationImpl::kFftNoPow2);
      }
    }
  }
}

// Randomized sweeps of SBD's metric-like properties as observed through the
// parallel PairwiseDistanceMatrix path (the entry point k-medoids,
// hierarchical, spectral, validity metrics, and EstimateK all share). Run at
// several thread counts so the properties are checked on the actual
// concurrent code path, not just the inline fallback.
class ParallelSbdMatrixPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { common::SetThreadCount(GetParam()); }
  void TearDown() override { common::SetThreadCount(1); }
};

TEST_P(ParallelSbdMatrixPropertyTest, SymmetryZeroDiagonalAndRange) {
  common::Rng rng(8);
  const core::SbdDistance sbd;
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 17 + 4 * trial;  // Deliberately not grain-aligned.
    const std::size_t m = 24 + 7 * trial;
    std::vector<Series> series;
    for (std::size_t i = 0; i < n; ++i) {
      series.push_back(tseries::ZNormalized(RandomSeries(m, &rng)));
    }
    const linalg::Matrix d = cluster::PairwiseDistanceMatrix(series, sbd);
    ASSERT_EQ(d.rows(), n);
    ASSERT_EQ(d.cols(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d(i, i), 0.0) << "diagonal at " << i;
      for (std::size_t j = 0; j < n; ++j) {
        // Bitwise symmetry: the matrix builder mirrors one computed value,
        // so this is exact, not approximate.
        EXPECT_EQ(d(i, j), d(j, i)) << i << "," << j;
        EXPECT_GE(d(i, j), 0.0);
        EXPECT_LE(d(i, j), 2.0 + 1e-12);
      }
    }
  }
}

TEST_P(ParallelSbdMatrixPropertyTest, DegenerateConstantSeriesHitDenZero) {
  // Constant series have zero norm after z-normalization, taking the
  // den == 0 branch of Sbd(): distance 1 to anything non-degenerate and to
  // each other, with no preferred shift. Mix constants among regular series
  // so both branch directions occur inside one parallel matrix build.
  common::Rng rng(9);
  const core::SbdDistance sbd;
  const std::size_t m = 32;
  std::vector<Series> series;
  std::vector<bool> is_constant;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      series.push_back(Series(m, static_cast<double>(i)));  // Constant.
      is_constant.push_back(true);
    } else {
      series.push_back(tseries::ZNormalized(RandomSeries(m, &rng)));
      is_constant.push_back(false);
    }
  }
  // ZNormalized maps constants to all-zero; apply it where the clustering
  // pipelines would.
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (is_constant[i]) series[i] = tseries::ZNormalized(series[i]);
  }
  const linalg::Matrix d = cluster::PairwiseDistanceMatrix(series, sbd);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      if (i == j) continue;
      if (is_constant[i] || is_constant[j]) {
        EXPECT_EQ(d(i, j), 1.0) << i << "," << j;
      } else {
        EXPECT_LT(d(i, j), 2.0 + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelSbdMatrixPropertyTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(CrossCorrelationSymmetryTest, SequenceReversesBetweenArgumentOrders) {
  // R_k(x, y) == R_{-k}(y, x): the NCC sequence of (y, x) is the reverse of
  // the sequence of (x, y).
  common::Rng rng(7);
  const Series x = RandomSeries(25, &rng);
  const Series y = RandomSeries(25, &rng);
  const auto xy = core::NccSequence(x, y, core::NccNormalization::kCoefficient);
  const auto yx = core::NccSequence(y, x, core::NccNormalization::kCoefficient);
  ASSERT_EQ(xy.size(), yx.size());
  for (std::size_t i = 0; i < xy.size(); ++i) {
    EXPECT_NEAR(xy[i], yx[yx.size() - 1 - i], 1e-9);
  }
}

}  // namespace
}  // namespace kshape
