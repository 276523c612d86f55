// Property-based robustness checks for the metric layer and the input
// conditioner, swept over random seeds and over series lengths that are not
// powers of two (so the no-pow2 FFT path exercises Bluestein's algorithm):
//
//   - SBD stays within its documented range [0, 2] and is symmetric;
//   - SBD(x, x) = 0 and z-normalized SBD ignores amplitude scale and offset
//     (the invariances of Section 3.1 of the paper);
//   - circularly shifting a compactly supported series is recovered by the
//     alignment search (near-zero distance);
//   - conditioning is idempotent: re-conditioning an already conditioned
//     series with the same options is an exact no-op;
//   - the fault injector is deterministic under a fixed seed, and its output
//     conditions into a clusterable dataset end-to-end.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "data/generators.h"
#include "harness/experiments.h"
#include "tseries/conditioning.h"
#include "tseries/io.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

// 31, 37, 61 are prime (Bluestein under kFftNoPow2); 48 is even but not a
// power of two; 64 covers the fast path.
constexpr std::size_t kLengths[] = {31, 37, 48, 61, 64};
constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr core::CrossCorrelationImpl kImpls[] = {
    core::CrossCorrelationImpl::kFft,
    core::CrossCorrelationImpl::kFftNoPow2,
};

Series RandomSeries(std::size_t m, common::Rng* rng) {
  return tseries::ZNormalized(
      data::MakeCbf(rng->UniformInt(3), m, rng));
}

TEST(SbdPropertiesTest, RangeSymmetryAndIdentity) {
  for (const uint64_t seed : kSeeds) {
    for (const std::size_t m : kLengths) {
      common::Rng rng(seed);
      const Series x = RandomSeries(m, &rng);
      const Series y = RandomSeries(m, &rng);
      for (const auto impl : kImpls) {
        const double dxy = core::Sbd(x, y, impl).distance;
        const double dyx = core::Sbd(y, x, impl).distance;
        EXPECT_GE(dxy, -1e-9) << "m=" << m << " seed=" << seed;
        EXPECT_LE(dxy, 2.0 + 1e-9) << "m=" << m << " seed=" << seed;
        EXPECT_NEAR(dxy, dyx, 1e-9) << "m=" << m << " seed=" << seed;
        EXPECT_NEAR(core::Sbd(x, x, impl).distance, 0.0, 1e-9)
            << "m=" << m << " seed=" << seed;
      }
    }
  }
}

TEST(SbdPropertiesTest, ZNormalizedScaleAndOffsetInvariance) {
  for (const uint64_t seed : kSeeds) {
    for (const std::size_t m : kLengths) {
      common::Rng rng(seed);
      const Series x = data::MakeShiftedSine(1, m, &rng, 0.05);
      Series transformed = x;
      const double scale = rng.Uniform(0.5, 10.0);
      const double offset = rng.Uniform(-5.0, 5.0);
      for (double& v : transformed) v = scale * v + offset;
      for (const auto impl : kImpls) {
        const double d = core::Sbd(tseries::ZNormalized(x),
                                   tseries::ZNormalized(transformed), impl)
                             .distance;
        EXPECT_NEAR(d, 0.0, 1e-8)
            << "m=" << m << " seed=" << seed << " scale=" << scale;
      }
    }
  }
}

TEST(SbdPropertiesTest, CircularShiftOfCompactSupportIsRecovered) {
  // A noiseless bump supported strictly inside the window: circularly
  // shifting it by less than the margin only rotates zeros around the ends,
  // so the SBD alignment search must recover the shift exactly and report a
  // near-zero distance (Figure 1's global-alignment regime).
  for (const std::size_t m : kLengths) {
    Series bump(m, 0.0);
    const double center = 0.5 * static_cast<double>(m);
    const double width = 0.05 * static_cast<double>(m);
    for (std::size_t t = 0; t < m; ++t) {
      const double z = (static_cast<double>(t) - center) / width;
      bump[t] = std::exp(-0.5 * z * z);
    }
    const int margin = static_cast<int>(m) / 8;
    for (const int shift : {-margin, margin}) {
      Series rotated = bump;
      if (shift >= 0) {
        std::rotate(rotated.begin(), rotated.end() - shift, rotated.end());
      } else {
        std::rotate(rotated.begin(), rotated.begin() - shift, rotated.end());
      }
      for (const auto impl : kImpls) {
        const core::SbdResult result = core::Sbd(bump, rotated, impl);
        EXPECT_NEAR(result.distance, 0.0, 1e-7)
            << "m=" << m << " shift=" << shift;
        EXPECT_EQ(result.shift, -shift) << "m=" << m;
      }
    }
  }
}

TEST(ConditioningPropertiesTest, ConditioningIsIdempotent) {
  // Every policy combination: conditioning an already conditioned series a
  // second time with the same options must be an exact (bitwise) no-op.
  const tseries::LengthPolicy length_policies[] = {
      tseries::LengthPolicy::kPadZeros, tseries::LengthPolicy::kTruncate,
      tseries::LengthPolicy::kResample};
  const tseries::MissingPolicy missing_policies[] = {
      tseries::MissingPolicy::kInterpolate, tseries::MissingPolicy::kMeanFill};

  for (const uint64_t seed : kSeeds) {
    for (const std::size_t m : kLengths) {
      for (const auto lp : length_policies) {
        for (const auto mp : missing_policies) {
          common::Rng rng(seed);
          Series corrupted = data::MakeCbf(0, m, &rng);
          data::FaultInjectionOptions faults;
          faults.nan_probability = 1.0;
          faults.truncate_probability = 0.5;
          data::InjectFaults(&corrupted, faults, &rng);

          tseries::ConditioningOptions options;
          options.length_policy = lp;
          options.missing_policy = mp;
          // Pad targets the full length (a truncated tail is refilled);
          // truncate/resample target half of it (every fault-injected length
          // stays >= m/2, so truncation never sees a too-short series).
          options.target_length =
              lp == tseries::LengthPolicy::kPadZeros ? m : m / 2;

          const auto once =
              tseries::ConditionSeries(corrupted, options.target_length,
                                       options);
          ASSERT_TRUE(once.ok()) << once.status().ToString();
          const auto twice =
              tseries::ConditionSeries(once.value(), options.target_length,
                                       options);
          ASSERT_TRUE(twice.ok()) << twice.status().ToString();
          EXPECT_EQ(once.value(), twice.value())
              << "policies " << tseries::LengthPolicyName(lp) << "/"
              << tseries::MissingPolicyName(mp) << " m=" << m;
        }
      }
    }
  }
}

TEST(ConditioningPropertiesTest, PoliciesProduceEqualLengthFiniteOutput) {
  for (const uint64_t seed : kSeeds) {
    common::Rng rng(seed);
    data::FaultInjectionOptions faults;
    faults.nan_probability = 0.6;
    faults.truncate_probability = 0.6;
    faults.constant_probability = 0.3;
    faults.spike_probability = 0.3;
    const data::CorruptedData corpus = data::MakeCorruptedData(
        "corrupted", 3, 6, [](int klass, common::Rng* r) {
          return data::MakeCbf(klass, 60, r);
        }, faults, &rng);

    for (const auto lp : {tseries::LengthPolicy::kPadZeros,
                          tseries::LengthPolicy::kTruncate,
                          tseries::LengthPolicy::kResample}) {
      tseries::ConditioningOptions options;
      options.length_policy = lp;
      options.missing_policy = tseries::MissingPolicy::kInterpolate;
      const auto dataset = tseries::ConditionToDataset(
          corpus.series, corpus.labels, corpus.name, options);
      ASSERT_TRUE(dataset.ok())
          << tseries::LengthPolicyName(lp) << ": "
          << dataset.status().ToString();
      EXPECT_EQ(dataset.value().size(), corpus.series.size());
      for (std::size_t i = 0; i < dataset.value().size(); ++i) {
        EXPECT_EQ(dataset.value().series(i).size(), dataset.value().length());
        for (const double v : dataset.value().series(i)) {
          EXPECT_TRUE(std::isfinite(v))
              << "series " << i << " under " << tseries::LengthPolicyName(lp);
        }
      }
    }
  }
}

TEST(FaultInjectionTest, DeterministicUnderFixedSeed) {
  data::FaultInjectionOptions faults;
  faults.nan_probability = 0.5;
  faults.truncate_probability = 0.5;
  faults.constant_probability = 0.5;
  faults.spike_probability = 0.5;
  const auto generate = [&] {
    common::Rng rng(99);
    return data::MakeCorruptedData("repro", 2, 8, [](int klass,
                                                     common::Rng* r) {
      return data::MakeCbf(klass, 50, r);
    }, faults, &rng);
  };
  const data::CorruptedData a = generate();
  const data::CorruptedData b = generate();
  ASSERT_EQ(a.series.size(), b.series.size());
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    ASSERT_EQ(a.series[i].size(), b.series[i].size()) << "series " << i;
    for (std::size_t t = 0; t < a.series[i].size(); ++t) {
      // NaN != NaN, so compare bit patterns via the isnan split.
      if (std::isnan(a.series[i][t])) {
        EXPECT_TRUE(std::isnan(b.series[i][t])) << i << "," << t;
      } else {
        EXPECT_EQ(a.series[i][t], b.series[i][t]) << i << "," << t;
      }
    }
  }
}

TEST(FaultInjectionTest, CorruptedCorpusClustersEndToEndThroughHarness) {
  // The acceptance path of the robustness layer: a ragged, NaN-bearing corpus
  // goes through TryAverageRandIndex (conditioning + validation + k-Shape)
  // and comes out as a finite score, with no aborts anywhere.
  common::Rng rng(7);
  data::FaultInjectionOptions faults;
  faults.nan_probability = 0.4;
  faults.truncate_probability = 0.4;
  faults.constant_probability = 0.2;
  const data::CorruptedData corpus = data::MakeCorruptedData(
      "end-to-end", 3, 8, [](int klass, common::Rng* r) {
        return data::MakeCbf(klass, 64, r);
      }, faults, &rng);

  tseries::ConditioningOptions conditioning;
  conditioning.length_policy = tseries::LengthPolicy::kResample;
  conditioning.missing_policy = tseries::MissingPolicy::kInterpolate;

  const core::KShape algorithm;
  const auto score = harness::TryAverageRandIndex(
      algorithm, corpus.series, corpus.labels, 3, 3, 42, conditioning);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_TRUE(std::isfinite(score.value()));
  EXPECT_GE(score.value(), 0.0);
  EXPECT_LE(score.value(), 1.0);

  // Without conditioning the same corpus is rejected with a Status error,
  // never an abort.
  const auto rejected = harness::TryAverageRandIndex(
      algorithm, corpus.series, corpus.labels, 3, 3, 42, {});
  EXPECT_FALSE(rejected.ok());
}

TEST(ConditioningPropertiesTest, LenientUcrReaderConditionsHostileText) {
  // Ragged rows with "?", "nan" and "inf" markers: the lenient overload
  // repairs them under the given policies; the strict-equivalent options
  // (both kReject) refuse the same text with a Status error.
  const std::string text =
      "0,1.0,2.0,?,4.0,5.0\n"
      "1,2.0,nan,6.0\n"
      "0,3.0,1.0,4.0,inf,2.0,7.0\n";

  tseries::ConditioningOptions lenient;
  lenient.length_policy = tseries::LengthPolicy::kPadZeros;
  lenient.missing_policy = tseries::MissingPolicy::kInterpolate;
  const auto dataset = tseries::ParseUcrText(text, "hostile", lenient);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset.value().size(), 3u);
  EXPECT_EQ(dataset.value().length(), 6u);  // Padded to the longest row.
  EXPECT_EQ(dataset.value().labels(), (std::vector<int>{0, 1, 0}));
  for (std::size_t i = 0; i < dataset.value().size(); ++i) {
    for (const double v : dataset.value().series(i)) {
      EXPECT_TRUE(std::isfinite(v)) << "series " << i;
    }
  }
  // Missing markers were interpolated, not zeroed: row 0's "?" sits between
  // 2.0 and 4.0, so it must come back as 3.0.
  EXPECT_DOUBLE_EQ(dataset.value().series(0)[2], 3.0);

  const auto rejected = tseries::ParseUcrText(text, "hostile", {});
  EXPECT_FALSE(rejected.ok());

  // Conditioning repairs values, never labels: a label outside the int
  // range is an error naming its line, not a wrapped class id.
  const auto wrapped_label =
      tseries::ParseUcrText(text + "3e9,1.0,2.0\n", "hostile", lenient);
  ASSERT_FALSE(wrapped_label.ok());
  EXPECT_NE(wrapped_label.status().message().find("line 4"),
            std::string::npos);
}

TEST(TrySbdTest, RejectsMalformedAndAcceptsDegenerate) {
  const Series x(32, 1.0);
  Series with_nan = x;
  with_nan[5] = std::numeric_limits<double>::quiet_NaN();

  EXPECT_FALSE(core::TrySbd(Series{}, x).ok());
  EXPECT_FALSE(core::TrySbd(x, Series(16, 1.0)).ok());
  EXPECT_FALSE(core::TrySbd(with_nan, x).ok());
  EXPECT_FALSE(core::TrySbd(x, with_nan).ok());

  // Constant (zero-norm after z-normalization) input is NOT an error: the
  // documented fallback distance 1 applies.
  const auto degenerate =
      core::TrySbd(tseries::ZNormalized(x), tseries::ZNormalized(x));
  ASSERT_TRUE(degenerate.ok());
  EXPECT_EQ(degenerate.value().distance, 1.0);

  common::Rng rng(5);
  const Series a = RandomSeries(48, &rng);
  const Series b = RandomSeries(48, &rng);
  const auto ok = core::TrySbd(a, b);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().distance, core::Sbd(a, b).distance);
}

}  // namespace
}  // namespace kshape
