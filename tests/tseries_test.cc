#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tseries/io.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace kshape::tseries {
namespace {

TEST(DatasetTest, AddAndAccess) {
  Dataset d("toy");
  d.Add({1.0, 2.0, 3.0}, 0);
  d.Add({4.0, 5.0, 6.0}, 1);
  EXPECT_EQ(d.name(), "toy");
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.length(), 3u);
  EXPECT_EQ(d.label(1), 1);
  EXPECT_DOUBLE_EQ(d.series(0)[2], 3.0);
  EXPECT_EQ(d.NumClasses(), 2);
}

TEST(DatasetTest, DistinctLabelsAreSorted) {
  Dataset d;
  d.Add({1.0}, 5);
  d.Add({2.0}, -1);
  d.Add({3.0}, 5);
  d.Add({4.0}, 2);
  const std::vector<int> labels = d.DistinctLabels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], -1);
  EXPECT_EQ(labels[1], 2);
  EXPECT_EQ(labels[2], 5);
}

TEST(DatasetTest, SubsetSelectsRows) {
  Dataset d("full");
  for (int i = 0; i < 5; ++i) d.Add({double(i), double(i)}, i % 2);
  const Dataset sub = d.Subset({0, 3, 4}, "sub");
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.series(1)[0], 3.0);
  EXPECT_EQ(sub.label(1), 1);
}

TEST(DatasetTest, AppendFusesDatasets) {
  Dataset a("a");
  a.Add({1.0, 2.0}, 0);
  Dataset b("b");
  b.Add({3.0, 4.0}, 1);
  a.Append(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.label(1), 1);
}

TEST(SplitDatasetTest, FusedConcatenatesTrainAndTest) {
  SplitDataset split;
  split.train.set_name("x");
  split.train.Add({1.0}, 0);
  split.test.Add({2.0}, 1);
  const Dataset fused = split.Fused();
  EXPECT_EQ(fused.size(), 2u);
  EXPECT_EQ(fused.name(), "x");
}

TEST(NormalizationTest, MeanAndStdDev) {
  const Series x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(x), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(x), 2.0);  // Population std.
}

TEST(NormalizationTest, ZNormalizeGivesZeroMeanUnitVariance) {
  common::Rng rng(1);
  Series x(100);
  for (double& v : x) v = rng.Uniform(-5.0, 20.0);
  ZNormalizeInPlace(&x);
  EXPECT_NEAR(Mean(x), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(x), 1.0, 1e-12);
}

TEST(NormalizationTest, ZNormalizeConstantSeriesIsZero) {
  Series x(10, 3.5);
  ZNormalizeInPlace(&x);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NormalizationTest, ZNormalizeIsScaleAndTranslationInvariant) {
  common::Rng rng(2);
  Series x(50);
  for (double& v : x) v = rng.Gaussian();
  Series y(50);
  for (std::size_t i = 0; i < 50; ++i) y[i] = 3.0 * x[i] - 7.0;
  const Series zx = ZNormalized(x);
  const Series zy = ZNormalized(y);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(zx[i], zy[i], 1e-10);
  }
}

TEST(NormalizationTest, MinMaxMapsToUnitInterval) {
  Series x = {-2.0, 0.0, 6.0};
  MinMaxNormalizeInPlace(&x);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.25);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(NormalizationTest, MinMaxConstantSeriesIsZero) {
  Series x(5, 2.0);
  MinMaxNormalizeInPlace(&x);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NormalizationTest, OptimalScalingRecoversTrueCoefficient) {
  common::Rng rng(3);
  Series y(64);
  for (double& v : y) v = rng.Gaussian();
  Series x(64);
  for (std::size_t i = 0; i < 64; ++i) x[i] = 2.5 * y[i];
  EXPECT_NEAR(OptimalScalingCoefficient(x, y), 2.5, 1e-12);
  const Series scaled = OptimallyScaled(x, y);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(scaled[i], x[i], 1e-10);
  }
}

TEST(NormalizationTest, OptimalScalingOfZeroDenominatorIsZero) {
  const Series x = {1.0, 2.0};
  const Series zero = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(OptimalScalingCoefficient(x, zero), 0.0);
}

TEST(NormalizationTest, ShiftWithZeroFillDelaysAndAdvances) {
  const Series x = {1.0, 2.0, 3.0, 4.0};
  const Series delayed = ShiftWithZeroFill(x, 2);
  EXPECT_DOUBLE_EQ(delayed[0], 0.0);
  EXPECT_DOUBLE_EQ(delayed[1], 0.0);
  EXPECT_DOUBLE_EQ(delayed[2], 1.0);
  EXPECT_DOUBLE_EQ(delayed[3], 2.0);
  const Series advanced = ShiftWithZeroFill(x, -1);
  EXPECT_DOUBLE_EQ(advanced[0], 2.0);
  EXPECT_DOUBLE_EQ(advanced[2], 4.0);
  EXPECT_DOUBLE_EQ(advanced[3], 0.0);
  const Series same = ShiftWithZeroFill(x, 0);
  EXPECT_DOUBLE_EQ(same[0], 1.0);
  EXPECT_DOUBLE_EQ(same[3], 4.0);
}

TEST(NormalizationTest, RandomlyRescaleChangesAmplitudeOnly) {
  common::Rng rng(4);
  Dataset d;
  d.Add({1.0, 2.0, 3.0}, 0);
  RandomlyRescaleDataset(&d, &rng, 2.0, 2.0);  // Deterministic factor 2.
  EXPECT_DOUBLE_EQ(d.series(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(d.series(0)[2], 6.0);
}

TEST(IoTest, ParseUcrTextCommaSeparated) {
  const auto result = ParseUcrText("1,0.5,1.5,2.5\n2,3.0,4.0,5.0\n", "t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& d = result.value();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.length(), 3u);
  EXPECT_EQ(d.label(0), 1);
  EXPECT_EQ(d.label(1), 2);
  EXPECT_DOUBLE_EQ(d.series(1)[2], 5.0);
}

TEST(IoTest, ParseUcrTextWhitespaceSeparated) {
  const auto result = ParseUcrText("0 1.0 2.0\n1\t3.0\t4.0\n", "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

TEST(IoTest, ParseRejectsRaggedRows) {
  const auto result = ParseUcrText("1,1.0,2.0\n2,3.0\n", "t");
  EXPECT_FALSE(result.ok());
}

TEST(IoTest, ParseRejectsGarbageValues) {
  const auto result = ParseUcrText("1,abc,2.0\n", "t");
  EXPECT_FALSE(result.ok());
  // A label whose nearest integer does not fit in an int must not wrap.
  for (const char* text : {"0 1 2 3\n3e9 1 2 3\n", "-3e9 1 2 3\n"}) {
    const auto out_of_range = ParseUcrText(text, "t");
    ASSERT_FALSE(out_of_range.ok()) << text;
    EXPECT_EQ(out_of_range.status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_NE(out_of_range.status().message().find("line "),
              std::string::npos);
  }
}

TEST(IoTest, ParseRejectsEmptyInput) {
  const auto result = ParseUcrText("\n\n", "t");
  EXPECT_FALSE(result.ok());
}

TEST(IoTest, WriteThenReadRoundTrips) {
  Dataset d("roundtrip");
  d.Add({1.25, -2.5, 3.75}, 1);
  d.Add({0.0, 0.125, -0.25}, 2);
  const std::string path = ::testing::TempDir() + "/kshape_io_test.csv";
  ASSERT_TRUE(WriteUcrFile(d, path).ok());
  const auto result = ReadUcrFile(path, "roundtrip");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& back = result.value();
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back.label(i), d.label(i));
    for (std::size_t t = 0; t < d.length(); ++t) {
      EXPECT_DOUBLE_EQ(back.series(i)[t], d.series(i)[t]);
    }
  }
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileReturnsIoError) {
  const auto result = ReadUcrFile("/nonexistent/definitely/missing.csv", "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kIoError);
}

}  // namespace
}  // namespace kshape::tseries
