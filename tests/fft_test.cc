#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "simd/dispatch.h"

namespace kshape::fft {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTol = 1e-9;

// Reference O(n^2) DFT used as the oracle for all transform tests.
std::vector<Complex> NaiveDft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<Complex> RandomComplexVector(std::size_t n, common::Rng* rng) {
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng->Gaussian(), rng->Gaussian());
  return x;
}

std::vector<double> RandomRealVector(std::size_t n, common::Rng* rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng->Gaussian();
  return x;
}

TEST(NextPowerOfTwoTest, KnownValues) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(4), 4u);
  EXPECT_EQ(NextPowerOfTwo(5), 8u);
  EXPECT_EQ(NextPowerOfTwo(255), 256u);
  EXPECT_EQ(NextPowerOfTwo(256), 256u);
  EXPECT_EQ(NextPowerOfTwo(257), 512u);
}

TEST(IsPowerOfTwoTest, KnownValues) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(6));
  EXPECT_FALSE(IsPowerOfTwo(1023));
}

TEST(FftTest, SingleElementIsIdentity) {
  std::vector<Complex> x = {Complex(3.5, -1.25)};
  Forward(&x);
  EXPECT_NEAR(x[0].real(), 3.5, kTol);
  EXPECT_NEAR(x[0].imag(), -1.25, kTol);
  Inverse(&x);
  EXPECT_NEAR(x[0].real(), 3.5, kTol);
}

TEST(FftTest, KnownFourPointTransform) {
  // DFT of [1, 2, 3, 4] = [10, -2+2i, -2, -2-2i].
  std::vector<Complex> x = {Complex(1, 0), Complex(2, 0), Complex(3, 0),
                            Complex(4, 0)};
  Forward(&x);
  EXPECT_NEAR(x[0].real(), 10.0, kTol);
  EXPECT_NEAR(x[0].imag(), 0.0, kTol);
  EXPECT_NEAR(x[1].real(), -2.0, kTol);
  EXPECT_NEAR(x[1].imag(), 2.0, kTol);
  EXPECT_NEAR(x[2].real(), -2.0, kTol);
  EXPECT_NEAR(x[2].imag(), 0.0, kTol);
  EXPECT_NEAR(x[3].real(), -2.0, kTol);
  EXPECT_NEAR(x[3].imag(), -2.0, kTol);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  common::Rng rng(GetParam() * 7919 + 1);
  const std::vector<Complex> x = RandomComplexVector(GetParam(), &rng);
  std::vector<Complex> fast = x;
  Forward(&fast);
  const std::vector<Complex> slow = NaiveDft(x);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-7) << "k=" << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-7) << "k=" << k;
  }
}

TEST_P(FftSizeTest, RoundTripRecoversInput) {
  common::Rng rng(GetParam() * 104729 + 2);
  const std::vector<Complex> x = RandomComplexVector(GetParam(), &rng);
  std::vector<Complex> y = x;
  Forward(&y);
  Inverse(&y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-8);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-8);
  }
}

TEST_P(FftSizeTest, ParsevalIdentityHolds) {
  common::Rng rng(GetParam() * 31 + 3);
  const std::vector<Complex> x = RandomComplexVector(GetParam(), &rng);
  std::vector<Complex> f = x;
  Forward(&f);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const Complex& v : x) time_energy += std::norm(v);
  for (const Complex& v : f) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(x.size()),
              1e-6 * (1.0 + time_energy));
}

// Power-of-two sizes exercise the radix-2 path, the rest Bluestein.
INSTANTIATE_TEST_SUITE_P(AllSizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16,
                                           25, 27, 32, 33, 64, 100, 127, 128,
                                           129, 255, 256, 257, 500));

TEST(FftTest, LinearityOfTransform) {
  common::Rng rng(42);
  const std::size_t n = 64;
  const std::vector<Complex> x = RandomComplexVector(n, &rng);
  const std::vector<Complex> y = RandomComplexVector(n, &rng);
  const Complex a(1.5, -0.5);
  const Complex b(-2.0, 0.25);

  std::vector<Complex> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = a * x[i] + b * y[i];
  Forward(&combo);

  std::vector<Complex> fx = x;
  std::vector<Complex> fy = y;
  Forward(&fx);
  Forward(&fy);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex expected = a * fx[i] + b * fy[i];
    EXPECT_NEAR(combo[i].real(), expected.real(), 1e-8);
    EXPECT_NEAR(combo[i].imag(), expected.imag(), 1e-8);
  }
}

TEST(RealForwardTest, MatchesComplexTransformWithZeroPadding) {
  common::Rng rng(7);
  const std::vector<double> x = RandomRealVector(20, &rng);
  const std::size_t n = 32;
  const std::vector<Complex> real_fft = RealForward(x, n);

  std::vector<Complex> reference(n, Complex(0, 0));
  for (std::size_t i = 0; i < x.size(); ++i) reference[i] = Complex(x[i], 0);
  Forward(&reference);

  ASSERT_EQ(real_fft.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(real_fft[k].real(), reference[k].real(), 1e-9);
    EXPECT_NEAR(real_fft[k].imag(), reference[k].imag(), 1e-9);
  }
}

TEST(RealForwardTest, SpectrumOfRealInputIsConjugateSymmetric) {
  common::Rng rng(11);
  const std::size_t n = 64;
  const std::vector<double> x = RandomRealVector(n, &rng);
  const std::vector<Complex> f = RealForward(x, n);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(f[k].real(), f[n - k].real(), 1e-9);
    EXPECT_NEAR(f[k].imag(), -f[n - k].imag(), 1e-9);
  }
}

class CrossCorrelationSizeTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrossCorrelationSizeTest, FftMatchesNaive) {
  common::Rng rng(GetParam() * 13 + 5);
  const std::vector<double> x = RandomRealVector(GetParam(), &rng);
  const std::vector<double> y = RandomRealVector(GetParam(), &rng);
  const std::vector<double> fast = CrossCorrelationFft(x, y);
  const std::vector<double> slow = CrossCorrelationNaive(x, y);
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.size(), 2 * GetParam() - 1);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "lag index " << i;
  }
}

TEST_P(CrossCorrelationSizeTest, NoPow2MatchesNaive) {
  common::Rng rng(GetParam() * 17 + 6);
  const std::vector<double> x = RandomRealVector(GetParam(), &rng);
  const std::vector<double> y = RandomRealVector(GetParam(), &rng);
  const std::vector<double> fast = CrossCorrelationFftNoPow2(x, y);
  const std::vector<double> slow = CrossCorrelationNaive(x, y);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "lag index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CrossCorrelationSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 32, 33, 60,
                                           100, 128, 200));

TEST(CrossCorrelationTest, ZeroLagIsDotProduct) {
  common::Rng rng(100);
  const std::size_t m = 50;
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  const std::vector<double> cc = CrossCorrelationFft(x, y);
  double dot = 0.0;
  for (std::size_t i = 0; i < m; ++i) dot += x[i] * y[i];
  EXPECT_NEAR(cc[m - 1], dot, 1e-8);
}

TEST(CrossCorrelationTest, SelfCorrelationPeaksAtZeroLag) {
  common::Rng rng(101);
  const std::vector<double> x = RandomRealVector(80, &rng);
  const std::vector<double> cc = CrossCorrelationFft(x, x);
  const std::size_t peak =
      std::max_element(cc.begin(), cc.end()) - cc.begin();
  EXPECT_EQ(peak, x.size() - 1);
}

TEST(CrossCorrelationTest, DetectsKnownShift) {
  // y is x delayed by 7 samples: the peak must sit at lag +7.
  const std::size_t m = 64;
  std::vector<double> x(m, 0.0);
  std::vector<double> y(m, 0.0);
  for (std::size_t t = 0; t < m; ++t) {
    x[t] = std::sin(2.0 * kPi * 3.0 * t / m);
  }
  const int shift = 7;
  for (std::size_t t = shift; t < m; ++t) y[t] = x[t - shift];
  // R_k(x, y) peaks where x slides left to meet the delayed copy: k = -7.
  const std::vector<double> cc = CrossCorrelationFft(x, y);
  const std::size_t peak =
      std::max_element(cc.begin(), cc.end()) - cc.begin();
  EXPECT_EQ(static_cast<int>(peak) - static_cast<int>(m - 1), -shift);
}

TEST(ConvolveTest, MatchesHandComputedExample) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, 5};
  // Linear convolution: [4, 13, 22, 15].
  const std::vector<double> c = Convolve(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c[0], 4.0, 1e-9);
  EXPECT_NEAR(c[1], 13.0, 1e-9);
  EXPECT_NEAR(c[2], 22.0, 1e-9);
  EXPECT_NEAR(c[3], 15.0, 1e-9);
}

TEST(ConvolveTest, DeltaIsConvolutionIdentity) {
  common::Rng rng(5);
  const std::vector<double> x = RandomRealVector(40, &rng);
  const std::vector<double> delta = {1.0};
  const std::vector<double> c = Convolve(x, delta);
  ASSERT_EQ(c.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(c[i], x[i], 1e-9);
  }
}

TEST(PlanCacheTest, ReturnsSameObjectForSameSize) {
  const Radix2Plan& a = GetPlan(64);
  const Radix2Plan& b = GetPlan(64);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.n(), 64u);
}

// The radix-2 transform runs through the simd::radix2_transform kernel,
// whose scalar and AVX2 variants promise bit-identical results (fixed
// rounding sequence, no FMA contraction). These tests pin that contract at
// the transform level: flipping the backend must not move a single bit.
class FftBackendTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = simd::ActiveBackend(); }
  void TearDown() override { simd::SetBackendForTesting(original_); }

 private:
  simd::Backend original_ = simd::Backend::kScalar;
};

TEST_F(FftBackendTest, ForwardBitIdenticalAcrossBackends) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 backend not available";
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 128u, 256u, 1024u}) {
    common::Rng rng(n * 19 + 3);
    const std::vector<Complex> x = RandomComplexVector(n, &rng);

    simd::SetBackendForTesting(simd::Backend::kScalar);
    std::vector<Complex> scalar = x;
    Forward(&scalar);

    simd::SetBackendForTesting(simd::Backend::kAvx2);
    std::vector<Complex> avx2 = x;
    Forward(&avx2);

    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(scalar[k].real(), avx2[k].real()) << "n=" << n << " k=" << k;
      EXPECT_EQ(scalar[k].imag(), avx2[k].imag()) << "n=" << n << " k=" << k;
    }
  }
}

TEST_F(FftBackendTest, InverseBitIdenticalAcrossBackends) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 backend not available";
  for (std::size_t n : {2u, 8u, 32u, 512u}) {
    common::Rng rng(n * 23 + 9);
    const std::vector<Complex> x = RandomComplexVector(n, &rng);

    simd::SetBackendForTesting(simd::Backend::kScalar);
    std::vector<Complex> scalar = x;
    Inverse(&scalar);

    simd::SetBackendForTesting(simd::Backend::kAvx2);
    std::vector<Complex> avx2 = x;
    Inverse(&avx2);

    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(scalar[k].real(), avx2[k].real()) << "n=" << n << " k=" << k;
      EXPECT_EQ(scalar[k].imag(), avx2[k].imag()) << "n=" << n << " k=" << k;
    }
  }
}

TEST_F(FftBackendTest, CrossCorrelationBitIdenticalAcrossBackends) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 backend not available";
  // 60 pads to a non-power-of-two 119 under NoPow2 (Bluestein, whose inner
  // convolutions also run on the kernel); 128 stays pure radix-2.
  for (std::size_t m : {60u, 128u}) {
    common::Rng rng(m * 29 + 1);
    const std::vector<double> x = RandomRealVector(m, &rng);
    const std::vector<double> y = RandomRealVector(m, &rng);

    simd::SetBackendForTesting(simd::Backend::kScalar);
    const std::vector<double> scalar_fft = CrossCorrelationFft(x, y);
    const std::vector<double> scalar_blu = CrossCorrelationFftNoPow2(x, y);

    simd::SetBackendForTesting(simd::Backend::kAvx2);
    const std::vector<double> avx2_fft = CrossCorrelationFft(x, y);
    const std::vector<double> avx2_blu = CrossCorrelationFftNoPow2(x, y);

    for (std::size_t i = 0; i < scalar_fft.size(); ++i) {
      EXPECT_EQ(scalar_fft[i], avx2_fft[i]) << "m=" << m << " lag=" << i;
    }
    for (std::size_t i = 0; i < scalar_blu.size(); ++i) {
      EXPECT_EQ(scalar_blu[i], avx2_blu[i]) << "m=" << m << " lag=" << i;
    }
  }
}

}  // namespace
}  // namespace kshape::fft
