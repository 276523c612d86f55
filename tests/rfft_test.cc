// Golden-value, round-trip, and convention tests for the half-spectrum RFFT
// layer (fft/rfft.h). The packed transforms are new arithmetic — the
// even/odd packing trick on power-of-two lengths, the full-transform
// fallback on Bluestein lengths — so this suite pins them against the same
// naive O(n^2) DFT oracle fft_test uses, plus the invariants the SBD cache
// relies on: conjugate symmetry of the packed bins, the shared padded-length
// convention, bitwise batch/standalone agreement, and backend bit-identity
// of the product path. The oracle suite at the end pins every transform
// bitwise against a literal copy of the classic transform it replaced.

#include "fft/rfft.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "core/sbd_engine.h"
#include "fft/fft.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"
#include "tseries/time_series.h"

namespace kshape::fft {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Reference O(n^2) DFT of a real sequence, evaluated directly from the
// definition — the oracle every golden-value test compares against.
std::vector<Complex> NaiveRealDft(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<double> RandomRealVector(std::size_t n, common::Rng* rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng->Gaussian();
  return x;
}

// Restores the process-wide half-spectrum gate and SIMD backend after a test
// that flips them, so test order never leaks state.
class HalfSpectrumGuard {
 public:
  HalfSpectrumGuard()
      : enabled_(HalfSpectrumEnabled()), backend_(simd::ActiveBackend()) {}
  ~HalfSpectrumGuard() {
    SetHalfSpectrumEnabledForTesting(enabled_);
    simd::SetBackendForTesting(backend_);
    common::SetThreadCount(1);
  }

 private:
  bool enabled_;
  simd::Backend backend_;
};

TEST(RfftBinsTest, KnownValues) {
  EXPECT_EQ(RfftBins(1), 1u);
  EXPECT_EQ(RfftBins(2), 2u);
  EXPECT_EQ(RfftBins(7), 4u);
  EXPECT_EQ(RfftBins(8), 5u);
  EXPECT_EQ(RfftBins(1024), 513u);
}

// Power-of-two sizes exercise the even/odd packed path (including the n=2
// degenerate half-size-1 transform); the rest exercise the full-transform
// fallback, with odd sizes covering every Bluestein length the kFftNoPow2
// ablation can produce (2m-1 is always odd).
class RfftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftSizeTest, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  common::Rng rng(n * 7919 + 11);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  ASSERT_EQ(spec.fft_len, n);
  ASSERT_EQ(spec.re.size(), RfftBins(n));
  ASSERT_EQ(spec.im.size(), RfftBins(n));

  const std::vector<Complex> slow = NaiveRealDft(x);
  for (std::size_t k = 0; k < spec.bins(); ++k) {
    EXPECT_NEAR(spec.re[k], slow[k].real(), 1e-7 * (1.0 + std::fabs(slow[k].real())))
        << "k=" << k;
    EXPECT_NEAR(spec.im[k], slow[k].imag(), 1e-7 * (1.0 + std::fabs(slow[k].imag())))
        << "k=" << k;
  }
}

TEST_P(RfftSizeTest, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  common::Rng rng(n * 104729 + 12);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  std::vector<double> back(n, 0.0);
  GetRfftPlan(n).Inverse(spec.re.data(), spec.im.data(), back.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-8) << "i=" << i;
  }
}

TEST_P(RfftSizeTest, MatchesFullSpectrumBins) {
  // The packed bins must agree with the full complex Spectrum at the same
  // fft_len — the equivalence the half/full SBD paths rest on.
  const std::size_t n = GetParam();
  common::Rng rng(n * 31 + 13);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum half = RfftForward(x, n);
  const std::vector<Complex> full = Spectrum(x, n);
  for (std::size_t k = 0; k < half.bins(); ++k) {
    EXPECT_NEAR(half.re[k], full[k].real(), 1e-8 * (1.0 + std::fabs(full[k].real())))
        << "k=" << k;
    EXPECT_NEAR(half.im[k], full[k].imag(), 1e-8 * (1.0 + std::fabs(full[k].imag())))
        << "k=" << k;
  }
}

TEST_P(RfftSizeTest, PackedRealBinsAreExactlyReal) {
  // Conjugate symmetry of a real input's spectrum pins bins 0 and n/2 (n
  // even) to the real axis. The packed layout stores them with EXACT zero
  // imaginary parts — by construction on the packed path, forced on the
  // fallback — so downstream products never leak a rounding residue into
  // the implied upper half-spectrum.
  const std::size_t n = GetParam();
  common::Rng rng(n * 13 + 14);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  EXPECT_EQ(spec.im[0], 0.0);
  if (n % 2 == 0) {
    EXPECT_EQ(spec.im[n / 2], 0.0);
  }
}

TEST_P(RfftSizeTest, PackedBinsImplyConjugateSymmetricSpectrum) {
  // Reconstructing the upper bins as conj(packed) must reproduce the full
  // transform: X[n-k] = conj(X[k]).
  const std::size_t n = GetParam();
  common::Rng rng(n * 17 + 15);
  const std::vector<double> x = RandomRealVector(n, &rng);
  const RfftSpectrum spec = RfftForward(x, n);
  const std::vector<Complex> full = Spectrum(x, n);
  for (std::size_t k = spec.bins(); k < n; ++k) {
    const Complex implied =
        std::conj(Complex(spec.re[n - k], spec.im[n - k]));
    EXPECT_NEAR(implied.real(), full[k].real(),
                1e-8 * (1.0 + std::fabs(full[k].real())))
        << "k=" << k;
    EXPECT_NEAR(implied.imag(), full[k].imag(),
                1e-8 * (1.0 + std::fabs(full[k].imag())))
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, RfftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16,
                                           25, 27, 31, 32, 33, 63, 64, 100,
                                           127, 128, 129, 255, 256, 257,
                                           500));

TEST(RfftTest, KnownFourPointTransform) {
  // DFT of [1, 2, 3, 4] = [10, -2+2i, -2, ...]; packed bins are the first 3.
  const std::vector<double> x = {1, 2, 3, 4};
  const RfftSpectrum spec = RfftForward(x, 4);
  ASSERT_EQ(spec.bins(), 3u);
  EXPECT_NEAR(spec.re[0], 10.0, 1e-9);
  EXPECT_NEAR(spec.im[0], 0.0, 1e-9);
  EXPECT_NEAR(spec.re[1], -2.0, 1e-9);
  EXPECT_NEAR(spec.im[1], 2.0, 1e-9);
  EXPECT_NEAR(spec.re[2], -2.0, 1e-9);
  EXPECT_NEAR(spec.im[2], 0.0, 1e-9);
}

TEST(RfftTest, ZeroPaddingMatchesFullSpectrum) {
  // The padded-length convention: a length-20 series transformed at
  // fft_len=64 must match Spectrum's zero-padded transform bin for bin.
  common::Rng rng(7);
  const std::vector<double> x = RandomRealVector(20, &rng);
  const RfftSpectrum half = RfftForward(x, 64);
  const std::vector<Complex> full = Spectrum(x, 64);
  for (std::size_t k = 0; k < half.bins(); ++k) {
    EXPECT_NEAR(half.re[k], full[k].real(), 1e-9);
    EXPECT_NEAR(half.im[k], full[k].imag(), 1e-9);
  }
}

TEST(RfftTest, PadNeverTruncateIsEnforced) {
  // Spectrum, RfftForward, and RfftPlan::Forward share the pad-never-
  // truncate contract; violating it must abort, not silently drop samples.
  const std::vector<double> x(10, 1.0);
  EXPECT_DEATH(RfftForward(x, 8), "pads, never truncates");
  std::vector<double> out_re(RfftBins(8)), out_im(RfftBins(8));
  EXPECT_DEATH(GetRfftPlan(8).Forward(x, out_re.data(), out_im.data()),
               "pads, never truncates");
}

TEST(RfftTest, MismatchedSpectrumLengthsAbort) {
  // Bluestein (2m-1) and power-of-two paddings of the same series are NOT
  // comparable; the product path must reject the mix loudly.
  common::Rng rng(8);
  const std::vector<double> x = RandomRealVector(16, &rng);
  const RfftSpectrum pow2 = RfftForward(x, 32);  // NextPowerOfTwo(31)
  const RfftSpectrum odd = RfftForward(x, 31);   // exact 2m-1
  std::vector<double> cc;
  EXPECT_DEATH(CrossCorrelationFromRfft(pow2.view(), odd.view(), 16, &cc),
               "length mismatch");
}

class RfftCrossCorrelationSizeTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftCrossCorrelationSizeTest, MatchesNaive) {
  const std::size_t m = GetParam();
  common::Rng rng(m * 13 + 21);
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  const std::vector<double> fast = RfftCrossCorrelation(x, y);
  const std::vector<double> slow = CrossCorrelationNaive(x, y);
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.size(), 2 * m - 1);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "lag index " << i;
  }
}

TEST_P(RfftCrossCorrelationSizeTest, CachedHalfMatchesCachedFull) {
  // The half- and full-spectrum cached paths compute the same quantity with
  // different rounding; they must agree to a tight epsilon at both the
  // power-of-two and the Bluestein (exact 2m-1) padding.
  const std::size_t m = GetParam();
  common::Rng rng(m * 17 + 22);
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  for (const std::size_t len :
       {NextPowerOfTwo(2 * m - 1), 2 * m - 1}) {
    const RfftSpectrum hx = RfftForward(x, len);
    const RfftSpectrum hy = RfftForward(y, len);
    std::vector<double> half_cc;
    CrossCorrelationFromRfft(hx.view(), hy.view(), m, &half_cc);

    const std::vector<Complex> fx = Spectrum(x, len);
    const std::vector<Complex> fy = Spectrum(y, len);
    std::vector<double> full_cc;
    CrossCorrelationFromSpectra(fx, fy, m, &full_cc);

    ASSERT_EQ(half_cc.size(), full_cc.size());
    for (std::size_t i = 0; i < half_cc.size(); ++i) {
      EXPECT_NEAR(half_cc[i], full_cc[i], 1e-8) << "len=" << len << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RfftCrossCorrelationSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31, 32, 33, 60,
                                           100, 128, 200));

TEST(BatchSpectraTest, SlotsMatchStandaloneTransformsBitwise) {
  // The batch pool runs the SAME plan and arithmetic as the standalone
  // helper, so slots must match RfftForward bitwise, not just within
  // epsilon.
  common::Rng rng(31);
  const std::size_t count = 9;
  const std::size_t m = 50;
  const std::size_t len = NextPowerOfTwo(2 * m - 1);
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < count; ++i) {
    series.push_back(RandomRealVector(m, &rng));
  }
  BatchSpectra batch(count, len);
  for (std::size_t i = 0; i < count; ++i) batch.Transform(i, series[i]);

  for (std::size_t i = 0; i < count; ++i) {
    const RfftSpectrum solo = RfftForward(series[i], len);
    const RfftView slot = batch.view(i);
    ASSERT_EQ(slot.bins(), solo.bins());
    EXPECT_EQ(std::memcmp(slot.re, solo.re.data(),
                          solo.bins() * sizeof(double)),
              0)
        << "slot " << i;
    EXPECT_EQ(std::memcmp(slot.im, solo.im.data(),
                          solo.bins() * sizeof(double)),
              0)
        << "slot " << i;
  }
}

TEST(BatchSpectraTest, ParallelFillIsBitIdentical) {
  // Slots are disjoint, so a ParallelFor fill at any thread count must
  // produce the byte-identical pool a sequential fill produces.
  HalfSpectrumGuard guard;
  common::Rng rng(32);
  const std::size_t count = 24;
  const std::size_t m = 37;
  const std::size_t len = NextPowerOfTwo(2 * m - 1);
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < count; ++i) {
    series.push_back(RandomRealVector(m, &rng));
  }

  BatchSpectra sequential(count, len);
  for (std::size_t i = 0; i < count; ++i) sequential.Transform(i, series[i]);

  for (const int threads : {2, 8}) {
    common::SetThreadCount(threads);
    BatchSpectra parallel(count, len);
    common::ParallelFor(0, count, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        parallel.Transform(i, series[i]);
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      const RfftView a = sequential.view(i);
      const RfftView b = parallel.view(i);
      EXPECT_EQ(std::memcmp(a.re, b.re, a.bins() * sizeof(double)), 0)
          << "threads=" << threads << " slot=" << i;
      EXPECT_EQ(std::memcmp(a.im, b.im, a.bins() * sizeof(double)), 0)
          << "threads=" << threads << " slot=" << i;
    }
  }
}

TEST(RfftBackendTest, ProductPathIsBitIdenticalAcrossBackends) {
  // The fused product-unpack is elementwise, the transforms are backend-
  // independent — so the whole cached half-spectrum pipeline must be
  // bitwise reproducible across SIMD backends.
  HalfSpectrumGuard guard;
  common::Rng rng(41);
  const std::size_t m = 96;
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  const std::size_t len = NextPowerOfTwo(2 * m - 1);
  const RfftSpectrum hx = RfftForward(x, len);
  const RfftSpectrum hy = RfftForward(y, len);

  simd::SetBackendForTesting(simd::Backend::kScalar);
  std::vector<double> scalar_cc;
  CrossCorrelationFromRfft(hx.view(), hy.view(), m, &scalar_cc);

  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "AVX2 backend unavailable";
  }
  simd::SetBackendForTesting(simd::Backend::kAvx2);
  std::vector<double> avx2_cc;
  CrossCorrelationFromRfft(hx.view(), hy.view(), m, &avx2_cc);

  ASSERT_EQ(scalar_cc.size(), avx2_cc.size());
  EXPECT_EQ(std::memcmp(scalar_cc.data(), avx2_cc.data(),
                        scalar_cc.size() * sizeof(double)),
            0);
}

TEST(RfftTest, RepeatedEvaluationIsBitStable) {
  // Fixed inputs must reproduce bitwise across repeated evaluations — the
  // half-path half of the cache's determinism contract.
  common::Rng rng(51);
  const std::size_t m = 61;  // 2m-1 = 121, a Bluestein fallback length
  const std::vector<double> x = RandomRealVector(m, &rng);
  const std::vector<double> y = RandomRealVector(m, &rng);
  for (const std::size_t len :
       {NextPowerOfTwo(2 * m - 1), 2 * m - 1}) {
    const RfftSpectrum hx = RfftForward(x, len);
    const RfftSpectrum hy = RfftForward(y, len);
    const RfftSpectrum hx2 = RfftForward(x, len);
    EXPECT_EQ(std::memcmp(hx.re.data(), hx2.re.data(),
                          hx.bins() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(hx.im.data(), hx2.im.data(),
                          hx.bins() * sizeof(double)),
              0);
    std::vector<double> cc1, cc2;
    CrossCorrelationFromRfft(hx.view(), hy.view(), m, &cc1);
    CrossCorrelationFromRfft(hx.view(), hy.view(), m, &cc2);
    EXPECT_EQ(std::memcmp(cc1.data(), cc2.data(), cc1.size() * sizeof(double)),
              0)
        << "len=" << len;
  }
}

TEST(RfftPlanCacheTest, ReturnsSameObjectForSameSize) {
  const RfftPlan& a = GetRfftPlan(64);
  const RfftPlan& b = GetRfftPlan(64);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.n(), 64u);
  EXPECT_EQ(a.bins(), 33u);
}

TEST(HalfSpectrumGateTest, TestingOverrideRoundTrips) {
  HalfSpectrumGuard guard;
  SetHalfSpectrumEnabledForTesting(false);
  EXPECT_FALSE(HalfSpectrumEnabled());
  SetHalfSpectrumEnabledForTesting(true);
  EXPECT_TRUE(HalfSpectrumEnabled());
}

// ---------------------------------------------------------------------------
// The classic-transform oracle. A test-only, literal copy of the transform
// the split-plane kernels replaced: a bit-reversal swap pass, interleaved
// radix-2 butterflies reading the n-point twiddle table at stride n/len, a
// separate 1/n pass, the std::complex packed unpacks and the SoA / interleaved
// products. Every library transform must match it bitwise (memcmp) on both
// backends. This TU compiles with -ffp-contract=off (tests/CMakeLists.txt),
// so the oracle stays unfused under -march=native.
// ---------------------------------------------------------------------------
namespace classic {

std::vector<Complex> Twiddles(std::size_t n) {
  std::vector<Complex> w(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    w[k] = Complex(std::cos(angle), std::sin(angle));
  }
  return w;
}

void Radix2Pass(double* data, const double* twiddles, std::size_t n,
                std::size_t len, std::size_t step, bool inverse) {
  const std::size_t half = len / 2;
  for (std::size_t base = 0; base < n; base += len) {
    for (std::size_t j = 0; j < half; ++j) {
      const std::size_t tw = 2 * (j * step);
      const double wr = twiddles[tw];
      const double wi = inverse ? -twiddles[tw + 1] : twiddles[tw + 1];
      const std::size_t lo = 2 * (base + j);
      const std::size_t hi = 2 * (base + j + half);
      const double ur = data[lo];
      const double ui = data[lo + 1];
      const double xr = data[hi];
      const double xi = data[hi + 1];
      const double vr = xr * wr - xi * wi;
      const double vi = xr * wi + xi * wr;
      data[lo] = ur + vr;
      data[lo + 1] = ui + vi;
      data[hi] = ur - vr;
      data[hi + 1] = ui - vi;
    }
  }
}

// The classic Radix2Plan::TransformImpl, including its 1/n pass.
void Radix2(Complex* data, std::size_t n, bool inverse) {
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rev = 0;
    std::size_t v = i;
    for (std::size_t b = 0; b < log2n; ++b) {
      rev = (rev << 1) | (v & 1);
      v >>= 1;
    }
    if (i < rev) std::swap(data[i], data[rev]);
  }
  const std::vector<Complex> twiddles = Twiddles(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    Radix2Pass(reinterpret_cast<double*>(data),
               reinterpret_cast<const double*>(twiddles.data()), n, len,
               n / len, inverse);
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
  }
}

void Forward(std::vector<Complex>* data);

// The classic Bluestein chirp-z forward.
void Bluestein(std::vector<Complex>* data) {
  const std::size_t n = data->size();
  const std::size_t m = NextPowerOfTwo(2 * n - 1);
  std::vector<Complex> chirp(n);
  for (std::size_t j = 0; j < n; ++j) {
    const unsigned long long jj =
        (static_cast<unsigned long long>(j) * j) % (2ULL * n);
    const double angle =
        -kPi * static_cast<double>(jj) / static_cast<double>(n);
    chirp[j] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<Complex> b(m, Complex(0, 0));
  b[0] = std::conj(chirp[0]);
  for (std::size_t j = 1; j < n; ++j) {
    b[j] = std::conj(chirp[j]);
    b[m - j] = std::conj(chirp[j]);
  }
  Radix2(b.data(), m, false);
  std::vector<Complex> a(m, Complex(0, 0));
  for (std::size_t j = 0; j < n; ++j) a[j] = (*data)[j] * chirp[j];
  Radix2(a.data(), m, false);
  for (std::size_t j = 0; j < m; ++j) a[j] *= b[j];
  Radix2(a.data(), m, true);
  for (std::size_t j = 0; j < n; ++j) (*data)[j] = a[j] * chirp[j];
}

void Forward(std::vector<Complex>* data) {
  const std::size_t n = data->size();
  if (n == 1) return;
  if (IsPowerOfTwo(n)) {
    Radix2(data->data(), n, false);
  } else {
    Bluestein(data);
  }
}

void Inverse(std::vector<Complex>* data) {
  const std::size_t n = data->size();
  for (auto& v : *data) v = std::conj(v);
  Forward(data);
  const double scale = 1.0 / static_cast<double>(n);
  for (auto& v : *data) v = std::conj(v) * scale;
}

std::vector<Complex> Spectrum(const std::vector<double>& x,
                              std::size_t len) {
  std::vector<Complex> data(len, Complex(0, 0));
  for (std::size_t i = 0; i < x.size(); ++i) data[i] = Complex(x[i], 0.0);
  Forward(&data);
  return data;
}

// The classic RfftPlan::Forward.
RfftSpectrum RfftForward(const std::vector<double>& x, std::size_t n) {
  RfftSpectrum out;
  out.fft_len = n;
  out.re.resize(RfftBins(n));
  out.im.resize(RfftBins(n));
  if (!(IsPowerOfTwo(n) && n >= 2)) {
    const std::vector<Complex> data = Spectrum(x, n);
    for (std::size_t k = 0; k < out.bins(); ++k) {
      out.re[k] = data[k].real();
      out.im[k] = data[k].imag();
    }
    out.im[0] = 0.0;
    if (n % 2 == 0) out.im[n / 2] = 0.0;
    return out;
  }
  const std::size_t h = n / 2;
  std::vector<Complex> z(h);
  for (std::size_t j = 0; j < h; ++j) {
    const double re = 2 * j < x.size() ? x[2 * j] : 0.0;
    const double im = 2 * j + 1 < x.size() ? x[2 * j + 1] : 0.0;
    z[j] = Complex(re, im);
  }
  Radix2(z.data(), h, false);
  out.re[0] = z[0].real() + z[0].imag();
  out.im[0] = 0.0;
  out.re[h] = z[0].real() - z[0].imag();
  out.im[h] = 0.0;
  for (std::size_t k = 1; k < h; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    const Complex twiddle(std::cos(angle), std::sin(angle));
    const Complex zk = z[k];
    const Complex zmk = std::conj(z[h - k]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex bin = even + twiddle * odd;
    out.re[k] = bin.real();
    out.im[k] = bin.imag();
  }
  return out;
}

// The classic RfftPlan::Inverse.
std::vector<double> RfftInverse(const double* re, const double* im,
                                std::size_t n) {
  std::vector<double> out(n);
  if (!(IsPowerOfTwo(n) && n >= 2)) {
    if (n == 1) {
      out[0] = re[0];
      return out;
    }
    std::vector<Complex> data(n);
    const std::size_t b = RfftBins(n);
    data[0] = Complex(re[0], 0.0);
    for (std::size_t k = 1; k < b; ++k) data[k] = Complex(re[k], im[k]);
    if (n % 2 == 0) data[n / 2] = Complex(re[n / 2], 0.0);
    for (std::size_t k = b; k < n; ++k) data[k] = std::conj(data[n - k]);
    Inverse(&data);
    for (std::size_t i = 0; i < n; ++i) out[i] = data[i].real();
    return out;
  }
  const std::size_t h = n / 2;
  std::vector<Complex> z(h);
  const auto bin = [&](std::size_t k) {
    return Complex(re[k], (k == 0 || k == h) ? 0.0 : im[k]);
  };
  for (std::size_t k = 0; k < h; ++k) {
    const double angle =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    const Complex twiddle(std::cos(angle), std::sin(angle));
    const Complex ck = bin(k);
    const Complex cmk = std::conj(bin(h - k));
    const Complex even = 0.5 * (ck + cmk);
    const Complex odd = 0.5 * (ck - cmk) * std::conj(twiddle);
    z[k] = even + Complex(0, 1) * odd;
  }
  Radix2(z.data(), h, true);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
  return out;
}

// Lags of a circular buffer in CrossCorrelationFft's layout.
std::vector<double> Lags(const std::vector<double>& time, std::size_t m) {
  const std::size_t len = time.size();
  std::vector<double> cc(2 * m - 1);
  for (std::size_t i = 0; i < 2 * m - 1; ++i) {
    const long long lag =
        static_cast<long long>(i) - static_cast<long long>(m - 1);
    cc[i] = time[lag >= 0 ? static_cast<std::size_t>(lag)
                          : len - static_cast<std::size_t>(-lag)];
  }
  return cc;
}

// The classic CrossCorrelationFromRfft: SoA product, then the inverse.
std::vector<double> CrossCorrelationFromRfft(const RfftView& x,
                                             const RfftView& y,
                                             std::size_t m) {
  const std::size_t b = x.bins();
  std::vector<double> re(b), im(b);
  for (std::size_t k = 0; k < b; ++k) {
    re[k] = x.re[k] * y.re[k] + x.im[k] * y.im[k];
    im[k] = x.im[k] * y.re[k] - x.re[k] * y.im[k];
  }
  return Lags(RfftInverse(re.data(), im.data(), x.fft_len), m);
}

// The classic CrossCorrelationFromSpectra: interleaved product, then the
// plan's inverse (power of two) or the generic inverse.
std::vector<double> CrossCorrelationFromSpectra(
    const std::vector<Complex>& x, const std::vector<Complex>& y,
    std::size_t m) {
  const std::size_t len = x.size();
  std::vector<Complex> c(len);
  for (std::size_t k = 0; k < len; ++k) {
    const double ar = x[k].real(), ai = x[k].imag();
    const double br = y[k].real(), bi = y[k].imag();
    c[k] = Complex(ar * br + ai * bi, ai * br - ar * bi);
  }
  if (IsPowerOfTwo(len)) {
    Radix2(c.data(), len, true);
  } else {
    Inverse(&c);
  }
  std::vector<double> time(len);
  for (std::size_t i = 0; i < len; ++i) time[i] = c[i].real();
  return Lags(time, m);
}

}  // namespace classic

bool BitEqual(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && BitEqual(a.data(), b.data(), a.size());
}
bool BitEqual(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

std::vector<simd::Backend> OracleBackends() {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  return backends;
}

std::vector<Complex> RandomComplexVector(std::size_t n, common::Rng* rng) {
  std::vector<Complex> z(n);
  for (auto& v : z) v = Complex(rng->Gaussian(), rng->Gaussian());
  return z;
}

TEST(ClassicOracleTest, Radix2PlanMatchesClassicTransform) {
  HalfSpectrumGuard guard;
  for (const simd::Backend backend : OracleBackends()) {
    simd::SetBackendForTesting(backend);
    for (std::size_t n = 2; n <= 4096; n <<= 1) {
      common::Rng rng(n * 3 + 1);
      const std::vector<Complex> x = RandomComplexVector(n, &rng);
      std::vector<Complex> fwd = x, want_fwd = x;
      GetPlan(n).Forward(fwd.data());
      classic::Radix2(want_fwd.data(), n, false);
      EXPECT_TRUE(BitEqual(fwd, want_fwd)) << "n=" << n;
      std::vector<Complex> inv = x, want_inv = x;
      GetPlan(n).Inverse(inv.data());
      classic::Radix2(want_inv.data(), n, true);
      EXPECT_TRUE(BitEqual(inv, want_inv)) << "n=" << n;
    }
  }
}

TEST(ClassicOracleTest, RfftPlanAndCrossCorrelationMatchClassic) {
  HalfSpectrumGuard guard;
  for (const simd::Backend backend : OracleBackends()) {
    simd::SetBackendForTesting(backend);
    for (std::size_t n = 2; n <= 4096; n <<= 1) {
      common::Rng rng(n * 5 + 2);
      const RfftPlan& plan = GetRfftPlan(n);
      // A full-length input and a zero-padded one (the SBD case).
      for (const std::size_t m : {n, n / 2}) {
        const std::vector<double> x = RandomRealVector(m, &rng);
        const std::vector<double> y = RandomRealVector(m, &rng);
        RfftSpectrum fx, fy;
        fx.fft_len = fy.fft_len = n;
        fx.re.resize(plan.bins());
        fx.im.resize(plan.bins());
        fy.re.resize(plan.bins());
        fy.im.resize(plan.bins());
        plan.Forward(x, fx.re.data(), fx.im.data());
        plan.Forward(y, fy.re.data(), fy.im.data());
        const RfftSpectrum want = classic::RfftForward(x, n);
        EXPECT_TRUE(BitEqual(fx.re, want.re)) << "n=" << n << " m=" << m;
        EXPECT_TRUE(BitEqual(fx.im, want.im)) << "n=" << n << " m=" << m;

        std::vector<double> back(n);
        plan.Inverse(fx.re.data(), fx.im.data(), back.data());
        EXPECT_TRUE(
            BitEqual(back, classic::RfftInverse(fx.re.data(), fx.im.data(), n)))
            << "n=" << n << " m=" << m;

        // Cross-correlations need 2m' - 1 <= n.
        const std::size_t lags = std::max<std::size_t>(1, n / 2);
        std::vector<double> cc;
        CrossCorrelationFromRfft(plan, fx.view(), fy.view(), lags, &cc);
        EXPECT_TRUE(BitEqual(
            cc, classic::CrossCorrelationFromRfft(fx.view(), fy.view(), lags)))
            << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(ClassicOracleTest, BluesteinAndFullComplexPathsMatchClassic) {
  HalfSpectrumGuard guard;
  for (const simd::Backend backend : OracleBackends()) {
    simd::SetBackendForTesting(backend);
    for (const std::size_t m : {2u, 3u, 5u, 17u, 60u, 100u, 128u}) {
      common::Rng rng(m * 7 + 3);
      const std::vector<double> x = RandomRealVector(m, &rng);
      const std::vector<double> y = RandomRealVector(m, &rng);
      for (const std::size_t len : {2 * m - 1, NextPowerOfTwo(2 * m - 1)}) {
        // Full-complex spectra and their cross-correlation.
        const std::vector<Complex> sx = Spectrum(x, len);
        const std::vector<Complex> sy = Spectrum(y, len);
        EXPECT_TRUE(BitEqual(sx, classic::Spectrum(x, len))) << "len=" << len;
        std::vector<double> cc;
        CrossCorrelationFromSpectra(sx, sy, m, &cc);
        EXPECT_TRUE(BitEqual(cc, classic::CrossCorrelationFromSpectra(sx, sy, m)))
            << "len=" << len;
        std::vector<Complex> inv = sx;
        Inverse(&inv);
        std::vector<Complex> want_inv = sx;
        classic::Inverse(&want_inv);
        EXPECT_TRUE(BitEqual(inv, want_inv)) << "len=" << len;

        // Packed spectra (the generic fallback on 2m - 1).
        const RfftSpectrum hx = RfftForward(x, len);
        const RfftSpectrum hy = RfftForward(y, len);
        const RfftSpectrum want = classic::RfftForward(x, len);
        EXPECT_TRUE(BitEqual(hx.re, want.re)) << "len=" << len;
        EXPECT_TRUE(BitEqual(hx.im, want.im)) << "len=" << len;
        CrossCorrelationFromRfft(hx.view(), hy.view(), m, &cc);
        EXPECT_TRUE(
            BitEqual(cc, classic::CrossCorrelationFromRfft(hx.view(), hy.view(), m)))
            << "len=" << len;
      }
    }
  }
}

// The classic engine distance: per-channel classic cross-correlations
// summed lag by lag in channel order, a sequential strict-greater peak scan
// (lowest index wins ties), and 1 - peak * (1 / (norm_x * norm_y)).
struct ClassicPeak {
  double distance;
  int shift;
};
ClassicPeak ClassicDistance(const std::vector<double>& x,
                            const std::vector<double>& y, std::size_t m,
                            std::size_t channels, std::size_t len,
                            bool half) {
  std::vector<double> total;
  for (std::size_t c = 0; c < channels; ++c) {
    const std::vector<double> xc(x.begin() + c * m, x.begin() + (c + 1) * m);
    const std::vector<double> yc(y.begin() + c * m, y.begin() + (c + 1) * m);
    std::vector<double> cc;
    if (half) {
      const RfftSpectrum sx = classic::RfftForward(xc, len);
      const RfftSpectrum sy = classic::RfftForward(yc, len);
      cc = classic::CrossCorrelationFromRfft(sx.view(), sy.view(), m);
    } else {
      cc = classic::CrossCorrelationFromSpectra(classic::Spectrum(xc, len),
                                                classic::Spectrum(yc, len), m);
    }
    if (c == 0) {
      total = cc;
    } else {
      for (std::size_t t = 0; t < total.size(); ++t) total[t] += cc[t];
    }
  }
  std::size_t best = 0;
  for (std::size_t t = 1; t < total.size(); ++t) {
    if (total[t] > total[best]) best = t;
  }
  const double den = linalg::Norm(x) * linalg::Norm(y);
  return {1.0 - total[best] * (1.0 / den),
          static_cast<int>(best) - static_cast<int>(m - 1)};
}

TEST(ClassicOracleTest, SbdEngineMatchesClassicAtOneAndTwoChannels) {
  HalfSpectrumGuard guard;
  for (const simd::Backend backend : OracleBackends()) {
    simd::SetBackendForTesting(backend);
    for (const std::size_t channels : {1u, 2u}) {
      for (const std::size_t m : {64u, 100u}) {
        common::Rng rng(channels * 1000 + m);
        std::vector<std::vector<double>> rows;
        for (int i = 0; i < 5; ++i) {
          rows.push_back(RandomRealVector(channels * m, &rng));
        }
        const std::vector<double> query = RandomRealVector(channels * m, &rng);
        for (const auto impl : {core::CrossCorrelationImpl::kFft,
                                core::CrossCorrelationImpl::kFftNoPow2}) {
          for (const bool half : {true, false}) {
            const core::SbdEngine engine(rows, impl, half,
                                         /*build_bound_planes=*/false,
                                         channels);
            const std::size_t len = engine.fft_length();
            const core::SbdEngine::Query q = engine.MakeQuery(query);
            for (std::size_t i = 0; i < rows.size(); ++i) {
              const std::string where =
                  "C=" + std::to_string(channels) + " m=" + std::to_string(m) +
                  " len=" + std::to_string(len) + " half=" +
                  std::to_string(half) + " i=" + std::to_string(i);
              const ClassicPeak want_q =
                  ClassicDistance(query, rows[i], m, channels, len, half);
              int shift = 0;
              const double got_q = engine.Distance(q, i, &shift);
              EXPECT_EQ(std::memcmp(&got_q, &want_q.distance, sizeof(double)),
                        0)
                  << where;
              EXPECT_EQ(shift, want_q.shift) << where;
              const std::size_t j = (i + 1) % rows.size();
              const ClassicPeak want_p =
                  ClassicDistance(rows[i], rows[j], m, channels, len, half);
              const double got_p = engine.Distance(i, j);
              EXPECT_EQ(std::memcmp(&got_p, &want_p.distance, sizeof(double)),
                        0)
                  << where;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace kshape::fft
