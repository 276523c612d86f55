// The SIMD kernel determinism contract (src/simd/kernels.h), tested from
// three angles:
//
//  1. Bit-identity: every kernel must return bit-for-bit identical results
//     from the scalar and AVX2 backends, for every length 1..67 (covering
//     empty tails, partial tails, and multi-block bodies), including the
//     early-abandon checkpoint decisions and peak-scan tie-breaks.
//  2. Epsilon agreement: the 4-lane reduction order is allowed to differ
//     from a plain sequential loop only at rounding level; each reduction
//     kernel is compared against its legacy reference loop under a relative
//     tolerance.
//  3. End-to-end: k-Shape clustering (labels, centroids, telemetry), the
//     early-abandon 1-NN accuracy and the ED/SBD pairwise matrices must be
//     bit-identical across backends and across KSHAPE_THREADS = 1, 2, 8 —
//     the user-visible statement of the contract.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classify/nearest_neighbor.h"
#include "cluster/algorithm.h"
#include "cluster/kmedoids.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "distance/euclidean.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace kshape {
namespace {

using simd::Backend;
using simd::KernelTable;
using tseries::Series;

constexpr std::size_t kMaxLength = 67;
constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<double> RandomBuffer(std::size_t n, common::Rng* rng,
                                 double lo = -2.0, double hi = 2.0) {
  std::vector<double> x(n);
  for (double& v : x) v = rng->Uniform(lo, hi);
  return x;
}

// Bitwise equality (memcmp): unlike ==, tells -0.0 from +0.0.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The tables of an n-point radix2_transform, built as fft::Radix2Plan
// builds them: the n-point twiddles e^{-2πik/n}, each stage's entries
// k = j·n/len as one contiguous plane, and the quarter bit reversal.
struct Radix2TestTables {
  explicit Radix2TestTables(std::size_t n) {
    tables.n = n;
    if (n < 2) return;
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const double angle = -2.0 * 3.14159265358979323846 *
                             static_cast<double>(j * (n / len)) /
                             static_cast<double>(n);
        tw_re.push_back(std::cos(angle));
        tw_im.push_back(std::sin(angle));
      }
    }
    for (std::size_t r = 0; r < n / 4; ++r) {
      std::size_t rev = 0;
      for (std::size_t b = 0; b + 2 < log2n; ++b) rev = (rev << 1) | ((r >> b) & 1);
      quarter_rev.push_back(rev);
    }
    tables.tw_re = tw_re.data();
    tables.tw_im = tw_im.data();
    tables.quarter_rev = quarter_rev.data();
  }

  std::vector<double> tw_re, tw_im;
  std::vector<std::size_t> quarter_rev;
  simd::Radix2Tables tables;
};

// Every backend available in this binary on this machine. The scalar backend
// is always present; the AVX2 entry appears only when the CPU supports it.
std::vector<Backend> AvailableBackends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(Backend::kAvx2);
  return backends;
}

class SimdBackendGuard {
 public:
  SimdBackendGuard() : saved_(simd::ActiveBackend()) {}
  ~SimdBackendGuard() {
    simd::SetBackendForTesting(saved_);
    common::SetThreadCount(1);
  }

 private:
  Backend saved_;
};

// Restores the process-wide half-spectrum gate (fft/rfft.h) that the
// end-to-end tests below toggle to compare the packed and full-complex
// spectrum-cache layouts.
class HalfSpectrumGateGuard {
 public:
  HalfSpectrumGateGuard() : saved_(fft::HalfSpectrumEnabled()) {}
  ~HalfSpectrumGateGuard() { fft::SetHalfSpectrumEnabledForTesting(saved_); }

 private:
  bool saved_;
};

// Bitwise equality of two peaks: the index, and the value by memcmp (so a
// -0.0 peak never passes for +0.0).
bool PeakBitEqual(const simd::Peak& a, const simd::Peak& b) {
  return a.index == b.index &&
         std::memcmp(&a.value, &b.value, sizeof(double)) == 0;
}

// The legacy lag buffer of a half-size inverse: fft/rfft.cc's
// InterleaveScaled over the m-1 negative lags (the top of the circular
// sequence time[2j] = re[j], time[2j+1] = im[j], n = 2h) and then lags
// 0..m-1, each value time·scale.
std::vector<double> InterleaveScaledLags(const std::vector<double>& re,
                                         const std::vector<double>& im,
                                         std::size_t m, double scale) {
  const std::size_t n = 2 * re.size();
  const auto time = [&](std::size_t t) {
    return (t % 2 == 1 ? im[t / 2] : re[t / 2]) * scale;
  };
  std::vector<double> cc;
  for (std::size_t t = n - (m - 1); t < n; ++t) cc.push_back(time(t));
  for (std::size_t t = 0; t < m; ++t) cc.push_back(time(t));
  return cc;
}

// The sequential strict-greater scan every peak kernel must reproduce.
simd::Peak SequentialPeak(const std::vector<double>& x) {
  simd::Peak peak{x[0], 0};
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > peak.value) peak = simd::Peak{x[i], i};
  }
  return peak;
}

// Half-size inverse planes (h values each) whose lag peak at this m is
// hard to get right: random values; a maximum planted in the unused gap
// [m, n-m+1), which must not win; a tie across the negative/non-negative
// lag boundary (lags -1 and 0) and one between the outermost lags; ±0
// ties on negative data, where the value must come from the winning
// element; all-equal planes; and ±inf.
struct PlaneCase {
  const char* what;
  std::vector<double> re, im;
};
std::vector<PlaneCase> LagPeakCases(std::size_t h, std::size_t m,
                                    common::Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = 2 * h;
  // The time index of cc position i (lag i - (m-1)).
  const auto time_of = [&](std::size_t i) {
    return i < m - 1 ? n - (m - 1) + i : i - (m - 1);
  };
  const std::size_t lags = 2 * m - 1;
  std::vector<PlaneCase> cases;
  const auto add = [&](const char* what, double lo, double hi) -> PlaneCase& {
    cases.push_back({what, RandomBuffer(h, rng, lo, hi),
                     RandomBuffer(h, rng, lo, hi)});
    return cases.back();
  };
  const auto set = [&](PlaneCase& c, std::size_t t, double v) {
    (t % 2 == 1 ? c.im : c.re)[t / 2] = v;
  };
  add("random", -2.0, 2.0);
  {
    PlaneCase& c = add("gap max", -2.0, 2.0);
    for (std::size_t t = m; t < n - (m - 1); ++t) set(c, t, 100.0);
  }
  {
    PlaneCase& c = add("boundary tie", -2.0, 2.0);
    set(c, time_of(m - 1), 50.0);             // Lag 0.
    if (m > 1) set(c, time_of(m - 2), 50.0);  // Lag -1: wins.
  }
  {
    PlaneCase& c = add("outer tie", -2.0, 2.0);
    set(c, time_of(lags - 1), 50.0);  // Lag m-1.
    set(c, time_of(0), 50.0);         // Lag -(m-1): wins.
  }
  {
    PlaneCase& c = add("-0 before +0", -2.0, -1.0);
    set(c, time_of(lags / 3), -0.0);
    set(c, time_of(lags - 1), 0.0);
  }
  {
    PlaneCase& c = add("+0 before -0", -2.0, -1.0);
    set(c, time_of(lags / 2), 0.0);
    set(c, time_of(lags - 1), -0.0);
  }
  {
    PlaneCase& c = add("all -0", 0.0, 0.0);
    std::fill(c.re.begin(), c.re.end(), -0.0);
    std::fill(c.im.begin(), c.im.end(), -0.0);
    set(c, time_of(lags - 1), 0.0);
  }
  {
    PlaneCase& c = add("all equal", 0.0, 0.0);
    std::fill(c.re.begin(), c.re.end(), 0.75);
    std::fill(c.im.begin(), c.im.end(), 0.75);
  }
  {
    PlaneCase& c = add("+inf", -2.0, 2.0);
    set(c, time_of(lags / 2), kInf);
    set(c, time_of(lags - 1), kInf);
    set(c, time_of(0), -kInf);
    for (std::size_t t = m; t < n - (m - 1); ++t) set(c, t, kInf);
  }
  {
    PlaneCase& c = add("all -inf", 0.0, 0.0);
    std::fill(c.re.begin(), c.re.end(), -kInf);
    std::fill(c.im.begin(), c.im.end(), -kInf);
  }
  return cases;
}

// The m values the lag-peak tests cover at half size h: every m <= 9 and
// the odd and even m next to h/2 and h (the largest, 2m-1 = n-1).
std::vector<std::size_t> LagPeakMs(std::size_t h) {
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= std::min<std::size_t>(h, 9); ++m) {
    ms.push_back(m);
  }
  for (const std::size_t m : {h / 2, h / 2 + 1, h - 1, h}) {
    if (m > 9 && m <= h) ms.push_back(m);
  }
  return ms;
}

// The std::complex packed real-forward unpack the forward_unpack kernel
// replaced (RfftPlan::Forward's former loop): bins 0..h of the n = 2h
// real input from the h-point DFT (t_re, t_im) of its even/odd packing.
void StdComplexForwardUnpack(const std::vector<double>& t_re,
                             const std::vector<double>& t_im,
                             const std::vector<double>& tw_re,
                             const std::vector<double>& tw_im,
                             std::vector<double>* out_re,
                             std::vector<double>* out_im) {
  using Complex = std::complex<double>;
  const std::size_t h = t_re.size();
  out_re->assign(h + 1, 0.0);
  out_im->assign(h + 1, 0.0);
  (*out_re)[0] = t_re[0] + t_im[0];
  (*out_re)[h] = t_re[0] - t_im[0];
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk(t_re[k], t_im[k]);
    const Complex zmk = std::conj(Complex(t_re[h - k], t_im[h - k]));
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex bin = even + Complex(tw_re[k], tw_im[k]) * odd;
    (*out_re)[k] = bin.real();
    (*out_im)[k] = bin.imag();
  }
}

// The forward unpack twiddles e^{-2πik/n}, n = 2h, k in [0, h].
void ForwardTwiddles(std::size_t h, std::vector<double>* tw_re,
                     std::vector<double>* tw_im) {
  tw_re->resize(h + 1);
  tw_im->resize(h + 1);
  for (std::size_t k = 0; k <= h; ++k) {
    const double angle = -3.14159265358979323846 * static_cast<double>(k) /
                         static_cast<double>(h);
    (*tw_re)[k] = std::cos(angle);
    (*tw_im)[k] = std::sin(angle);
  }
}

// ---------------------------------------------------------------------------
// 1. Bit-identity between backends, all lengths 1..67.
// ---------------------------------------------------------------------------

class BitIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::Avx2Available()) {
      GTEST_SKIP() << "AVX2 backend unavailable; nothing to compare";
    }
  }

  const KernelTable& scalar_ = simd::Kernels(Backend::kScalar);
  const KernelTable& avx2_ = simd::Kernels(Backend::kAvx2);
};

TEST_F(BitIdentityTest, Reductions) {
  common::Rng rng(101);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> x = RandomBuffer(n, &rng);
    const std::vector<double> y = RandomBuffer(n, &rng);
    EXPECT_EQ(scalar_.sum(x.data(), n), avx2_.sum(x.data(), n)) << "n=" << n;
    EXPECT_EQ(scalar_.sum_squares(x.data(), n), avx2_.sum_squares(x.data(), n))
        << "n=" << n;
    EXPECT_EQ(scalar_.dot(x.data(), y.data(), n),
              avx2_.dot(x.data(), y.data(), n))
        << "n=" << n;
    EXPECT_EQ(scalar_.squared_ed(x.data(), y.data(), n),
              avx2_.squared_ed(x.data(), y.data(), n))
        << "n=" << n;
    const simd::MeanVar ms = scalar_.mean_var(x.data(), n);
    const simd::MeanVar mv = avx2_.mean_var(x.data(), n);
    EXPECT_EQ(ms.mean, mv.mean) << "n=" << n;
    EXPECT_EQ(ms.variance, mv.variance) << "n=" << n;
  }
}

TEST_F(BitIdentityTest, SquaredEdAbandonAllThresholds) {
  common::Rng rng(102);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> x = RandomBuffer(n, &rng);
    const std::vector<double> y = RandomBuffer(n, &rng);
    const double full = scalar_.squared_ed(x.data(), y.data(), n);
    // Thresholds straddling every interesting regime: never abandons,
    // abandons at the first checkpoint, and abandons mid-way.
    const double thresholds[] = {std::numeric_limits<double>::infinity(),
                                 full * 2.0 + 1.0, full, full * 0.5,
                                 full * 0.1, 0.0};
    for (const double t : thresholds) {
      const double a = scalar_.squared_ed_abandon(x.data(), y.data(), n, t);
      const double b = avx2_.squared_ed_abandon(x.data(), y.data(), n, t);
      EXPECT_EQ(a, b) << "n=" << n << " threshold=" << t;
      // Identical values imply identical abandoned/not decisions, but state
      // the contract explicitly: both sides agree on which side of the
      // threshold the return lands.
      EXPECT_EQ(a >= t, b >= t) << "n=" << n << " threshold=" << t;
    }
  }
}

TEST_F(BitIdentityTest, LbKeogh) {
  common::Rng rng(103);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> c = RandomBuffer(n, &rng);
    std::vector<double> lower = RandomBuffer(n, &rng, -1.0, 0.0);
    std::vector<double> upper(n);
    for (std::size_t i = 0; i < n; ++i) upper[i] = lower[i] + 1.0;
    EXPECT_EQ(scalar_.lb_keogh_squared(c.data(), lower.data(), upper.data(), n),
              avx2_.lb_keogh_squared(c.data(), lower.data(), upper.data(), n))
        << "n=" << n;
  }
}

TEST_F(BitIdentityTest, ComplexMulConj) {
  common::Rng rng(104);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> a = RandomBuffer(2 * n, &rng);
    const std::vector<double> b = RandomBuffer(2 * n, &rng);
    std::vector<double> out_s(2 * n, 0.0);
    std::vector<double> out_v(2 * n, 123.0);  // Different garbage on purpose.
    scalar_.complex_mul_conj(a.data(), b.data(), out_s.data(), n);
    avx2_.complex_mul_conj(a.data(), b.data(), out_v.data(), n);
    EXPECT_EQ(out_s, out_v) << "n=" << n;
  }
}

TEST_F(BitIdentityTest, MulConjUnpack) {
  // Both forms (product fused in, and the plain C2R unpack), every h up to
  // kMaxLength: the vector body, its mirrored loads and the scalar tail.
  common::Rng rng(108);
  for (std::size_t h = 1; h <= kMaxLength; ++h) {
    const std::vector<double> x_re = RandomBuffer(h + 1, &rng);
    const std::vector<double> x_im = RandomBuffer(h + 1, &rng);
    const std::vector<double> y_re = RandomBuffer(h + 1, &rng);
    const std::vector<double> y_im = RandomBuffer(h + 1, &rng);
    const std::vector<double> tw_re = RandomBuffer(h + 1, &rng, -1.0, 1.0);
    const std::vector<double> tw_im = RandomBuffer(h + 1, &rng, -1.0, 1.0);
    for (const bool product : {true, false}) {
      std::vector<double> re_s(h, 0.0), im_s(h, 0.0);
      std::vector<double> re_v(h, 123.0), im_v(h, 123.0);  // Other garbage.
      const double* yr = product ? y_re.data() : nullptr;
      const double* yi = product ? y_im.data() : nullptr;
      scalar_.mul_conj_unpack(x_re.data(), x_im.data(), yr, yi, tw_re.data(),
                              tw_im.data(), h, re_s.data(), im_s.data());
      avx2_.mul_conj_unpack(x_re.data(), x_im.data(), yr, yi, tw_re.data(),
                            tw_im.data(), h, re_v.data(), im_v.data());
      EXPECT_TRUE(BitEqual(re_s, re_v)) << "h=" << h << " product=" << product;
      EXPECT_TRUE(BitEqual(im_s, im_v)) << "h=" << h << " product=" << product;
    }
  }
}

TEST_F(BitIdentityTest, Radix2Transform) {
  // Every power of two up to 4096 in both directions: the scalar fallback
  // below n = 16, the transposed first pass and every stage width.
  common::Rng rng(109);
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    const Radix2TestTables t(n);
    const std::vector<double> in_re = RandomBuffer(n, &rng);
    const std::vector<double> in_im = RandomBuffer(n, &rng);
    for (const bool inverse : {false, true}) {
      std::vector<double> re_s(n, 0.0), im_s(n, 0.0);
      std::vector<double> re_v(n, 123.0), im_v(n, 123.0);
      scalar_.radix2_transform(t.tables, in_re.data(), in_im.data(),
                               re_s.data(), im_s.data(), inverse);
      avx2_.radix2_transform(t.tables, in_re.data(), in_im.data(),
                             re_v.data(), im_v.data(), inverse);
      EXPECT_TRUE(BitEqual(re_s, re_v)) << "n=" << n << " inverse=" << inverse;
      EXPECT_TRUE(BitEqual(im_s, im_v)) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST_F(BitIdentityTest, PeakScanRandom) {
  common::Rng rng(105);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> x = RandomBuffer(n, &rng);
    const simd::Peak s = scalar_.peak_scan(x.data(), n);
    const simd::Peak v = avx2_.peak_scan(x.data(), n);
    EXPECT_EQ(s.value, v.value) << "n=" << n;
    EXPECT_EQ(s.index, v.index) << "n=" << n;
  }
}

TEST_F(BitIdentityTest, PeakScanTiesKeepLowestIndex) {
  // Duplicate the maximum at every pair of positions for a few lengths that
  // exercise lane boundaries; the reported index must always be the first.
  for (const std::size_t n : {4u, 5u, 8u, 9u, 16u, 17u, 33u}) {
    for (std::size_t first = 0; first < n; ++first) {
      for (std::size_t second = first; second < n; ++second) {
        std::vector<double> x(n, 0.0);
        x[first] = 7.5;
        x[second] = 7.5;
        const simd::Peak s = scalar_.peak_scan(x.data(), n);
        const simd::Peak v = avx2_.peak_scan(x.data(), n);
        EXPECT_EQ(s.value, 7.5);
        EXPECT_EQ(s.index, first) << "n=" << n;
        EXPECT_EQ(v.value, s.value) << "n=" << n;
        EXPECT_EQ(v.index, s.index)
            << "n=" << n << " first=" << first << " second=" << second;
      }
    }
  }
}

TEST_F(BitIdentityTest, LagPeak) {
  // Every len = 2^p in [2, 4096], odd and even m down to 1, at the packed
  // inverse's scale 1/h and at the channel sum's scale 1.
  common::Rng rng(110);
  for (std::size_t h = 1; h <= 2048; h <<= 1) {
    for (const std::size_t m : LagPeakMs(h)) {
      for (const PlaneCase& c : LagPeakCases(h, m, &rng)) {
        for (const double scale : {1.0 / static_cast<double>(h), 1.0}) {
          const simd::Peak s =
              scalar_.lag_peak(c.re.data(), c.im.data(), h, m, scale);
          const simd::Peak v =
              avx2_.lag_peak(c.re.data(), c.im.data(), h, m, scale);
          EXPECT_TRUE(PeakBitEqual(s, v))
              << c.what << " len=" << 2 * h << " m=" << m
              << " scale=" << scale;
        }
      }
    }
  }
}

TEST_F(BitIdentityTest, ForwardPackAndUnpack) {
  // Every h up to kMaxLength and every sample count up to 2h (the zero pad),
  // then the unpack's vector body, mirrored loads and scalar tail.
  common::Rng rng(111);
  for (std::size_t h = 1; h <= kMaxLength; ++h) {
    for (std::size_t count = 0; count <= 2 * h; ++count) {
      const std::vector<double> x = RandomBuffer(count, &rng);
      std::vector<double> re_s(h, 1.0), im_s(h, 1.0);
      std::vector<double> re_v(h, 123.0), im_v(h, 123.0);  // Other garbage.
      scalar_.forward_pack(x.data(), count, h, re_s.data(), im_s.data());
      avx2_.forward_pack(x.data(), count, h, re_v.data(), im_v.data());
      EXPECT_TRUE(BitEqual(re_s, re_v)) << "h=" << h << " count=" << count;
      EXPECT_TRUE(BitEqual(im_s, im_v)) << "h=" << h << " count=" << count;
    }
    const std::vector<double> t_re = RandomBuffer(h, &rng);
    const std::vector<double> t_im = RandomBuffer(h, &rng);
    std::vector<double> tw_re, tw_im;
    ForwardTwiddles(h, &tw_re, &tw_im);
    std::vector<double> re_s(h + 1, 1.0), im_s(h + 1, 1.0);
    std::vector<double> re_v(h + 1, 123.0), im_v(h + 1, 123.0);
    scalar_.forward_unpack(t_re.data(), t_im.data(), tw_re.data(),
                           tw_im.data(), h, re_s.data(), im_s.data());
    avx2_.forward_unpack(t_re.data(), t_im.data(), tw_re.data(), tw_im.data(),
                         h, re_v.data(), im_v.data());
    EXPECT_TRUE(BitEqual(re_s, re_v)) << "h=" << h;
    EXPECT_TRUE(BitEqual(im_s, im_v)) << "h=" << h;
  }
}

TEST_F(BitIdentityTest, Magnitudes) {
  common::Rng rng(112);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> re = RandomBuffer(n, &rng);
    const std::vector<double> im = RandomBuffer(n, &rng);
    for (const double w : {1.0, 2.0}) {
      std::vector<double> out_s(n, 1.0), out_v(n, 123.0);
      scalar_.magnitudes(re.data(), im.data(), n, w, out_s.data());
      avx2_.magnitudes(re.data(), im.data(), n, w, out_v.data());
      EXPECT_TRUE(BitEqual(out_s, out_v)) << "n=" << n << " w=" << w;
    }
  }
}

TEST_F(BitIdentityTest, ElementwiseKernels) {
  common::Rng rng(106);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> x = RandomBuffer(n, &rng);
    std::vector<double> ys = RandomBuffer(n, &rng);
    std::vector<double> yv = ys;
    scalar_.axpy(1.75, x.data(), ys.data(), n);
    avx2_.axpy(1.75, x.data(), yv.data(), n);
    EXPECT_EQ(ys, yv) << "axpy n=" << n;

    std::vector<double> ss = x;
    std::vector<double> sv = x;
    scalar_.scale(ss.data(), -0.375, n);
    avx2_.scale(sv.data(), -0.375, n);
    EXPECT_EQ(ss, sv) << "scale n=" << n;

    std::vector<double> zs = x;
    std::vector<double> zv = x;
    scalar_.apply_znorm(zs.data(), n, 0.25, 1.5);
    avx2_.apply_znorm(zv.data(), n, 0.25, 1.5);
    EXPECT_EQ(zs, zv) << "apply_znorm n=" << n;
  }
}

TEST_F(BitIdentityTest, DotAxpyRows) {
  // The fused member pass of the matrix-free extraction matvec: for each row
  // x_r, out += (x_r . u) x_r. Must be bit-identical across backends for
  // every row length (lane tails) and row count.
  common::Rng rng(109);
  for (std::size_t m = 1; m <= kMaxLength; ++m) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
      const std::vector<double> pool = RandomBuffer(rows * m, &rng);
      const std::vector<double> u = RandomBuffer(m, &rng);
      std::vector<double> out_s = RandomBuffer(m, &rng);  // Nonzero start:
      std::vector<double> out_v = out_s;  // the kernel accumulates into out.
      scalar_.dot_axpy_rows(pool.data(), rows, m, u.data(), out_s.data());
      avx2_.dot_axpy_rows(pool.data(), rows, m, u.data(), out_v.data());
      EXPECT_EQ(out_s, out_v) << "m=" << m << " rows=" << rows;
    }
  }
}

TEST_F(BitIdentityTest, DtwRow) {
  common::Rng rng(107);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t count = 1; count <= kMaxLength; ++count) {
    // prev spans count+1 cells starting at j_lo-1; seed a few with infinity
    // to mimic band boundaries.
    std::vector<double> prev = RandomBuffer(count + 1, &rng, 0.0, 4.0);
    prev[0] = kInf;
    if (count > 2) prev[count / 2] = kInf;
    const std::vector<double> y = RandomBuffer(count + 1, &rng);
    const double xi = rng.Uniform(-2.0, 2.0);
    for (const double left_seed : {kInf, 0.5}) {
      std::vector<double> cur_s(count, -1.0);
      std::vector<double> cur_v(count, -2.0);
      scalar_.dtw_row(prev.data(), y.data(), xi, left_seed, cur_s.data(),
                      count);
      avx2_.dtw_row(prev.data(), y.data(), xi, left_seed, cur_v.data(), count);
      EXPECT_EQ(cur_s, cur_v) << "count=" << count;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Epsilon agreement with the legacy sequential loops.
// ---------------------------------------------------------------------------

TEST(LegacyAgreementTest, ReductionsMatchSequentialLoops) {
  common::Rng rng(201);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      const std::vector<double> x = RandomBuffer(n, &rng);
      const std::vector<double> y = RandomBuffer(n, &rng);

      double sum = 0.0;
      double sumsq = 0.0;
      double dot = 0.0;
      double ed = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += x[i];
        sumsq += x[i] * x[i];
        dot += x[i] * y[i];
        const double d = x[i] - y[i];
        ed += d * d;
      }
      const double tol = 1e-12 * static_cast<double>(n);
      EXPECT_NEAR(kt.sum(x.data(), n), sum, tol);
      EXPECT_NEAR(kt.sum_squares(x.data(), n), sumsq, tol);
      EXPECT_NEAR(kt.dot(x.data(), y.data(), n), dot, tol);
      EXPECT_NEAR(kt.squared_ed(x.data(), y.data(), n), ed, tol);

      const double mean = sum / static_cast<double>(n);
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        var += (x[i] - mean) * (x[i] - mean);
      }
      var /= static_cast<double>(n);
      const simd::MeanVar mv = kt.mean_var(x.data(), n);
      EXPECT_NEAR(mv.mean, mean, tol);
      EXPECT_NEAR(mv.variance, var, tol);
    }
  }
}

TEST(LegacyAgreementTest, LbKeoghMatchesBranchingLoop) {
  common::Rng rng(202);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      const std::vector<double> c = RandomBuffer(n, &rng);
      std::vector<double> lower = RandomBuffer(n, &rng, -1.0, 0.0);
      std::vector<double> upper(n);
      for (std::size_t i = 0; i < n; ++i) upper[i] = lower[i] + 0.8;
      double expected = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (c[i] > upper[i]) {
          expected += (c[i] - upper[i]) * (c[i] - upper[i]);
        } else if (c[i] < lower[i]) {
          expected += (lower[i] - c[i]) * (lower[i] - c[i]);
        }
      }
      EXPECT_NEAR(
          kt.lb_keogh_squared(c.data(), lower.data(), upper.data(), n),
          expected, 1e-12 * static_cast<double>(n))
          << "n=" << n;
    }
  }
}

TEST(LegacyAgreementTest, ComplexMulConjMatchesStdComplex) {
  common::Rng rng(203);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      const std::vector<double> a = RandomBuffer(2 * n, &rng);
      const std::vector<double> b = RandomBuffer(2 * n, &rng);
      std::vector<double> out(2 * n, 0.0);
      kt.complex_mul_conj(a.data(), b.data(), out.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::complex<double> expected =
            std::complex<double>(a[2 * k], a[2 * k + 1]) *
            std::conj(std::complex<double>(b[2 * k], b[2 * k + 1]));
        // No fusing anywhere: each product is rounded separately in the
        // kernel and in operator*, so agreement is exact for finite inputs.
        EXPECT_EQ(out[2 * k], expected.real()) << "n=" << n << " k=" << k;
        EXPECT_EQ(out[2 * k + 1], expected.imag()) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(LegacyAgreementTest, MulConjUnpackMatchesMulConjThenStdComplexUnpack) {
  // The fused kernel is BY CONTRACT the interleaved complex_mul_conj product
  // followed by the std::complex packed-inverse unpack (bins 0 and h read as
  // real). Neither side fuses a rounding, so agreement is bitwise.
  common::Rng rng(206);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t h = 1; h <= kMaxLength; ++h) {
      const std::size_t b = h + 1;
      const std::vector<double> a = RandomBuffer(2 * b, &rng);
      const std::vector<double> c = RandomBuffer(2 * b, &rng);
      std::vector<double> product(2 * b, 0.0);
      kt.complex_mul_conj(a.data(), c.data(), product.data(), b);

      std::vector<double> a_re(b), a_im(b), c_re(b), c_im(b), tw_re(b),
          tw_im(b);
      for (std::size_t k = 0; k < b; ++k) {
        a_re[k] = a[2 * k];
        a_im[k] = a[2 * k + 1];
        c_re[k] = c[2 * k];
        c_im[k] = c[2 * k + 1];
        const double angle = -3.14159265358979323846 *
                             static_cast<double>(k) / static_cast<double>(h);
        tw_re[k] = std::cos(angle);
        tw_im[k] = std::sin(angle);
      }
      for (const bool fused_product : {true, false}) {
        const std::vector<double>& bins = fused_product ? product : a;
        std::vector<double> z_re(h), z_im(h);
        kt.mul_conj_unpack(a_re.data(), a_im.data(),
                           fused_product ? c_re.data() : nullptr,
                           fused_product ? c_im.data() : nullptr,
                           tw_re.data(), tw_im.data(), h, z_re.data(),
                           z_im.data());
        const auto bin = [&](std::size_t k) {
          return std::complex<double>(
              bins[2 * k], (k == 0 || k == h) ? 0.0 : bins[2 * k + 1]);
        };
        std::vector<double> want_re(h), want_im(h);
        for (std::size_t k = 0; k < h; ++k) {
          const std::complex<double> ck = bin(k);
          const std::complex<double> cmk = std::conj(bin(h - k));
          const std::complex<double> even = 0.5 * (ck + cmk);
          const std::complex<double> odd =
              0.5 * (ck - cmk) *
              std::conj(std::complex<double>(tw_re[k], tw_im[k]));
          const std::complex<double> z =
              even + std::complex<double>(0, 1) * odd;
          want_re[k] = z.real();
          want_im[k] = z.imag();
        }
        EXPECT_TRUE(BitEqual(z_re, want_re))
            << "backend=" << kt.name << " h=" << h << " fused=" << fused_product;
        EXPECT_TRUE(BitEqual(z_im, want_im))
            << "backend=" << kt.name << " h=" << h << " fused=" << fused_product;
      }
    }
  }
}

TEST(LegacyAgreementTest, Radix2TransformMatchesClassicTransform) {
  // The split transform is BY CONTRACT the classic in-place transform — a
  // bit-reversal swap pass, then interleaved butterflies reading the
  // n-point table at stride n/len — with the same per-element rounding
  // sequence, including the len-2 stage's multiply by w = (1, -0).
  common::Rng rng(208);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= 4096; n <<= 1) {
      const Radix2TestTables t(n);
      const std::vector<double> in_re = RandomBuffer(n, &rng);
      const std::vector<double> in_im = RandomBuffer(n, &rng);
      for (const bool inverse : {false, true}) {
        std::vector<double> out_re(n), out_im(n);
        kt.radix2_transform(t.tables, in_re.data(), in_im.data(),
                            out_re.data(), out_im.data(), inverse);

        std::vector<double> re = in_re, im = in_im;
        std::size_t log2n = 0;
        while ((std::size_t{1} << log2n) < n) ++log2n;
        for (std::size_t i = 0; i < n; ++i) {
          std::size_t j = 0;
          for (std::size_t b = 0; b < log2n; ++b) j = (j << 1) | ((i >> b) & 1);
          if (i < j) {
            std::swap(re[i], re[j]);
            std::swap(im[i], im[j]);
          }
        }
        for (std::size_t len = 2; len <= n; len <<= 1) {
          for (std::size_t base = 0; base < n; base += len) {
            for (std::size_t j = 0; j < len / 2; ++j) {
              const double angle = -2.0 * 3.14159265358979323846 *
                                   static_cast<double>(j * (n / len)) /
                                   static_cast<double>(n);
              const double wr = std::cos(angle);
              const double wi = inverse ? -std::sin(angle) : std::sin(angle);
              const std::size_t lo = base + j;
              const std::size_t hi = lo + len / 2;
              const double vr = re[hi] * wr - im[hi] * wi;
              const double vi = re[hi] * wi + im[hi] * wr;
              const double ur = re[lo];
              const double ui = im[lo];
              re[lo] = ur + vr;
              im[lo] = ui + vi;
              re[hi] = ur - vr;
              im[hi] = ui - vi;
            }
          }
        }
        EXPECT_TRUE(BitEqual(out_re, re))
            << "backend=" << kt.name << " n=" << n << " inverse=" << inverse;
        EXPECT_TRUE(BitEqual(out_im, im))
            << "backend=" << kt.name << " n=" << n << " inverse=" << inverse;
      }
    }
  }
}

TEST(LegacyAgreementTest, DotAxpyRowsMatchesDotThenAxpyExactly) {
  // The fused kernel is BY CONTRACT the composition of the table's own dot
  // and axpy, row by row — no extra fusing, so agreement is exact (the
  // matrix-free reduction-order contract depends on this, not on an epsilon).
  common::Rng rng(207);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t m = 1; m <= kMaxLength; ++m) {
      const std::size_t rows = 4;
      const std::vector<double> pool = RandomBuffer(rows * m, &rng);
      const std::vector<double> u = RandomBuffer(m, &rng);
      std::vector<double> fused(m, 0.0);
      kt.dot_axpy_rows(pool.data(), rows, m, u.data(), fused.data());
      std::vector<double> composed(m, 0.0);
      for (std::size_t r = 0; r < rows; ++r) {
        const double d = kt.dot(pool.data() + r * m, u.data(), m);
        kt.axpy(d, pool.data() + r * m, composed.data(), m);
      }
      EXPECT_EQ(fused, composed) << "backend=" << kt.name << " m=" << m;
    }
  }
}

TEST(LegacyAgreementTest, PeakScanMatchesSequentialScan) {
  common::Rng rng(204);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      std::vector<double> x = RandomBuffer(n, &rng);
      if (n > 3) x[n - 1] = x[n / 3];  // Plant a potential tie.
      double best = x[0];
      std::size_t best_i = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (x[i] > best) {
          best = x[i];
          best_i = i;
        }
      }
      const simd::Peak p = kt.peak_scan(x.data(), n);
      EXPECT_EQ(p.value, best) << "n=" << n;
      EXPECT_EQ(p.index, best_i) << "n=" << n;
    }
  }
}

TEST(LegacyAgreementTest, LagPeakMatchesInterleaveScaledThenSequentialScan) {
  // The lag peak is BY CONTRACT the sequential strict-greater scan of the
  // lag buffer InterleaveScaled writes, value bits included; peak_scan of
  // that buffer must agree with it too.
  common::Rng rng(209);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t h = 1; h <= 2048; h <<= 1) {
      for (const std::size_t m : LagPeakMs(h)) {
        for (const PlaneCase& c : LagPeakCases(h, m, &rng)) {
          for (const double scale : {1.0 / static_cast<double>(h), 1.0}) {
            const std::vector<double> cc =
                InterleaveScaledLags(c.re, c.im, m, scale);
            const simd::Peak want = SequentialPeak(cc);
            const std::string where = std::string(c.what) +
                                      " backend=" + kt.name +
                                      " len=" + std::to_string(2 * h) +
                                      " m=" + std::to_string(m);
            EXPECT_TRUE(PeakBitEqual(
                kt.lag_peak(c.re.data(), c.im.data(), h, m, scale), want))
                << where;
            EXPECT_TRUE(PeakBitEqual(kt.peak_scan(cc.data(), cc.size()), want))
                << where;
          }
        }
      }
    }
  }
}

TEST(LegacyAgreementTest, ForwardPackAndUnpackMatchStdComplexLoop) {
  // The pack is RfftPlan::Forward's former even/odd loop with its zero pad;
  // the unpack is BY CONTRACT its std::complex unpack, zero products
  // included, so agreement is bitwise.
  common::Rng rng(210);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    std::vector<std::size_t> halves;
    for (std::size_t h = 1; h <= kMaxLength; ++h) halves.push_back(h);
    for (std::size_t h = 128; h <= 2048; h <<= 1) halves.push_back(h);
    for (const std::size_t h : halves) {
      const std::size_t counts[] = {2 * h, 2 * h - 1, h, h / 2 + 1};
      for (const std::size_t count : counts) {
        const std::vector<double> x = RandomBuffer(count, &rng);
        std::vector<double> want_re(h), want_im(h);
        for (std::size_t j = 0; j < h; ++j) {
          want_re[j] = 2 * j < count ? x[2 * j] : 0.0;
          want_im[j] = 2 * j + 1 < count ? x[2 * j + 1] : 0.0;
        }
        std::vector<double> z_re(h, 123.0), z_im(h, 123.0);
        kt.forward_pack(x.data(), count, h, z_re.data(), z_im.data());
        EXPECT_TRUE(BitEqual(z_re, want_re))
            << "backend=" << kt.name << " h=" << h << " count=" << count;
        EXPECT_TRUE(BitEqual(z_im, want_im))
            << "backend=" << kt.name << " h=" << h << " count=" << count;
      }
      std::vector<double> tw_re, tw_im;
      ForwardTwiddles(h, &tw_re, &tw_im);
      // Random planes, then planes of signed zeros: there every output is a
      // zero whose sign the zero products decide.
      for (const bool zeros : {false, true}) {
        std::vector<double> t_re = RandomBuffer(h, &rng);
        std::vector<double> t_im = RandomBuffer(h, &rng);
        if (zeros) {
          for (double& v : t_re) v = v < 0 ? -0.0 : 0.0;
          for (double& v : t_im) v = v < 0 ? -0.0 : 0.0;
        }
        std::vector<double> want_re, want_im;
        StdComplexForwardUnpack(t_re, t_im, tw_re, tw_im, &want_re, &want_im);
        std::vector<double> out_re(h + 1, 123.0), out_im(h + 1, 123.0);
        kt.forward_unpack(t_re.data(), t_im.data(), tw_re.data(),
                          tw_im.data(), h, out_re.data(), out_im.data());
        EXPECT_TRUE(BitEqual(out_re, want_re))
            << "backend=" << kt.name << " h=" << h << " zeros=" << zeros;
        EXPECT_TRUE(BitEqual(out_im, want_im))
            << "backend=" << kt.name << " h=" << h << " zeros=" << zeros;
      }
    }
  }
}

TEST(LegacyAgreementTest, MagnitudesMatchStdSqrt) {
  // IEEE sqrt is correctly rounded, so the vector sqrt gives std::sqrt's
  // bits: zeros (of both signs) and tiny and huge energies included.
  common::Rng rng(211);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      std::vector<double> re = RandomBuffer(n, &rng);
      std::vector<double> im = RandomBuffer(n, &rng);
      re[0] = -0.0;
      im[0] = 0.0;
      if (n > 2) {
        re[1] *= 1e-160;
        im[2] *= 1e150;
      }
      for (const double w : {1.0, 2.0}) {
        std::vector<double> want(n);
        for (std::size_t k = 0; k < n; ++k) {
          want[k] = std::sqrt(w * (re[k] * re[k] + im[k] * im[k]));
        }
        std::vector<double> out(n, 123.0);
        kt.magnitudes(re.data(), im.data(), n, w, out.data());
        EXPECT_TRUE(BitEqual(out, want))
            << "backend=" << kt.name << " n=" << n << " w=" << w;
      }
    }
  }
}

TEST(LegacyAgreementTest, DtwRowMatchesFusedLoop) {
  common::Rng rng(205);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t count = 1; count <= kMaxLength; ++count) {
      std::vector<double> prev = RandomBuffer(count + 1, &rng, 0.0, 4.0);
      prev[0] = kInf;
      const std::vector<double> y = RandomBuffer(count + 1, &rng);
      const double xi = rng.Uniform(-2.0, 2.0);
      std::vector<double> expected(count);
      double left = kInf;
      for (std::size_t t = 0; t < count; ++t) {
        const double d = xi - y[t];
        const double e = std::min(prev[t], prev[t + 1]);
        expected[t] = d * d + std::min(e, left);
        left = expected[t];
      }
      std::vector<double> cur(count, -1.0);
      kt.dtw_row(prev.data(), y.data(), xi, kInf, cur.data(), count);
      EXPECT_EQ(cur, expected) << "count=" << count;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. End-to-end bit-identity across backends x thread counts.
// ---------------------------------------------------------------------------

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
  tseries::Dataset dataset("simd-test");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(tseries::ZNormalized(data::MakeCbf(klass, m, &rng)), klass);
  }
  return dataset;
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

// Runs `compute` under every backend x thread-count combination and asserts
// all results compare equal to the scalar single-threaded reference.
template <typename T, typename Equal>
void ExpectBackendAndThreadInvariant(const std::function<T()>& compute,
                                     Equal equal, const char* what) {
  SimdBackendGuard guard;
  simd::SetBackendForTesting(Backend::kScalar);
  common::SetThreadCount(1);
  const T reference = compute();
  for (const Backend backend : AvailableBackends()) {
    simd::SetBackendForTesting(backend);
    for (const int threads : kThreadCounts) {
      common::SetThreadCount(threads);
      const T other = compute();
      EXPECT_TRUE(equal(reference, other))
          << what << " differs under backend "
          << simd::Kernels(backend).name << " with " << threads << " threads";
    }
  }
}

TEST(EndToEndInvarianceTest, KShapeLabelsAndTelemetry) {
  const std::vector<Series> series = MakeSeries(36, 64, 301);
  const core::KShape algorithm;
  ExpectBackendAndThreadInvariant<cluster::ClusteringResult>(
      [&] {
        common::Rng rng(7);
        return algorithm.Cluster(series, 3, &rng);
      },
      ResultsBitIdentical, "k-Shape result");
}

TEST(EndToEndInvarianceTest, KShapePlusPlusSeeding) {
  const std::vector<Series> series = MakeSeries(36, 64, 302);
  core::KShapeOptions options;
  options.init = core::KShapeInit::kPlusPlusSeeding;
  const core::KShape algorithm(options);
  ExpectBackendAndThreadInvariant<cluster::ClusteringResult>(
      [&] {
        common::Rng rng(11);
        return algorithm.Cluster(series, 3, &rng);
      },
      ResultsBitIdentical, "k-Shape (++ init) result");
}

TEST(EndToEndInvarianceTest, KShapeHalfSpectrumLabelsAndTelemetry) {
  // The half- and full-spectrum caches see distances that differ only in the
  // last ulps; on this data no NCC peak or assignment argmin flips, so the
  // entire result — labels, centroids (built from integer alignment shifts),
  // and telemetry — is bit-identical across the two layouts, and each layout
  // is separately invariant across backends and thread counts.
  const std::vector<Series> series = MakeSeries(36, 64, 307);
  HalfSpectrumGateGuard gate_guard;
  cluster::ClusteringResult per_layout[2];
  for (const bool half : {false, true}) {
    fft::SetHalfSpectrumEnabledForTesting(half);
    const core::KShape algorithm;
    const auto run = [&] {
      common::Rng rng(7);
      return algorithm.Cluster(series, 3, &rng);
    };
    ExpectBackendAndThreadInvariant<cluster::ClusteringResult>(
        run, ResultsBitIdentical,
        half ? "k-Shape (half-spectrum cache)" : "k-Shape (full-complex cache)");
    per_layout[half ? 1 : 0] = run();
  }
  EXPECT_TRUE(ResultsBitIdentical(per_layout[0], per_layout[1]))
      << "half- and full-spectrum k-Shape results diverged";
}

TEST(EndToEndInvarianceTest, KShapePlusPlusSeedingHalfSpectrum) {
  // ++-seeding draws from the cached distance-to-nearest-seed distribution,
  // so it exercises DistanceToAll through both spectrum layouts.
  const std::vector<Series> series = MakeSeries(36, 64, 308);
  HalfSpectrumGateGuard gate_guard;
  cluster::ClusteringResult per_layout[2];
  for (const bool half : {false, true}) {
    fft::SetHalfSpectrumEnabledForTesting(half);
    core::KShapeOptions options;
    options.init = core::KShapeInit::kPlusPlusSeeding;
    const core::KShape algorithm(options);
    const auto run = [&] {
      common::Rng rng(11);
      return algorithm.Cluster(series, 3, &rng);
    };
    ExpectBackendAndThreadInvariant<cluster::ClusteringResult>(
        run, ResultsBitIdentical,
        half ? "k-Shape ++ (half-spectrum cache)"
             : "k-Shape ++ (full-complex cache)");
    per_layout[half ? 1 : 0] = run();
  }
  EXPECT_TRUE(ResultsBitIdentical(per_layout[0], per_layout[1]))
      << "half- and full-spectrum k-Shape ++ results diverged";
}

TEST(EndToEndInvarianceTest, OneNnSbdHalfSpectrumInvariance) {
  // The 1-NN batch scanner picks its spectrum layout from the process-wide
  // gate (SbdEngine's default argument), so this toggles the gate itself.
  const tseries::Dataset train = MakeDataset(30, 52, 309);
  const tseries::Dataset test = MakeDataset(15, 52, 310);
  const core::SbdDistance sbd;
  HalfSpectrumGateGuard gate_guard;
  double accuracy[2];
  for (const bool half : {false, true}) {
    fft::SetHalfSpectrumEnabledForTesting(half);
    const auto run = [&] { return classify::OneNnAccuracy(train, test, sbd); };
    ExpectBackendAndThreadInvariant<double>(
        run, [](double a, double b) { return a == b; },
        half ? "1-NN SBD (half-spectrum cache)"
             : "1-NN SBD (full-complex cache)");
    accuracy[half ? 1 : 0] = run();
  }
  EXPECT_EQ(accuracy[0], accuracy[1]);
}

TEST(EndToEndInvarianceTest, OneNnEarlyAbandonAccuracy) {
  const tseries::Dataset train = MakeDataset(40, 64, 303);
  const tseries::Dataset test = MakeDataset(20, 64, 304);
  ExpectBackendAndThreadInvariant<double>(
      [&] { return classify::OneNnAccuracyEdEarlyAbandon(train, test); },
      [](double a, double b) { return a == b; }, "1-NN ED early-abandon");
}

TEST(EndToEndInvarianceTest, CdtwLowerBoundAccuracy) {
  const tseries::Dataset train = MakeDataset(24, 48, 305);
  const tseries::Dataset test = MakeDataset(12, 48, 306);
  ExpectBackendAndThreadInvariant<double>(
      [&] { return classify::OneNnAccuracyCdtwLb(train, test, 4); },
      [](double a, double b) { return a == b; }, "1-NN cDTW+LB_Keogh");
}

TEST(EndToEndInvarianceTest, PairwiseEdAndSbdMatrices) {
  // The all-pairs workloads: ED through PairwiseDistanceMatrix, and SBD
  // through the engine's flat fill (spectra, products, inverses, peak scans).
  const std::vector<Series> series = MakeSeries(24, 96, 311);
  const distance::EuclideanDistance ed;
  ExpectBackendAndThreadInvariant<std::vector<double>>(
      [&] {
        const linalg::Matrix d = cluster::PairwiseDistanceMatrix(series, ed);
        std::vector<double> flat;
        for (std::size_t i = 0; i < d.rows(); ++i) {
          flat.insert(flat.end(), d.Row(i), d.Row(i) + d.cols());
        }
        return flat;
      },
      std::equal_to<>(), "pairwise ED matrix");
  ExpectBackendAndThreadInvariant<std::vector<double>>(
      [&] {
        const core::SbdEngine engine(series);
        std::vector<double> flat;
        engine.PairwiseFlat(&flat);
        return flat;
      },
      std::equal_to<>(), "SbdEngine pairwise flat");
}

TEST(DispatchTest, ActiveBackendReportsAConsistentName) {
  SimdBackendGuard guard;
  simd::SetBackendForTesting(Backend::kScalar);
  EXPECT_STREQ(simd::ActiveBackendName(), "scalar");
  EXPECT_EQ(simd::ActiveBackend(), Backend::kScalar);
  if (simd::Avx2Available()) {
    simd::SetBackendForTesting(Backend::kAvx2);
    EXPECT_STREQ(simd::ActiveBackendName(), "avx2");
    EXPECT_EQ(simd::ActiveBackend(), Backend::kAvx2);
  }
}

}  // namespace
}  // namespace kshape
