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
#include <functional>
#include <limits>
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

TEST_F(BitIdentityTest, ComplexMulConjSoa) {
  common::Rng rng(108);
  for (std::size_t n = 1; n <= kMaxLength; ++n) {
    const std::vector<double> a_re = RandomBuffer(n, &rng);
    const std::vector<double> a_im = RandomBuffer(n, &rng);
    const std::vector<double> b_re = RandomBuffer(n, &rng);
    const std::vector<double> b_im = RandomBuffer(n, &rng);
    std::vector<double> re_s(n, 0.0);
    std::vector<double> im_s(n, 0.0);
    std::vector<double> re_v(n, 123.0);  // Different garbage on purpose.
    std::vector<double> im_v(n, 123.0);
    scalar_.complex_mul_conj_soa(a_re.data(), a_im.data(), b_re.data(),
                                 b_im.data(), re_s.data(), im_s.data(), n);
    avx2_.complex_mul_conj_soa(a_re.data(), a_im.data(), b_re.data(),
                               b_im.data(), re_v.data(), im_v.data(), n);
    EXPECT_EQ(re_s, re_v) << "n=" << n;
    EXPECT_EQ(im_s, im_v) << "n=" << n;
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

TEST(LegacyAgreementTest, ComplexMulConjSoaMatchesInterleavedKernel) {
  // The SoA kernel computes the same two products and one add/sub per
  // element as the interleaved kernel, each rounded separately (no fusing in
  // either), so changing the memory layout changes no value: agreement is
  // exact, not epsilon.
  common::Rng rng(206);
  for (const Backend backend : AvailableBackends()) {
    const KernelTable& kt = simd::Kernels(backend);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      const std::vector<double> a = RandomBuffer(2 * n, &rng);
      const std::vector<double> b = RandomBuffer(2 * n, &rng);
      std::vector<double> interleaved(2 * n, 0.0);
      kt.complex_mul_conj(a.data(), b.data(), interleaved.data(), n);

      std::vector<double> a_re(n), a_im(n), b_re(n), b_im(n);
      for (std::size_t k = 0; k < n; ++k) {
        a_re[k] = a[2 * k];
        a_im[k] = a[2 * k + 1];
        b_re[k] = b[2 * k];
        b_im[k] = b[2 * k + 1];
      }
      std::vector<double> out_re(n, 0.0);
      std::vector<double> out_im(n, 0.0);
      kt.complex_mul_conj_soa(a_re.data(), a_im.data(), b_re.data(),
                              b_im.data(), out_re.data(), out_im.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(out_re[k], interleaved[2 * k]) << "n=" << n << " k=" << k;
        EXPECT_EQ(out_im[k], interleaved[2 * k + 1])
            << "n=" << n << " k=" << k;
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
