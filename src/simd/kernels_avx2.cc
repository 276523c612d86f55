// x86 AVX2 backend. One 256-bit register holds exactly the four lanes of the
// fixed virtual-accumulator contract (kernels.h), so a vertical vector add
// per 4-element block walks the identical arithmetic sequence the scalar
// backend walks lane by lane; tails fold into the extracted lane array at
// index i mod 4, and the final combine is the shared (l0+l1)+(l2+l3). No
// fused multiply-adds anywhere — multiplies and adds round separately, and
// this translation unit compiles with -ffp-contract=off so the compiler
// cannot fuse them either. The FMA CPUID bit still gates dispatch (every
// AVX2-era part has it; keeping the gate makes the backend set predictable).
//
// Compiled with -mavx2 -mfma on x86 only; elsewhere this file provides the
// nullptr stub and the dispatcher falls back to the scalar backend.

#include "simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace kshape::simd {

namespace {

inline double Reduce4(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SumAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += x[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SumSquaresAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += x[i] * x[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

MeanVar MeanVarAvx2(const double* x, std::size_t n) {
  MeanVar mv;
  mv.mean = SumAvx2(x, n) / static_cast<double>(n);
  const __m256d vmu = _mm256_set1_pd(mv.mean);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmu);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    const double d = x[i] - mv.mean;
    lanes[i & 3] += d * d;
  }
  mv.variance =
      ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) / static_cast<double>(n);
  return mv;
}

double DotAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += x[i] * y[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SquaredEdAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    lanes[i & 3] += d * d;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SquaredEdAbandonAvx2(const double* x, const double* y, std::size_t n,
                            double threshold) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  // Same 16-element checkpoint cadence as the scalar backend; the horizontal
  // reduce is compared against the threshold, never accumulated back.
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      const __m256d d =
          _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    lanes[i & 3] += d * d;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double LbKeoghSquaredAvx2(const double* c, const double* lower,
                          const double* upper, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vc = _mm256_loadu_pd(c + i);
    // max(v, 0) with the zero as the second operand matches the scalar
    // `v > 0 ? v : 0` for -0.0 and NaN inputs (vmaxpd returns src2 then).
    const __m256d du =
        _mm256_max_pd(_mm256_sub_pd(vc, _mm256_loadu_pd(upper + i)), zero);
    const __m256d dl =
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lower + i), vc), zero);
    acc = _mm256_add_pd(
        acc, _mm256_add_pd(_mm256_mul_pd(du, du), _mm256_mul_pd(dl, dl)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    double du = c[i] - upper[i];
    du = du > 0.0 ? du : 0.0;
    double dl = lower[i] - c[i];
    dl = dl > 0.0 ? dl : 0.0;
    lanes[i & 3] += du * du + dl * dl;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void ComplexMulConjAvx2(const double* a, const double* b, double* out,
                        std::size_t n) {
  // -0.0 on the odd (imaginary) lanes only: set_pd takes lanes high-to-low.
  const __m256d odd_flip = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  std::size_t k = 0;
  // Two interleaved complexes per iteration:
  //   re = ar*br + ai*bi,  im = ai*br - ar*bi
  // via t1 = [ar*br, ai*br], t2 = [ai*bi, ar*bi], then t1 + (t2 with the odd
  // lanes sign-flipped). A plain add (not _mm256_addsub_pd) on purpose: GCC
  // folds mul feeding addsub into vfmsubadd132pd even at -ffp-contract=off,
  // which fuses a rounding away and breaks bit-identity with scalar.
  for (; k + 2 <= n; k += 2) {
    const __m256d va = _mm256_loadu_pd(a + 2 * k);
    const __m256d vb = _mm256_loadu_pd(b + 2 * k);
    const __m256d b_re = _mm256_movedup_pd(vb);          // [br, br, ...]
    const __m256d b_im = _mm256_permute_pd(vb, 0xF);     // [bi, bi, ...]
    const __m256d a_sw = _mm256_permute_pd(va, 0x5);     // [ai, ar, ...]
    const __m256d t1 = _mm256_mul_pd(va, b_re);
    const __m256d t2 = _mm256_mul_pd(a_sw, b_im);
    _mm256_storeu_pd(out + 2 * k,
                     _mm256_add_pd(t1, _mm256_xor_pd(t2, odd_flip)));
  }
  for (; k < n; ++k) {
    const double ar = a[2 * k];
    const double ai = a[2 * k + 1];
    const double br = b[2 * k];
    const double bi = b[2 * k + 1];
    out[2 * k] = ar * br + ai * bi;
    out[2 * k + 1] = ai * br - ar * bi;
  }
}

// Scalar twin of one packed-unpack bin: the identical source to the scalar
// backend's UnpackBin (same TU flags), used for bin 0 and the tail.
inline void UnpackBin(double cr, double ci, double mr, double mi, double wr,
                      double wi, double* zr, double* zi) {
  const double cmr = mr;
  const double cmi = -mi;
  const double er = 0.5 * (cr + cmr);
  const double ei = 0.5 * (ci + cmi);
  const double sr = 0.5 * (cr - cmr);
  const double si = 0.5 * (ci - cmi);
  const double twi = -wi;
  const double odr = sr * wr - si * twi;
  const double odi = sr * twi + si * wr;
  *zr = er + (0.0 * odr - odi);
  *zi = ei + (0.0 * odi + odr);
}

// The four bins C[p..p+3] (x·conj(y) when kProduct, else x) into re / im.
template <bool kProduct>
inline void LoadBins(const double* x_re, const double* x_im,
                     const double* y_re, const double* y_im, std::size_t p,
                     __m256d* re, __m256d* im) {
  const __m256d xr = _mm256_loadu_pd(x_re + p);
  const __m256d xi = _mm256_loadu_pd(x_im + p);
  if constexpr (kProduct) {
    const __m256d yr = _mm256_loadu_pd(y_re + p);
    const __m256d yi = _mm256_loadu_pd(y_im + p);
    *re = _mm256_add_pd(_mm256_mul_pd(xr, yr), _mm256_mul_pd(xi, yi));
    *im = _mm256_sub_pd(_mm256_mul_pd(xi, yr), _mm256_mul_pd(xr, yi));
  } else {
    *re = xr;
    *im = xi;
  }
}

template <bool kProduct>
void MulConjUnpackImpl(const double* x_re, const double* x_im,
                       const double* y_re, const double* y_im,
                       const double* tw_re, const double* tw_im,
                       std::size_t h, double* z_re, double* z_im) {
  const auto bin_re = [&](std::size_t k) {
    if constexpr (kProduct) return x_re[k] * y_re[k] + x_im[k] * y_im[k];
    return x_re[k];
  };
  const auto bin_im = [&](std::size_t k) {
    if constexpr (kProduct) return x_im[k] * y_re[k] - x_re[k] * y_im[k];
    return x_im[k];
  };
  UnpackBin(bin_re(0), 0.0, bin_re(h), 0.0, tw_re[0], tw_im[0], z_re, z_im);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t k = 1;
  // Four bins per iteration: C[k..k+3] and their mirrors C[h-k-3..h-k]
  // (loaded forward, lane-reversed), the same per-lane sequence as
  // UnpackBin with negation as a sign flip.
  for (; k + 4 <= h; k += 4) {
    __m256d cr, ci, mr, mi;
    LoadBins<kProduct>(x_re, x_im, y_re, y_im, k, &cr, &ci);
    LoadBins<kProduct>(x_re, x_im, y_re, y_im, h - k - 3, &mr, &mi);
    mr = _mm256_permute4x64_pd(mr, 0x1B);
    mi = _mm256_permute4x64_pd(mi, 0x1B);
    const __m256d cmi = _mm256_xor_pd(mi, sign);
    const __m256d er = _mm256_mul_pd(half, _mm256_add_pd(cr, mr));
    const __m256d ei = _mm256_mul_pd(half, _mm256_add_pd(ci, cmi));
    const __m256d sr = _mm256_mul_pd(half, _mm256_sub_pd(cr, mr));
    const __m256d si = _mm256_mul_pd(half, _mm256_sub_pd(ci, cmi));
    const __m256d wr = _mm256_loadu_pd(tw_re + k);
    const __m256d twi = _mm256_xor_pd(_mm256_loadu_pd(tw_im + k), sign);
    const __m256d odr =
        _mm256_sub_pd(_mm256_mul_pd(sr, wr), _mm256_mul_pd(si, twi));
    const __m256d odi =
        _mm256_add_pd(_mm256_mul_pd(sr, twi), _mm256_mul_pd(si, wr));
    _mm256_storeu_pd(
        z_re + k,
        _mm256_add_pd(er, _mm256_sub_pd(_mm256_mul_pd(zero, odr), odi)));
    _mm256_storeu_pd(
        z_im + k,
        _mm256_add_pd(ei, _mm256_add_pd(_mm256_mul_pd(zero, odi), odr)));
  }
  for (; k < h; ++k) {
    UnpackBin(bin_re(k), bin_im(k), bin_re(h - k), bin_im(h - k), tw_re[k],
              tw_im[k], z_re + k, z_im + k);
  }
}

void MulConjUnpackAvx2(const double* x_re, const double* x_im,
                       const double* y_re, const double* y_im,
                       const double* tw_re, const double* tw_im,
                       std::size_t h, double* z_re, double* z_im) {
  if (y_re != nullptr) {
    MulConjUnpackImpl<true>(x_re, x_im, y_re, y_im, tw_re, tw_im, h, z_re,
                            z_im);
  } else {
    MulConjUnpackImpl<false>(x_re, x_im, y_re, y_im, tw_re, tw_im, h, z_re,
                             z_im);
  }
}

Peak PeakScanAvx2(const double* x, std::size_t n) {
  // The peak is a max/argmax, not a rounded reduction: comparisons are exact,
  // so ANY index partition yields the sequential scan's result as long as
  // each partition keeps the lowest index of its own maximum (strict-greater
  // updates) and the final combine prefers the lowest index among equal
  // maxima — the globally-first maximum is necessarily its partition's
  // winner. That freedom lets this backend run TWO independent
  // (best, index) register pairs (eight candidates per iteration) to hide
  // the cmp->blend dependency latency that made a single 4-lane chain slower
  // than the branchy scalar scan.
  if (n < 8) {
    Peak peak;
    peak.value = x[0];
    peak.index = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (x[i] > peak.value) {
        peak.value = x[i];
        peak.index = i;
      }
    }
    return peak;
  }

  __m256d vbest0 = _mm256_loadu_pd(x);
  __m256d vbest1 = _mm256_loadu_pd(x + 4);
  __m256i vidx0 = _mm256_set_epi64x(3, 2, 1, 0);
  __m256i vidx1 = _mm256_set_epi64x(7, 6, 5, 4);
  __m256i viter0 = _mm256_set_epi64x(11, 10, 9, 8);
  __m256i viter1 = _mm256_set_epi64x(15, 14, 13, 12);
  const __m256i vstep = _mm256_set1_epi64x(8);
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    const __m256d gt0 = _mm256_cmp_pd(v0, vbest0, _CMP_GT_OQ);
    const __m256d gt1 = _mm256_cmp_pd(v1, vbest1, _CMP_GT_OQ);
    vbest0 = _mm256_blendv_pd(vbest0, v0, gt0);
    vbest1 = _mm256_blendv_pd(vbest1, v1, gt1);
    vidx0 = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(vidx0), _mm256_castsi256_pd(viter0), gt0));
    vidx1 = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(vidx1), _mm256_castsi256_pd(viter1), gt1));
    viter0 = _mm256_add_epi64(viter0, vstep);
    viter1 = _mm256_add_epi64(viter1, vstep);
  }
  alignas(32) double bv[8];
  alignas(32) std::int64_t bi[8];
  _mm256_store_pd(bv, vbest0);
  _mm256_store_pd(bv + 4, vbest1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(bi), vidx0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(bi + 4), vidx1);
  for (; i < n; ++i) {
    const std::size_t l = i & 7;
    if (x[i] > bv[l]) {
      bv[l] = x[i];
      bi[l] = static_cast<std::int64_t>(i);
    }
  }
  Peak peak;
  peak.value = bv[0];
  peak.index = static_cast<std::size_t>(bi[0]);
  for (std::size_t l = 1; l < 8; ++l) {
    const std::size_t idx = static_cast<std::size_t>(bi[l]);
    if (bv[l] > peak.value || (bv[l] == peak.value && idx < peak.index)) {
      peak.value = bv[l];
      peak.index = idx;
    }
  }
  return peak;
}

void AxpyAvx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), t));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ScaleAvx2(double* x, double s, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void ApplyZNormAvx2(double* x, std::size_t n, double mean,
                    double inv_stddev) {
  const __m256d vmu = _mm256_set1_pd(mean);
  const __m256d vinv = _mm256_set1_pd(inv_stddev);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        x + i,
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vmu), vinv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) * inv_stddev;
}

void DtwRowAvx2(const double* prev_jm1, const double* y_jm1, double xi,
                double left_seed, double* cur, std::size_t count) {
  // The cur[t-1] recurrence is serial, and a measured split (vector
  // precompute of cost/e into scratch + serial combine) ran SLOWER than the
  // fused loop — the extra stores and scratch traffic cost more than the
  // vector squares save. So this backend runs the identical fused loop as
  // the scalar backend (same source, -ffp-contract=off here too), which is
  // also what makes bit-identity trivial for this kernel.
  double left = left_seed;
  for (std::size_t t = 0; t < count; ++t) {
    const double d = xi - y_jm1[t];
    const double e =
        prev_jm1[t] < prev_jm1[t + 1] ? prev_jm1[t] : prev_jm1[t + 1];
    const double best = e < left ? e : left;
    left = d * d + best;
    cur[t] = left;
  }
}

double AbsProductPartialSumsAvx2(const double* a_mag, const double* b_mag,
                                 const double* a_tail, const double* b_tail,
                                 std::size_t n, double threshold) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  // Same 16-element cadence and exit order as the scalar backend: reduce,
  // cannot-abandon check, then the Cauchy–Schwarz tail bound (one scalar mul
  // + add, rounded separately — identical arithmetic to the scalar kernel).
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a_mag + i),
                                             _mm256_loadu_pd(b_mag + i)));
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
    const double bound = total + a_tail[i / 16] * b_tail[i / 16];
    if (bound < threshold) return bound;
  }
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a_mag + i),
                                           _mm256_loadu_pd(b_mag + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[i & 3] += a_mag[i] * b_mag[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void Radix2TransformAvx2(const Radix2Tables& t, const double* in_re,
                         const double* in_im, double* out_re, double* out_im,
                         bool inverse) {
  const std::size_t n = t.n;
  if (n < 16) {
    // Below four first-pass blocks the vector gather has no full register;
    // the scalar transform is the identical per-element sequence.
    ScalarKernels().radix2_transform(t, in_re, in_im, out_re, out_im,
                                     inverse);
    return;
  }
  const __m256d flip = inverse ? _mm256_set1_pd(-0.0) : _mm256_setzero_pd();
  // First pass: lanes are four consecutive r, so the four bit-reversed
  // inputs of each 4-point block are contiguous loads; a 4x4 transpose
  // turns the (stage output x lane) registers into one contiguous store per
  // block at 4·quarter_rev[r].
  const std::size_t q = n / 4;
  // w0 is every stage's entry j = 0, (1, -0); the len-4 stage's j = 1
  // entry is w1.
  const __m256d w0r = _mm256_set1_pd(t.tw_re[0]);
  const __m256d w0i = _mm256_xor_pd(_mm256_set1_pd(t.tw_im[0]), flip);
  const __m256d w1r = _mm256_set1_pd(t.tw_re[2]);
  const __m256d w1i = _mm256_xor_pd(_mm256_set1_pd(t.tw_im[2]), flip);
  const auto mul_re = [](__m256d xr, __m256d xi, __m256d wr, __m256d wi) {
    return _mm256_sub_pd(_mm256_mul_pd(xr, wr), _mm256_mul_pd(xi, wi));
  };
  const auto mul_im = [](__m256d xr, __m256d xi, __m256d wr, __m256d wi) {
    return _mm256_add_pd(_mm256_mul_pd(xr, wi), _mm256_mul_pd(xi, wr));
  };
  const auto store_transposed = [&](double* out, __m256d o0, __m256d o1,
                                    __m256d o2, __m256d o3, std::size_t r) {
    const __m256d t0 = _mm256_unpacklo_pd(o0, o1);
    const __m256d t1 = _mm256_unpackhi_pd(o0, o1);
    const __m256d t2 = _mm256_unpacklo_pd(o2, o3);
    const __m256d t3 = _mm256_unpackhi_pd(o2, o3);
    _mm256_storeu_pd(out + 4 * t.quarter_rev[r],
                     _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(out + 4 * t.quarter_rev[r + 1],
                     _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(out + 4 * t.quarter_rev[r + 2],
                     _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(out + 4 * t.quarter_rev[r + 3],
                     _mm256_permute2f128_pd(t1, t3, 0x31));
  };
  for (std::size_t r = 0; r < q; r += 4) {
    const __m256d a0r = _mm256_loadu_pd(in_re + r);
    const __m256d a0i = _mm256_loadu_pd(in_im + r);
    const __m256d a1r = _mm256_loadu_pd(in_re + r + 2 * q);
    const __m256d a1i = _mm256_loadu_pd(in_im + r + 2 * q);
    const __m256d a2r = _mm256_loadu_pd(in_re + r + q);
    const __m256d a2i = _mm256_loadu_pd(in_im + r + q);
    const __m256d a3r = _mm256_loadu_pd(in_re + r + 3 * q);
    const __m256d a3i = _mm256_loadu_pd(in_im + r + 3 * q);
    const __m256d b1r = mul_re(a1r, a1i, w0r, w0i);
    const __m256d b1i = mul_im(a1r, a1i, w0r, w0i);
    const __m256d b3r = mul_re(a3r, a3i, w0r, w0i);
    const __m256d b3i = mul_im(a3r, a3i, w0r, w0i);
    const __m256d s0r = _mm256_add_pd(a0r, b1r);
    const __m256d s0i = _mm256_add_pd(a0i, b1i);
    const __m256d s1r = _mm256_sub_pd(a0r, b1r);
    const __m256d s1i = _mm256_sub_pd(a0i, b1i);
    const __m256d s2r = _mm256_add_pd(a2r, b3r);
    const __m256d s2i = _mm256_add_pd(a2i, b3i);
    const __m256d s3r = _mm256_sub_pd(a2r, b3r);
    const __m256d s3i = _mm256_sub_pd(a2i, b3i);
    const __m256d v0r = mul_re(s2r, s2i, w0r, w0i);
    const __m256d v0i = mul_im(s2r, s2i, w0r, w0i);
    const __m256d v1r = mul_re(s3r, s3i, w1r, w1i);
    const __m256d v1i = mul_im(s3r, s3i, w1r, w1i);
    store_transposed(out_re, _mm256_add_pd(s0r, v0r), _mm256_add_pd(s1r, v1r),
                     _mm256_sub_pd(s0r, v0r), _mm256_sub_pd(s1r, v1r), r);
    store_transposed(out_im, _mm256_add_pd(s0i, v0i), _mm256_add_pd(s1i, v1i),
                     _mm256_sub_pd(s0i, v0i), _mm256_sub_pd(s1i, v1i), r);
  }
  // Later stages: half >= 4, so every j-run is whole registers, and the
  // stage's twiddles are one contiguous plane.
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* tw_re = t.tw_re + half - 1;
    const double* tw_im = t.tw_im + half - 1;
    for (std::size_t base = 0; base < n; base += len) {
      double* ur = out_re + base;
      double* ui = out_im + base;
      double* xr = ur + half;
      double* xi = ui + half;
      for (std::size_t j = 0; j < half; j += 4) {
        const __m256d wr = _mm256_loadu_pd(tw_re + j);
        const __m256d wi = _mm256_xor_pd(_mm256_loadu_pd(tw_im + j), flip);
        const __m256d x_r = _mm256_loadu_pd(xr + j);
        const __m256d x_i = _mm256_loadu_pd(xi + j);
        const __m256d vr = mul_re(x_r, x_i, wr, wi);
        const __m256d vi = mul_im(x_r, x_i, wr, wi);
        const __m256d u_r = _mm256_loadu_pd(ur + j);
        const __m256d u_i = _mm256_loadu_pd(ui + j);
        _mm256_storeu_pd(ur + j, _mm256_add_pd(u_r, vr));
        _mm256_storeu_pd(ui + j, _mm256_add_pd(u_i, vi));
        _mm256_storeu_pd(xr + j, _mm256_sub_pd(u_r, vr));
        _mm256_storeu_pd(xi + j, _mm256_sub_pd(u_i, vi));
      }
    }
  }
}

void DotAxpyRowsAvx2(const double* rows, std::size_t num_rows,
                     std::size_t m, const double* u, double* out) {
  // Same row-order composition as the scalar backend: per-row 4-lane dot
  // (one AVX2 register = the four virtual lanes) followed by the elementwise
  // axpy while the row is hot in cache. No FMA anywhere.
  for (std::size_t r = 0; r < num_rows; ++r) {
    const double* x = rows + r * m;
    const double d = DotAvx2(x, u, m);
    AxpyAvx2(d, x, out, m);
  }
}

}  // namespace

const KernelTable* Avx2Kernels() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const KernelTable table = {
      "avx2",
      SumAvx2,
      SumSquaresAvx2,
      MeanVarAvx2,
      DotAvx2,
      SquaredEdAvx2,
      SquaredEdAbandonAvx2,
      LbKeoghSquaredAvx2,
      ComplexMulConjAvx2,
      MulConjUnpackAvx2,
      PeakScanAvx2,
      AxpyAvx2,
      ScaleAvx2,
      ApplyZNormAvx2,
      DtwRowAvx2,
      AbsProductPartialSumsAvx2,
      Radix2TransformAvx2,
      DotAxpyRowsAvx2,
  };
  return &table;
}

}  // namespace kshape::simd

#else  // !(__AVX2__ && __FMA__)

namespace kshape::simd {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace kshape::simd

#endif
