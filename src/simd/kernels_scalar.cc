// Portable reference backend. Every reduction walks the fixed 4-lane virtual
// accumulator explicitly (see KernelTable in kernels.h): lane l sums indices
// i ≡ l (mod 4), tails land in lane i mod 4, and the final combine is always
// (lane0 + lane1) + (lane2 + lane3). The vector backends realize the same
// arithmetic sequence with one register, which is what makes the backends
// bit-identical. This translation unit compiles with -ffp-contract=off and
// -fno-tree-vectorize (see src/simd/CMakeLists.txt): no fused multiply-adds,
// and benchmarks against it measure a true scalar baseline.

#include "simd/kernels.h"

#include <cmath>
#include <limits>

namespace kshape::simd {

namespace {

inline double Reduce4(const double acc[4]) {
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double SumScalar(const double* x, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += x[i];
    acc[1] += x[i + 1];
    acc[2] += x[i + 2];
    acc[3] += x[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += x[i];
  return Reduce4(acc);
}

double SumSquaresScalar(const double* x, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += x[i] * x[i];
    acc[1] += x[i + 1] * x[i + 1];
    acc[2] += x[i + 2] * x[i + 2];
    acc[3] += x[i + 3] * x[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += x[i] * x[i];
  return Reduce4(acc);
}

MeanVar MeanVarScalar(const double* x, std::size_t n) {
  MeanVar mv;
  mv.mean = SumScalar(x, n) / static_cast<double>(n);
  const double mu = mv.mean;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - mu;
    const double d1 = x[i + 1] - mu;
    const double d2 = x[i + 2] - mu;
    const double d3 = x[i + 3] - mu;
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - mu;
    acc[i & 3] += d * d;
  }
  mv.variance = Reduce4(acc) / static_cast<double>(n);
  return mv;
}

double DotScalar(const double* x, const double* y, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += x[i] * y[i];
    acc[1] += x[i + 1] * y[i + 1];
    acc[2] += x[i + 2] * y[i + 2];
    acc[3] += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += x[i] * y[i];
  return Reduce4(acc);
}

double SquaredEdScalar(const double* x, const double* y, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    acc[i & 3] += d * d;
  }
  return Reduce4(acc);
}

double SquaredEdAbandonScalar(const double* x, const double* y, std::size_t n,
                              double threshold) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  // Fixed 16-element checkpoint cadence shared by every backend: the running
  // 4-lane total is compared (not fed back), so an abandoning call returns
  // the identical partial sum regardless of backend.
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      const double d0 = x[i] - y[i];
      const double d1 = x[i + 1] - y[i + 1];
      const double d2 = x[i + 2] - y[i + 2];
      const double d3 = x[i + 3] - y[i + 3];
      acc[0] += d0 * d0;
      acc[1] += d1 * d1;
      acc[2] += d2 * d2;
      acc[3] += d3 * d3;
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
  }
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - y[i];
    const double d1 = x[i + 1] - y[i + 1];
    const double d2 = x[i + 2] - y[i + 2];
    const double d3 = x[i + 3] - y[i + 3];
    acc[0] += d0 * d0;
    acc[1] += d1 * d1;
    acc[2] += d2 * d2;
    acc[3] += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    acc[i & 3] += d * d;
  }
  return Reduce4(acc);
}

double LbKeoghSquaredScalar(const double* c, const double* lower,
                            const double* upper, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  // Per element: du = max(c-upper, 0), dl = max(lower-c, 0); exactly one of
  // the two squares is nonzero outside the envelope, both are +0 inside, so
  // acc += (du*du + dl*dl) adds the same value the branching legacy loop did.
  auto term = [&](std::size_t k) {
    double du = c[k] - upper[k];
    du = du > 0.0 ? du : 0.0;
    double dl = lower[k] - c[k];
    dl = dl > 0.0 ? dl : 0.0;
    return du * du + dl * dl;
  };
  for (; i + 4 <= n; i += 4) {
    acc[0] += term(i);
    acc[1] += term(i + 1);
    acc[2] += term(i + 2);
    acc[3] += term(i + 3);
  }
  for (; i < n; ++i) acc[i & 3] += term(i);
  return Reduce4(acc);
}

void ComplexMulConjScalar(const double* a, const double* b, double* out,
                          std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k];
    const double ai = a[2 * k + 1];
    const double br = b[2 * k];
    const double bi = b[2 * k + 1];
    out[2 * k] = ar * br + ai * bi;
    out[2 * k + 1] = ai * br - ar * bi;
  }
}

// One bin of the packed real-inverse unpack (the mul_conj_unpack contract):
// ck = (cr, ci), cmk = conj(C[h-k]) = (mr, -mi), w = (wr, wi). Spelled as
// the exact operation sequence std::complex<double> evaluates for
// `even + Complex(0, 1) * odd`, including the 0·a terms (they keep the sign
// of a zero exactly as std::complex does).
inline void UnpackBin(double cr, double ci, double mr, double mi, double wr,
                      double wi, double* zr, double* zi) {
  const double cmr = mr;
  const double cmi = -mi;
  const double er = 0.5 * (cr + cmr);
  const double ei = 0.5 * (ci + cmi);
  const double sr = 0.5 * (cr - cmr);
  const double si = 0.5 * (ci - cmi);
  const double twi = -wi;  // conj(w)
  const double odr = sr * wr - si * twi;
  const double odi = sr * twi + si * wr;
  *zr = er + (0.0 * odr - odi);
  *zi = ei + (0.0 * odi + odr);
}

void MulConjUnpackScalar(const double* x_re, const double* x_im,
                         const double* y_re, const double* y_im,
                         const double* tw_re, const double* tw_im,
                         std::size_t h, double* z_re, double* z_im) {
  const bool product = y_re != nullptr;
  // C[k] as (re, im); bins 0 and h only ever need their real part.
  const auto bin_re = [&](std::size_t k) {
    return product ? x_re[k] * y_re[k] + x_im[k] * y_im[k] : x_re[k];
  };
  const auto bin_im = [&](std::size_t k) {
    return product ? x_im[k] * y_re[k] - x_re[k] * y_im[k] : x_im[k];
  };
  UnpackBin(bin_re(0), 0.0, bin_re(h), 0.0, tw_re[0], tw_im[0], z_re, z_im);
  // Mirror pairs (k, h-k): each product is formed once and feeds both
  // outputs.
  for (std::size_t k = 1; 2 * k <= h; ++k) {
    const std::size_t mk = h - k;
    const double cr = bin_re(k), ci = bin_im(k);
    if (mk == k) {
      UnpackBin(cr, ci, cr, ci, tw_re[k], tw_im[k], z_re + k, z_im + k);
      continue;
    }
    const double mr = bin_re(mk), mi = bin_im(mk);
    UnpackBin(cr, ci, mr, mi, tw_re[k], tw_im[k], z_re + k, z_im + k);
    UnpackBin(mr, mi, cr, ci, tw_re[mk], tw_im[mk], z_re + mk, z_im + mk);
  }
}

void ForwardPackScalar(const double* x, std::size_t count, std::size_t h,
                       double* z_re, double* z_im) {
  for (std::size_t j = 0; j < h; ++j) {
    z_re[j] = 2 * j < count ? x[2 * j] : 0.0;
    z_im[j] = 2 * j + 1 < count ? x[2 * j + 1] : 0.0;
  }
}

// One bin of the packed real-forward unpack (the forward_unpack contract):
// zk = (zr, zi), zmk = conj(Z[h-k]) = (mr, -mi), w = (wr, wi), spelled as
// the std::complex operation sequence, 0·d terms included.
inline void ForwardBin(double zr, double zi, double mr, double mi, double wr,
                       double wi, double* xr, double* xi) {
  const double cmr = mr;
  const double cmi = -mi;
  const double er = (zr + cmr) * 0.5;
  const double ei = (zi + cmi) * 0.5;
  const double dr = zr - cmr;
  const double di = zi - cmi;
  const double odr = 0.0 * dr - (-0.5) * di;
  const double odi = 0.0 * di + (-0.5) * dr;
  *xr = er + (wr * odr - wi * odi);
  *xi = ei + (wr * odi + wi * odr);
}

void ForwardUnpackScalar(const double* t_re, const double* t_im,
                         const double* tw_re, const double* tw_im,
                         std::size_t h, double* out_re, double* out_im) {
  out_re[0] = t_re[0] + t_im[0];
  out_im[0] = 0.0;
  out_re[h] = t_re[0] - t_im[0];
  out_im[h] = 0.0;
  for (std::size_t k = 1; k < h; ++k) {
    ForwardBin(t_re[k], t_im[k], t_re[h - k], t_im[h - k], tw_re[k], tw_im[k],
               out_re + k, out_im + k);
  }
}

// best folded with the max of p[lo, hi). Max is exact, so the four
// independent chains (which hide the compare latency) give the value of a
// sequential fold.
inline double RangeMax(const double* p, std::size_t lo, std::size_t hi,
                       double best) {
  double b[4] = {best, best, best, best};
  std::size_t j = lo;
  for (; j + 4 <= hi; j += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      b[l] = p[j + l] > b[l] ? p[j + l] : b[l];
    }
  }
  for (; j < hi; ++j) b[0] = p[j] > b[0] ? p[j] : b[0];
  const double b01 = b[1] > b[0] ? b[1] : b[0];
  const double b23 = b[3] > b[2] ? b[3] : b[2];
  return b23 > b01 ? b23 : b01;
}

Peak PeakScanScalar(const double* x, std::size_t n) {
  // One pass, four lanes: lane l starts from its first element x[l] (index
  // l) and keeps the lowest index of its lane maximum under a strict-greater
  // scan; lanes past the end of a short input can never win the combine.
  // The result is the max and the first index holding it, the same as a
  // max pass then a search, without reading the buffer twice.
  double bv[4];
  std::size_t bi[4];
  const std::size_t lead = n < 4 ? n : 4;
  for (std::size_t l = 0; l < 4; ++l) {
    bv[l] = l < lead ? x[l] : -std::numeric_limits<double>::infinity();
    bi[l] = l < lead ? l : std::numeric_limits<std::size_t>::max();
  }
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      if (x[i + l] > bv[l]) {
        bv[l] = x[i + l];
        bi[l] = i + l;
      }
    }
  }
  for (; i < n; ++i) {
    const std::size_t l = i & 3;
    if (x[i] > bv[l]) {
      bv[l] = x[i];
      bi[l] = i;
    }
  }
  Peak peak{bv[0], bi[0]};
  for (std::size_t l = 1; l < 4; ++l) {
    if (bv[l] > peak.value ||
        (bv[l] == peak.value && bi[l] < peak.index)) {
      peak.value = bv[l];
      peak.index = bi[l];
    }
  }
  return peak;
}

// The first index in [lo, hi) of the interleaving time[2j] = re[j],
// time[2j+1] = im[j] whose scaled value time·scale equals target, or hi;
// *value receives that scaled value.
inline std::size_t FirstScaledMatch(const double* re, const double* im,
                                    std::size_t lo, std::size_t hi,
                                    double scale, double target,
                                    double* value) {
  std::size_t i = lo;
  if (i < hi && (i & 1) != 0) {
    *value = im[i / 2] * scale;
    if (*value == target) return i;
    ++i;
  }
  for (; i + 2 <= hi; i += 2) {
    const double r = re[i / 2] * scale;
    const double q = im[i / 2] * scale;
    if (r == target) {
      *value = r;
      return i;
    }
    if (q == target) {
      *value = q;
      return i + 1;
    }
  }
  if (i < hi) {
    *value = re[i / 2] * scale;
    if (*value == target) return i;
  }
  return hi;
}

Peak LagPeakScalar(const double* t_re, const double* t_im, std::size_t h,
                   std::size_t m, double scale) {
  const std::size_t n = 2 * h;
  const std::size_t a0 = n - (m - 1);  // Time index of cc[0], lag -(m-1).
  // Max pass over the raw valid values: time [0, m) and [a0, n), i.e. four
  // plane ranges.
  double best = t_re[0];
  best = RangeMax(t_re, 0, (m + 1) / 2, best);
  best = RangeMax(t_im, 0, m / 2, best);
  best = RangeMax(t_re, (a0 + 1) / 2, h, best);
  best = RangeMax(t_im, a0 / 2, h, best);
  const double target = best * scale;
  // Search pass in cc order: the negative lags, then lags 0..m-1.
  double value = 0.0;
  std::size_t i = FirstScaledMatch(t_re, t_im, a0, n, scale, target, &value);
  if (i < n) return Peak{value, i - a0};
  i = FirstScaledMatch(t_re, t_im, 0, m, scale, target, &value);
  if (i < m) return Peak{value, m - 1 + i};
  return Peak{t_re[0] * scale, m - 1};  // Unreachable for NaN-free input.
}

void AxpyScalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ScaleScalar(double* x, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

void ApplyZNormScalar(double* x, std::size_t n, double mean,
                      double inv_stddev) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] - mean) * inv_stddev;
}

void DtwRowScalar(const double* prev_jm1, const double* y_jm1, double xi,
                  double left_seed, double* cur, std::size_t count) {
  // Fused form of the banded recurrence; per element every operation is a
  // single rounding (or exact, for min), so the split precompute+combine the
  // vector backends use produces the identical row.
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

void MagnitudesScalar(const double* re, const double* im, std::size_t n,
                      double w, double* out) {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = std::sqrt(w * (re[k] * re[k] + im[k] * im[k]));
  }
}

double AbsProductPartialSumsScalar(const double* a_mag, const double* b_mag,
                                   const double* a_tail, const double* b_tail,
                                   std::size_t n, double threshold) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  // The squared_ed_abandon cadence: a horizontal reduce every 16 elements,
  // compared (never fed back), so both exits return the identical value in
  // every backend. Exit order is fixed by the KernelTable contract: the
  // cannot-abandon check first, then the Cauchy–Schwarz abandon bound.
  while (i + 16 <= n) {
    const std::size_t stop = i + 16;
    for (; i < stop; i += 4) {
      acc[0] += a_mag[i] * b_mag[i];
      acc[1] += a_mag[i + 1] * b_mag[i + 1];
      acc[2] += a_mag[i + 2] * b_mag[i + 2];
      acc[3] += a_mag[i + 3] * b_mag[i + 3];
    }
    const double total = Reduce4(acc);
    if (total >= threshold) return total;
    const double bound = total + a_tail[i / 16] * b_tail[i / 16];
    if (bound < threshold) return bound;
  }
  for (; i + 4 <= n; i += 4) {
    acc[0] += a_mag[i] * b_mag[i];
    acc[1] += a_mag[i + 1] * b_mag[i + 1];
    acc[2] += a_mag[i + 2] * b_mag[i + 2];
    acc[3] += a_mag[i + 3] * b_mag[i + 3];
  }
  for (; i < n; ++i) acc[i & 3] += a_mag[i] * b_mag[i];
  return Reduce4(acc);
}

void Radix2TransformScalar(const Radix2Tables& t, const double* in_re,
                           const double* in_im, double* out_re,
                           double* out_im, bool inverse) {
  const std::size_t n = t.n;
  if (n == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
    return;
  }
  const auto mul_re = [](double xr, double xi, double wr, double wi) {
    return xr * wr - xi * wi;
  };
  const auto mul_im = [](double xr, double xi, double wr, double wi) {
    return xr * wi + xi * wr;
  };
  // w0 is every stage's entry j = 0, (1, -0); the len-4 stage's j = 1
  // entry is w1.
  const double w0r = t.tw_re[0];
  const double w0i = inverse ? -t.tw_im[0] : t.tw_im[0];
  if (n == 2) {
    const double vr = mul_re(in_re[1], in_im[1], w0r, w0i);
    const double vi = mul_im(in_re[1], in_im[1], w0r, w0i);
    out_re[0] = in_re[0] + vr;
    out_im[0] = in_im[0] + vi;
    out_re[1] = in_re[0] - vr;
    out_im[1] = in_im[0] - vi;
    return;
  }
  // First pass: the bit-reversed gather plus the len-2 and len-4 stages of
  // one 4-point block per r (the AVX2 backend runs four r at once).
  const std::size_t q = n / 4;
  const double w1r = t.tw_re[2];
  const double w1i = inverse ? -t.tw_im[2] : t.tw_im[2];
  for (std::size_t r = 0; r < q; ++r) {
    const double a0r = in_re[r], a0i = in_im[r];
    const double a1r = in_re[r + 2 * q], a1i = in_im[r + 2 * q];
    const double a2r = in_re[r + q], a2i = in_im[r + q];
    const double a3r = in_re[r + 3 * q], a3i = in_im[r + 3 * q];
    const double b1r = mul_re(a1r, a1i, w0r, w0i);
    const double b1i = mul_im(a1r, a1i, w0r, w0i);
    const double b3r = mul_re(a3r, a3i, w0r, w0i);
    const double b3i = mul_im(a3r, a3i, w0r, w0i);
    const double s0r = a0r + b1r, s0i = a0i + b1i;
    const double s1r = a0r - b1r, s1i = a0i - b1i;
    const double s2r = a2r + b3r, s2i = a2i + b3i;
    const double s3r = a2r - b3r, s3i = a2i - b3i;
    const double v0r = mul_re(s2r, s2i, w0r, w0i);
    const double v0i = mul_im(s2r, s2i, w0r, w0i);
    const double v1r = mul_re(s3r, s3i, w1r, w1i);
    const double v1i = mul_im(s3r, s3i, w1r, w1i);
    const std::size_t o = 4 * t.quarter_rev[r];
    out_re[o] = s0r + v0r;
    out_im[o] = s0i + v0i;
    out_re[o + 1] = s1r + v1r;
    out_im[o + 1] = s1i + v1i;
    out_re[o + 2] = s0r - v0r;
    out_im[o + 2] = s0i - v0i;
    out_re[o + 3] = s1r - v1r;
    out_im[o + 3] = s1i - v1i;
  }
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* tw_re = t.tw_re + half - 1;
    const double* tw_im = t.tw_im + half - 1;
    for (std::size_t base = 0; base < n; base += len) {
      double* ur = out_re + base;
      double* ui = out_im + base;
      double* xr = ur + half;
      double* xi = ui + half;
      for (std::size_t j = 0; j < half; ++j) {
        const double wr = tw_re[j];
        const double wi = inverse ? -tw_im[j] : tw_im[j];
        const double vr = mul_re(xr[j], xi[j], wr, wi);
        const double vi = mul_im(xr[j], xi[j], wr, wi);
        const double u_r = ur[j];
        const double u_i = ui[j];
        ur[j] = u_r + vr;
        ui[j] = u_i + vi;
        xr[j] = u_r - vr;
        xi[j] = u_i - vi;
      }
    }
  }
}

void DotAxpyRowsScalar(const double* rows, std::size_t num_rows,
                       std::size_t m, const double* u, double* out) {
  // Composition of the dot and axpy kernels per row: the dot walks the fixed
  // 4-lane accumulator, the axpy is elementwise, and both touch the row while
  // it is hot in cache — the "fused" in the name is a locality fusion, not an
  // arithmetic one (the axpy needs the finished dot).
  for (std::size_t r = 0; r < num_rows; ++r) {
    const double* x = rows + r * m;
    const double d = DotScalar(x, u, m);
    AxpyScalar(d, x, out, m);
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      "scalar",
      SumScalar,
      SumSquaresScalar,
      MeanVarScalar,
      DotScalar,
      SquaredEdScalar,
      SquaredEdAbandonScalar,
      LbKeoghSquaredScalar,
      ComplexMulConjScalar,
      MulConjUnpackScalar,
      ForwardPackScalar,
      ForwardUnpackScalar,
      PeakScanScalar,
      LagPeakScalar,
      AxpyScalar,
      ScaleScalar,
      ApplyZNormScalar,
      DtwRowScalar,
      MagnitudesScalar,
      AbsProductPartialSumsScalar,
      Radix2TransformScalar,
      DotAxpyRowsScalar,
  };
  return table;
}

}  // namespace kshape::simd
