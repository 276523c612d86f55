#ifndef KSHAPE_SIMD_KERNELS_H_
#define KSHAPE_SIMD_KERNELS_H_

#include <cstddef>

namespace kshape::simd {

/// Fused mean + population variance of one pass pair over a buffer.
struct MeanVar {
  double mean = 0.0;
  double variance = 0.0;
};

/// Maximum value and the lowest index attaining it (strict-greater scan).
struct Peak {
  double value = 0.0;
  std::size_t index = 0;
};

/// The precomputed tables of one n-point split-plane radix-2 transform
/// (owned by fft::Radix2Plan; the kernel only reads them).
struct Radix2Tables {
  /// Transform size, a power of two >= 1.
  std::size_t n = 0;
  /// Per-stage twiddle planes for len = 2, 4, ..., n: stage len holds
  /// w[j] = e^{-2πij/len} (the n-point table's entry j·n/len) for
  /// j in [0, len/2), starting at offset len/2 - 1. n - 1 entries each.
  const double* tw_re = nullptr;
  const double* tw_im = nullptr;
  /// For n >= 4: r -> the bit reversal of r over log2(n) - 2 bits, for
  /// r in [0, n/4). The first pass reads the four inputs r + {0, n/2, n/4,
  /// 3n/4} and writes outputs 4·quarter_rev[r] + {0, 1, 2, 3}.
  const std::size_t* quarter_rev = nullptr;
};

/// One vectorized-kernel backend. Every reduction kernel accumulates into a
/// **fixed 4-lane virtual accumulator**: lane `l` sums the terms at indices
/// `i ≡ l (mod 4)` in increasing order, tail elements land in lane `i mod 4`,
/// and the final reduction is always `(lane0 + lane1) + (lane2 + lane3)`.
/// One AVX2 register holds exactly four doubles, so the vector backend
/// realizes the same arithmetic sequence the scalar backend walks explicitly —
/// which is what makes results **bit-identical** across backends (and, with
/// the disjoint-write parallel patterns, across thread counts). Fused
/// multiply-add is never used: every product and sum is rounded separately in
/// every backend (the kernel translation units compile with
/// `-ffp-contract=off` so the compiler cannot fuse behind our back).
///
/// Elementwise kernels (axpy, scale, apply_znorm, complex_mul_conj,
/// mul_conj_unpack, dtw_row) and the radix2_transform butterflies have no
/// cross-element reduction, so their per-element rounding sequence is
/// identical by construction.
struct KernelTable {
  /// Backend name for logs/benchmarks ("scalar", "avx2").
  const char* name;

  /// Σ x[i].
  double (*sum)(const double* x, std::size_t n);

  /// Σ x[i]^2.
  double (*sum_squares)(const double* x, std::size_t n);

  /// Fused z-normalization statistics: mean = Σx/n in one pass, then
  /// variance = Σ(x-mean)^2/n in a second pass over the same buffer.
  /// Requires n >= 1.
  MeanVar (*mean_var)(const double* x, std::size_t n);

  /// Σ x[i]*y[i].
  double (*dot)(const double* x, const double* y, std::size_t n);

  /// Σ (x[i]-y[i])^2.
  double (*squared_ed)(const double* x, const double* y, std::size_t n);

  /// Early-abandoning squared ED: accumulates like squared_ed but checks the
  /// running total against `threshold` every 16 elements (the same fixed
  /// cadence in every backend). Returns the full sum if it stayed below the
  /// threshold at every checkpoint, otherwise the partial sum at the
  /// abandoning checkpoint (which is >= threshold). Callers must treat any
  /// return >= threshold as "abandoned".
  double (*squared_ed_abandon)(const double* x, const double* y,
                               std::size_t n, double threshold);

  /// Σ of squared envelope violations: (c[i]-upper[i])^2 where c > upper,
  /// (lower[i]-c[i])^2 where c < lower, 0 inside the envelope. The square of
  /// LB_Keogh.
  double (*lb_keogh_squared)(const double* c, const double* lower,
                             const double* upper, std::size_t n);

  /// out[k] = a[k] * conj(b[k]) over n interleaved (re, im) complex doubles:
  /// re = a_re*b_re + a_im*b_im, im = a_im*b_re - a_re*b_im, each product
  /// rounded separately. `out` may not alias `a` or `b`.
  void (*complex_mul_conj)(const double* a, const double* b, double* out,
                           std::size_t n);

  /// The packed real-inverse unpack, fused with the cross-spectrum product.
  /// Reads the h + 1 packed bins C[0..h] of an n = 2h point real spectrum,
  ///   C[k] = X[k]·conj(Y[k])   when y_re is non-null: re = xr*yr + xi*yi,
  ///                            im = xi*yr - xr*yi (complex_mul_conj's
  ///                            arithmetic), formed in registers;
  ///   C[k] = X[k]              when y_re is null (y_im is then ignored);
  /// with bins 0 and h read as real (imaginary parts taken as +0). Writes
  /// the half-size spectrum z[0..h) whose h-point inverse is the real
  /// inverse: for k in [0, h), with ck = C[k], cmk = conj(C[h-k]) and
  /// w = (tw_re[k], tw_im[k]) = e^{-2πik/n},
  ///   even = 0.5·(ck + cmk),  s = 0.5·(ck - cmk),
  ///   odd  = s·conj(w)        (re = sr*wr - si*(-wi), im = sr*(-wi) + si*wr),
  ///   z[k] = even + (0 + 1i)·odd = (er + (0*or - oi), ei + (0*oi + or)),
  /// which is the operation sequence std::complex<double> evaluates for
  /// the same expressions — so z is bitwise the unfused std::complex unpack
  /// of the complex_mul_conj product for finite inputs. Output planes may not
  /// alias the inputs.
  void (*mul_conj_unpack)(const double* x_re, const double* x_im,
                          const double* y_re, const double* y_im,
                          const double* tw_re, const double* tw_im,
                          std::size_t h, double* z_re, double* z_im);

  /// Max + lowest-index argmax under a strict-greater scan (ties keep the
  /// earliest index, matching a sequential `if (x[i] > best)` loop exactly).
  /// Requires n >= 1.
  Peak (*peak_scan)(const double* x, std::size_t n);

  /// y[i] += a * x[i].
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// x[i] *= s.
  void (*scale)(double* x, double s, std::size_t n);

  /// x[i] = (x[i] - mean) * inv_stddev (the z-normalization apply pass).
  void (*apply_znorm)(double* x, std::size_t n, double mean,
                      double inv_stddev);

  /// One banded-DTW row combine. For t in [0, count):
  ///   cost   = (xi - y_jm1[t])^2
  ///   e      = min(prev_jm1[t], prev_jm1[t+1])
  ///   cur[t] = cost + min(e, cur[t-1])   with cur[-1] = left_seed.
  /// `prev_jm1`/`y_jm1` point at the j_lo-1 positions of the previous DP row
  /// and the y series; `cur` points at the j_lo position of the current row.
  /// The cur[t-1] recurrence is inherently serial; backends vectorize the
  /// cost/e precomputation and share the identical serial combine.
  void (*dtw_row)(const double* prev_jm1, const double* y_jm1, double xi,
                  double left_seed, double* cur, std::size_t count);

  /// Early-abandoning Σ a_mag[k]*b_mag[k] over nonnegative magnitude planes,
  /// with Cauchy–Schwarz tail bounds at the squared_ed_abandon checkpoint
  /// cadence. `a_tail`/`b_tail` hold per-checkpoint suffix norms:
  /// tail[c] >= sqrt(Σ_{k >= 16c} mag[k]^2), arrays of length
  /// floor(n/16) + 1. After each completed 16-element block (i = 16c
  /// elements consumed, c >= 1) the running 4-lane total S is reduced and,
  /// in this fixed order in every backend:
  ///   1. if S >= threshold, return S   (the true sum is >= S — terms are
  ///      nonnegative — so the caller can never abandon this candidate);
  ///   2. bound = S + a_tail[c]*b_tail[c] (one mul, one add, each rounded
  ///      separately); if bound < threshold, return bound (the true sum is
  ///      <= bound by Cauchy–Schwarz on the remaining suffix — abandon).
  /// If neither exit fires the kernel runs to completion and returns the
  /// exact dot product. Contract for callers: the candidate may be
  /// abandoned iff the returned value is < threshold; any return >=
  /// threshold proves nothing beyond "not abandonable at this threshold".
  double (*abs_product_partial_sums)(const double* a_mag, const double* b_mag,
                                     const double* a_tail,
                                     const double* b_tail, std::size_t n,
                                     double threshold);

  /// One whole n-point radix-2 decimation-in-time DFT over split re/im
  /// planes, unscaled, out of place (`out` may not alias `in`). The first
  /// pass reads `in` at bit-reversed positions and runs the len-2 and len-4
  /// stages in registers; every later stage (len = 8, ..., n) is one
  /// in-place pass over `out`. Per butterfly, with u the low and x the high
  /// element of a pair and w the stage plane's entry j (imaginary part
  /// negated when `inverse`):
  ///   v = x·w: vr = xr*wr - xi*wi, vi = xr*wi + xi*wr (every product
  ///   rounded separately, no FMA), then (u + v, u - v).
  /// The len-2 stage multiplies by its w = (1, -0) too, so zeros keep the
  /// signs the classic butterfly gives them. This is the classic
  /// bit-reversal-then-interleaved-butterflies transform with the same
  /// rounding sequence per element, so backends (and the classic transform)
  /// agree bitwise for finite inputs. The caller applies any 1/n scale.
  void (*radix2_transform)(const Radix2Tables& tables, const double* in_re,
                           const double* in_im, double* out_re,
                           double* out_im, bool inverse);

  /// Fused member pass of the matrix-free shape-extraction matvec. For each
  /// row r in [0, num_rows) of the contiguous row-major pool `rows` (row r
  /// at rows + r*m), in increasing r:
  ///   d      = Σ_j rows[r*m+j] * u[j]   (the fixed 4-lane dot contract)
  ///   out[j] += d * rows[r*m+j]          (the elementwise axpy contract)
  /// Each row's axpy completes before the next row's dot, so the per-element
  /// accumulation order over rows is the plain sequential row order — one
  /// rounding per (row, element) pair, identical in every backend. `out` is
  /// accumulated into, not overwritten; `out` and `u` may not alias `rows`.
  void (*dot_axpy_rows)(const double* rows, std::size_t num_rows,
                        std::size_t m, const double* u, double* out);
};

/// The portable reference backend (plain C++, compiled without
/// auto-vectorization so benchmarks measure a true scalar baseline).
const KernelTable& ScalarKernels();

/// The x86 AVX2+FMA backend, or nullptr when the binary was built without it
/// or the CPU lacks AVX2/FMA. (FMA presence is part of the dispatch gate even
/// though the kernels never fuse — it keeps the backend set predictable on
/// every AVX2-era machine.)
const KernelTable* Avx2Kernels();

}  // namespace kshape::simd

#endif  // KSHAPE_SIMD_KERNELS_H_
