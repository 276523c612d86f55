#ifndef KSHAPE_FFT_RFFT_H_
#define KSHAPE_FFT_RFFT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "fft/fft.h"
#include "simd/kernels.h"

namespace kshape::fft {

// ---------------------------------------------------------------------------
// Half-spectrum (real-input) transforms.
//
// The DFT of a real sequence is conjugate-symmetric: X[n-k] = conj(X[k]), so
// bins (n/2, n) carry no information. The types below store only the packed
// half spectrum — bins [0, n/2], i.e. n/2 + 1 complex values — laid out SoA
// (separate re/im planes), the layout of the split-plane transform, so the
// SBD path's multiply-conjugate product is formed in registers inside the
// fused simd::mul_conj_unpack kernel, shuffle-free, and never written out.
// Versus the full complex spectrum (n complex = 16n bytes) the packed form
// is 8n + 16 bytes: the SBD spectrum cache memory halves.
//
// Padded-length convention (shared with Spectrum / CrossCorrelationFromSpectra
// — see fft.h): a cross-correlation of two length-m series needs a transform
// length fft_len >= 2m-1. The kFft implementation uses
// NextPowerOfTwo(2m-1); kFftNoPow2 uses exactly 2m-1 (always odd, served by
// Bluestein). Series are zero-padded to fft_len, never truncated, and a
// cached spectrum is ONLY comparable to another spectrum of the same fft_len.
// RfftSpectrum records its fft_len so mixed-length products fail loudly
// instead of silently disagreeing between cached and uncached paths.
// ---------------------------------------------------------------------------

/// Number of packed half-spectrum bins for an n-point real transform.
constexpr std::size_t RfftBins(std::size_t n) { return n / 2 + 1; }

struct RfftView;

/// A precomputed real-input transform plan for one size n.
///
/// For power-of-two n >= 2 the forward transform packs the even/odd samples
/// into one complex sequence of length n/2, runs the cached half-size
/// Radix2Plan, and unpacks with n/2 + 1 precomputed twiddles — roughly half
/// the work (and half the working set) of an n-point complex transform. The
/// inverse reverses the packing exactly: one fused unpack pass, one
/// half-size split transform, and one output pass that interleaves and
/// applies the exact 1/(n/2) scale. Other lengths (Bluestein, including
/// the odd 2m-1 of the NoPow2 ablation) fall back to a full complex transform
/// and pack/reconstruct the half spectrum around it: the memory saving is
/// kept, the arithmetic saving is not. Plans are immutable and safe to share;
/// transform scratch is per-thread.
class RfftPlan {
 public:
  /// Builds a plan for `n`-point real transforms. Requires n >= 1.
  explicit RfftPlan(std::size_t n);

  /// Forward R2C transform: the n-point DFT of x zero-padded to n (requires
  /// x.size() <= n — pads, never truncates, like Spectrum). Writes the packed
  /// half spectrum, bins() values each, into out_re / out_im.
  void Forward(std::span<const double> x, double* out_re,
               double* out_im) const;

  /// Inverse C2R transform, including the 1/n scaling: reconstructs the n
  /// real samples from a packed half spectrum (bins() values in re / im,
  /// bins 0 and n/2 are treated as real — their imaginary parts ignored).
  /// Writes n values into `out`.
  void Inverse(const double* re, const double* im, double* out) const;

  /// The transform size.
  std::size_t n() const { return n_; }

  /// Packed half-spectrum bin count, n/2 + 1.
  std::size_t bins() const { return RfftBins(n_); }

  /// True for power-of-two n >= 2, the even/odd packing path (the only
  /// plans CrossCorrelationPeakFromRfft accepts).
  bool packed() const { return packed_; }

 private:
  friend void CrossCorrelationFromRfft(const RfftPlan& plan,
                                       const RfftView& x, const RfftView& y,
                                       std::size_t m, std::vector<double>* cc);
  friend simd::Peak CrossCorrelationPeakFromRfft(const RfftPlan& plan,
                                                 std::span<const RfftView> x,
                                                 std::span<const RfftView> y,
                                                 std::size_t m);

  // The packed inverse short of its output pass: the fused
  // simd::mul_conj_unpack of X·conj(Y) (of X alone when y_re is null) into
  // the half-size spectrum z, then the unscaled half-size inverse transform
  // of z into t. Every plane holds n/2 values; requires packed_.
  void HalfInverse(const double* x_re, const double* x_im,
                   const double* y_re, const double* y_im, double* z_re,
                   double* z_im, double* t_re, double* t_im) const;

  std::size_t n_;
  bool packed_;                  // power-of-two n >= 2: even/odd packing path
  const Radix2Plan* half_plan_;  // GetPlan(n/2) when packed_
  // e^{-2*pi*i*k/n}, k in [0, n/2], as split planes.
  std::vector<double> tw_re_;
  std::vector<double> tw_im_;
};

/// Returns a cached plan for size `n` (same never-destroyed, mutex-guarded
/// cache discipline as GetPlan).
const RfftPlan& GetRfftPlan(std::size_t n);

/// Non-owning SoA view of one packed half spectrum: bins() doubles behind
/// each of `re` and `im`.
struct RfftView {
  std::size_t fft_len = 0;
  const double* re = nullptr;
  const double* im = nullptr;

  std::size_t bins() const { return RfftBins(fft_len); }
};

/// Owning packed half spectrum of one real series.
struct RfftSpectrum {
  std::size_t fft_len = 0;
  std::vector<double> re;
  std::vector<double> im;

  std::size_t bins() const { return RfftBins(fft_len); }
  RfftView view() const { return RfftView{fft_len, re.data(), im.data()}; }
};

/// Half-spectrum counterpart of Spectrum: the fft_len-point DFT of x
/// zero-padded to fft_len, packed to bins [0, fft_len/2]. Same padded-length
/// convention: requires x.size() <= fft_len.
RfftSpectrum RfftForward(std::span<const double> x, std::size_t fft_len);

/// A contiguous SoA pool of packed half spectra for `count` same-length
/// series: one plan lookup at construction amortized over every transform,
/// and all re planes (then all im planes) contiguous so batch scans walk the
/// pool linearly. Slots are disjoint, so concurrent Transform calls on
/// distinct `i` from a ParallelFor are safe; the filled pool is immutable
/// through view().
class BatchSpectra {
 public:
  BatchSpectra(std::size_t count, std::size_t fft_len);

  /// Fills slot `i` with the packed half spectrum of x (zero-padded to
  /// fft_len; requires x.size() <= fft_len).
  void Transform(std::size_t i, std::span<const double> x);

  /// View of slot `i`.
  RfftView view(std::size_t i) const;

  std::size_t count() const { return count_; }
  std::size_t fft_len() const { return fft_len_; }
  const RfftPlan& plan() const { return *plan_; }

 private:
  std::size_t count_;
  std::size_t fft_len_;
  std::size_t bins_;
  const RfftPlan* plan_;
  std::vector<double> re_;  // count_ * bins_
  std::vector<double> im_;  // count_ * bins_
};

/// Half-spectrum counterpart of CrossCorrelationFromSpectra: forms
/// C[k] = X[k] * conj(Y[k]) over the packed bins, runs ONE inverse real
/// transform, and fills `cc` with the identical 2m-1 lag layout. Requires
/// both views to share fft_len >= 2m-1. On power-of-two fft_len the product
/// lives only in registers (the fused simd::mul_conj_unpack), and the real
/// inverse's interleave, 1/(n/2) scale and lag reorder are one write of cc
/// from two contiguous ranges of the time buffer; the result is bitwise the
/// product-then-inverse-then-copy sequence (tests/rfft_test.cc's oracle).
///
/// Equivalence contract (mirrors the full-spectrum one): on power-of-two
/// fft_len the half path computes the same mathematical quantity with a
/// different rounding sequence, so it matches the full-complex paths to a
/// tight epsilon, not bitwise. Within the half path itself the arithmetic is
/// fixed per (spectra, m): repeated evaluations are bit-identical across
/// backends (the kernels are elementwise per output) and thread counts
/// (scratch is per-thread).
void CrossCorrelationFromRfft(const RfftView& x, const RfftView& y,
                              std::size_t m, std::vector<double>* cc);

/// Same, with the plan supplied by the caller so batch drivers (SbdEngine,
/// the classify scanners) pay the mutex-guarded plan-cache lookup once per
/// batch instead of once per pair. Requires plan.n() == x.fft_len.
void CrossCorrelationFromRfft(const RfftPlan& plan, const RfftView& x,
                              const RfftView& y, std::size_t m,
                              std::vector<double>* cc);

/// The peak of the channel-summed cross-correlation Σ_c cc(x[c], y[c]),
/// with no lag buffer: per channel the fused product-unpack and ONE
/// half-size inverse transform, then simd::lag_peak reads the 2m-1 valid
/// lags straight off the inverse planes (the circular gap between them is
/// never read). For C = x.size() > 1 the planes, each scaled by the exact
/// 1/(n/2), are summed in channel order first, so every lag carries the
/// arithmetic of summing CrossCorrelationFromRfft buffers lag by lag. The
/// result — value and index in cc order — is bitwise simd::PeakScan of
/// that sum (tests/rfft_test.cc's oracle). Requires plan.packed(), x and y
/// of one size C >= 1 with every view at fft_len plan.n() >= 2m-1, and
/// finite spectra.
simd::Peak CrossCorrelationPeakFromRfft(const RfftPlan& plan,
                                        std::span<const RfftView> x,
                                        std::span<const RfftView> y,
                                        std::size_t m);

/// Direct-path counterpart of CrossCorrelationFft: two forward half-spectrum
/// transforms at NextPowerOfTwo(2m-1), then CrossCorrelationFromRfft. Same
/// lag layout and padded-length convention.
std::vector<double> RfftCrossCorrelation(std::span<const double> x,
                                         std::span<const double> y);

/// Process-wide half-spectrum gate, resolved once on first use from the
/// KSHAPE_HALF_SPECTRUM environment variable: "off" disables the half path
/// (every consumer falls back to full complex spectra), "on" or unset enables
/// it, anything else aborts. It is the only switch of the k-Shape fit, Predict
/// and the classify scanners, which all build their SbdEngines from it; an
/// SbdEngine built directly takes the layout as a constructor argument that
/// defaults to this gate.
bool HalfSpectrumEnabled();

/// Replaces the gate for the rest of the process (tests comparing the two
/// paths in one run). Call from a single thread, between parallel regions.
void SetHalfSpectrumEnabledForTesting(bool enabled);

}  // namespace kshape::fft

#endif  // KSHAPE_FFT_RFFT_H_
