#include "core/sbd_engine.h"

#include <cmath>

#include "common/check.h"
#include "common/env_gate.h"
#include "common/parallel.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"

namespace kshape::core {

namespace {

// Checkpoint cadence of the spectral-bound suffix arrays; must match the
// abs_product_partial_sums kernel contract (16 elements per band).
constexpr std::size_t kBoundCheckpoint = 16;

// The packed bins [0, fft_len/2] of a full-complex spectrum as split
// planes, in per-thread scratch that the next call overwrites.
fft::RfftView SplitBins(const std::vector<fft::Complex>& spectrum,
                        std::size_t fft_len) {
  static thread_local std::vector<double> planes;
  const std::size_t bins = fft::RfftBins(fft_len);
  planes.resize(2 * bins);
  for (std::size_t k = 0; k < bins; ++k) {
    planes[k] = spectrum[k].real();
    planes[bins + k] = spectrum[k].imag();
  }
  return fft::RfftView{fft_len, planes.data(), planes.data() + bins};
}

// Fills one weighted magnitude plane, channel after channel: mag[c·B + k] =
// sqrt(w_k |X_c,k|^2) over the B packed bins of each of the C channels (w = 2
// on interior bins whose conjugate mirror was folded in, 1 on DC and — for
// even fft_len — Nyquist; simd::magnitudes), then the checkpointed suffix
// norms over the whole concatenation, tail[t] = sqrt(Σ_{u >= 16t} mag[u]^2),
// one sequential chain. Sequential per series, so the plane contents are a
// fixed arithmetic sequence regardless of thread count. `channel(c)` returns
// channel c's packed bins.
template <typename ChannelFn>
void FillBoundPlane(std::size_t fft_len, std::size_t channels,
                    ChannelFn channel, double* mag, double* tail) {
  const simd::KernelTable& kernels = simd::Active();
  const std::size_t bins = fft::RfftBins(fft_len);
  const std::size_t ntail = channels * bins / kBoundCheckpoint + 1;
  const bool has_nyquist = (fft_len % 2 == 0) && bins >= 2;
  const std::size_t interior = bins - 1 - (has_nyquist ? 1 : 0);
  for (std::size_t c = 0; c < channels; ++c) {
    const fft::RfftView v = channel(c);
    double* out = mag + c * bins;
    kernels.magnitudes(v.re, v.im, 1, 1.0, out);
    kernels.magnitudes(v.re + 1, v.im + 1, interior, 2.0, out + 1);
    if (has_nyquist) {
      kernels.magnitudes(v.re + bins - 1, v.im + bins - 1, 1, 1.0,
                         out + bins - 1);
    }
  }
  double energy = 0.0;
  std::size_t u = channels * bins;
  for (std::size_t t = ntail; t-- > 0;) {
    const std::size_t lo = kBoundCheckpoint * t;
    for (; u > lo; --u) energy += mag[u - 1] * mag[u - 1];
    tail[t] = std::sqrt(energy);
  }
}

// Peak of Σ_c cc_c, where `channel_cc(c, &cc)` fills channel c's lags (one
// inverse transform), summed lag by lag in channel order: the lag-buffer
// path of the full-complex layout and of non-power-of-two packed lengths.
// The buffers are thread_local so concurrent per-pair evaluations never
// share them.
template <typename ChannelCc>
simd::Peak SummedPeak(std::size_t channels, const ChannelCc& channel_cc) {
  static thread_local std::vector<double> cc;
  channel_cc(0, &cc);
  if (channels == 1) return simd::PeakScan(cc);
  static thread_local std::vector<double> total;
  total.assign(cc.begin(), cc.end());
  for (std::size_t c = 1; c < channels; ++c) {
    channel_cc(c, &cc);
    for (std::size_t t = 0; t < total.size(); ++t) total[t] += cc[t];
  }
  return simd::PeakScan(total);
}

// Peak of the packed pair whose channel-c spectra are x(c) and y(c): read
// straight off the inverse planes on power-of-two lengths
// (fft::CrossCorrelationPeakFromRfft, no lag buffer), through SummedPeak
// otherwise.
template <typename XFn, typename YFn>
simd::Peak HalfSpectrumPeak(const fft::RfftPlan& plan, std::size_t channels,
                            std::size_t m, const XFn& x, const YFn& y) {
  if (!plan.packed()) {
    return SummedPeak(channels, [&](std::size_t c, std::vector<double>* cc) {
      fft::CrossCorrelationFromRfft(plan, x(c), y(c), m, cc);
    });
  }
  static thread_local std::vector<fft::RfftView> xs, ys;
  xs.resize(channels);
  ys.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    xs[c] = x(c);
    ys[c] = y(c);
  }
  return fft::CrossCorrelationPeakFromRfft(plan, xs, ys, m);
}

common::EnvGate g_pruning{"KSHAPE_PRUNE"};

}  // namespace

bool PruningEnabled() { return g_pruning.enabled(); }

void SetPruningEnabledForTesting(bool enabled) {
  g_pruning.SetForTesting(enabled);
}

PeakScanTelemetry PeakScanStats() { return PeakScanTelemetry{}; }

void ResetPeakScanStatsForTesting() {}

SbdEngine::SbdEngine(const tseries::SeriesBatch& series,
                     CrossCorrelationImpl impl, bool use_half_spectrum,
                     bool build_bound_planes, std::size_t channels) {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK_MSG(impl != CrossCorrelationImpl::kNaive,
                   "SbdEngine caches spectra; the naive path has none");
  KSHAPE_CHECK_MSG(channels >= 1 && series.length() % channels == 0,
                   "row length is not a whole number of channels");
  channels_ = channels;
  m_ = series.length() / channels;
  KSHAPE_CHECK(m_ >= 1);
  fft_len_ = impl == CrossCorrelationImpl::kFft
                 ? fft::NextPowerOfTwo(2 * m_ - 1)
                 : 2 * m_ - 1;
  half_ = use_half_spectrum;

  const std::size_t n = series.size();
  norms_.resize(n);
  if (half_) {
    // One plan lookup for the whole batch, one contiguous SoA pool for all
    // spectra: the pre-pass below only runs transforms into disjoint slots.
    batch_.emplace(n * channels_, fft_len_);
  } else {
    spectra_.resize(n * channels_);
  }
  if (build_bound_planes) {
    bound_bins_ = channels_ * fft::RfftBins(fft_len_);
    bound_tails_ = bound_bins_ / kBoundCheckpoint + 1;
    mags_.resize(n * bound_bins_);
    tails_.resize(n * bound_tails_);
  }
  // Deterministic pre-pass: each index writes only its own spectrum/norm
  // slots, and each per-channel FFT is a fixed arithmetic sequence, so the
  // cache contents are bit-identical at every thread count.
  common::ParallelFor(0, n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t slot = i * channels_;  // Channel 0 of series i.
      for (std::size_t c = 0; c < channels_; ++c) {
        const tseries::SeriesView channel = series[i].subspan(c * m_, m_);
        if (half_) {
          batch_->Transform(slot + c, channel);
        } else {
          spectra_[slot + c] = fft::Spectrum(channel, fft_len_);
        }
      }
      norms_[i] = linalg::Norm(series[i]);
      if (build_bound_planes) {
        double* mag = mags_.data() + i * bound_bins_;
        double* tail = tails_.data() + i * bound_tails_;
        if (half_) {
          FillBoundPlane(fft_len_, channels_,
                         [&](std::size_t c) { return batch_->view(slot + c); },
                         mag, tail);
        } else {
          FillBoundPlane(
              fft_len_, channels_,
              [&](std::size_t c) {
                return SplitBins(spectra_[slot + c], fft_len_);
              },
              mag, tail);
        }
      }
    }
  });
}

SbdEngine::Query SbdEngine::MakeQuery(tseries::SeriesView q) const {
  return MakeQueryFor(q, m_, fft_len_, half_, has_bound_planes(), channels_);
}

SbdEngine::Query SbdEngine::MakeQueryFor(tseries::SeriesView q, std::size_t m,
                                         std::size_t fft_len,
                                         bool use_half_spectrum,
                                         bool build_bound_planes,
                                         std::size_t channels) {
  KSHAPE_CHECK(m >= 1 && channels >= 1);
  KSHAPE_CHECK_MSG(q.size() == channels * m, "query length mismatch");
  KSHAPE_CHECK(fft_len >= 2 * m - 1);
  Query query;
  for (std::size_t c = 0; c < channels; ++c) {
    const tseries::SeriesView channel = q.subspan(c * m, m);
    if (use_half_spectrum) {
      query.rspectrum.push_back(fft::RfftForward(channel, fft_len));
    } else {
      query.spectrum.push_back(fft::Spectrum(channel, fft_len));
    }
  }
  query.norm = linalg::Norm(q);
  if (build_bound_planes) {
    // Same derived plane geometry as the engine constructor.
    const std::size_t bins = channels * fft::RfftBins(fft_len);
    query.mag.resize(bins);
    query.tail.resize(bins / kBoundCheckpoint + 1);
    if (use_half_spectrum) {
      FillBoundPlane(
          fft_len, channels,
          [&](std::size_t c) { return query.rspectrum[c].view(); },
          query.mag.data(), query.tail.data());
    } else {
      FillBoundPlane(
          fft_len, channels,
          [&](std::size_t c) { return SplitBins(query.spectrum[c], fft_len); },
          query.mag.data(), query.tail.data());
    }
  }
  return query;
}

simd::Peak SbdEngine::RawPeak(std::size_t i, std::size_t j) const {
  if (half_) {
    return HalfSpectrumPeak(
        batch_->plan(), channels_, m_,
        [&](std::size_t c) { return batch_->view(i * channels_ + c); },
        [&](std::size_t c) { return batch_->view(j * channels_ + c); });
  }
  return SummedPeak(channels_, [&](std::size_t c, std::vector<double>* cc) {
    fft::CrossCorrelationFromSpectra(spectra_[i * channels_ + c],
                                     spectra_[j * channels_ + c], m_, cc);
  });
}

simd::Peak SbdEngine::RawPeak(const Query& q, std::size_t i) const {
  KSHAPE_CHECK_MSG(
      (half_ ? q.rspectrum.size() : q.spectrum.size()) == channels_,
      "query minted by a different engine configuration");
  if (half_) {
    return HalfSpectrumPeak(
        batch_->plan(), channels_, m_,
        [&](std::size_t c) { return q.rspectrum[c].view(); },
        [&](std::size_t c) { return batch_->view(i * channels_ + c); });
  }
  return SummedPeak(channels_, [&](std::size_t c, std::vector<double>* cc) {
    fft::CrossCorrelationFromSpectra(q.spectrum[c],
                                     spectra_[i * channels_ + c], m_, cc);
  });
}

double SbdEngine::Distance(std::size_t i, std::size_t j) const {
  KSHAPE_CHECK(i < size() && j < size());
  const double den = norms_[i] * norms_[j];
  if (den == 0.0) return 1.0;
  return 1.0 - RawPeak(i, j).value * (1.0 / den);
}

double SbdEngine::Distance(const Query& q, std::size_t i, int* shift) const {
  KSHAPE_CHECK(i < size());
  const double den = q.norm * norms_[i];
  if (den == 0.0) {
    if (shift != nullptr) *shift = ShiftOf(0);  // MaxNcc's zero-norm peak.
    return 1.0;
  }
  // The peak MaxNcc reports, read as a distance. `1 - raw·(1/den)` stays one
  // expression rather than `1 - MaxNcc().value`, with the product rounded
  // before the subtraction in every build: this TU compiles with
  // -ffp-contract=off, so -march=native cannot fuse it.
  const simd::Peak raw = RawPeak(q, i);
  if (shift != nullptr) *shift = ShiftOf(raw.index);
  return 1.0 - raw.value * (1.0 / den);
}

NccPeak SbdEngine::MaxNcc(const Query& q, std::size_t i) const {
  KSHAPE_CHECK(i < size());
  NccPeak peak;
  const double den = q.norm * norms_[i];
  if (den == 0.0) {
    // Mirror MaxNcc over the all-zero NCCc sequence: value 0 at index 0.
    peak.value = 0.0;
    peak.shift = ShiftOf(0);
    return peak;
  }
  const simd::Peak raw = RawPeak(q, i);
  peak.value = raw.value * (1.0 / den);
  peak.shift = ShiftOf(raw.index);
  return peak;
}

void SbdEngine::DistanceToAll(const Query& q, std::vector<double>* out) const {
  const std::size_t n = size();
  out->resize(n);
  common::ParallelFor(0, n, 16, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      (*out)[i] = Distance(q, i);
    }
  });
}

std::vector<double> SbdEngine::DistanceToAll(tseries::SeriesView query) const {
  std::vector<double> out;
  DistanceToAll(MakeQuery(query), &out);
  return out;
}

double SbdEngine::NccUpperBound(const Query& q, std::size_t i) const {
  KSHAPE_CHECK(i < size());
  KSHAPE_CHECK_MSG(has_bound_planes() && !q.mag.empty(),
                   "spectral bound requires bound planes on engine and query");
  const double den = q.norm * norms_[i];
  if (den == 0.0) return 0.0;
  const double s =
      simd::Active().dot(q.mag.data(), mags_.data() + i * bound_bins_,
                         bound_bins_);
  return s / (static_cast<double>(fft_len_) * den);
}

double SbdEngine::DistanceWithAbandon(const Query& q, std::size_t i,
                                      double cutoff, bool* abandoned,
                                      int* shift) const {
  KSHAPE_CHECK(i < size());
  KSHAPE_CHECK_MSG(has_bound_planes() == !q.mag.empty(),
                   "bound planes on only one of engine and query");
  *abandoned = false;
  const double den = q.norm * norms_[i];
  // No planes: the exact distance. Zero norm: exactly 1, no bound.
  if (!has_bound_planes() || den == 0.0) return Distance(q, i, shift);
  // SBD > cutoff  ⟺  peak NCC < 1 - cutoff  ⟸  Σ w|Q||X| < (1-cutoff)·N·den.
  const double n_den = static_cast<double>(fft_len_) * den;
  const double threshold = (1.0 - cutoff) * n_den;
  const double s = simd::Active().abs_product_partial_sums(
      q.mag.data(), mags_.data() + i * bound_bins_, q.tail.data(),
      tails_.data() + i * bound_tails_, bound_bins_, threshold);
  if (s < threshold) {
    // s is an upper bound on the full magnitude sum, so 1 - s/(N·den) is a
    // valid lower bound on the distance, and it exceeds cutoff.
    *abandoned = true;
    return 1.0 - s / n_den;
  }
  return Distance(q, i, shift);
}

void SbdEngine::PairwiseFlat(std::vector<double>* flat) const {
  const std::size_t n = size();
  flat->assign(n * n, 0.0);
  // Same disjoint-write row pattern (and therefore the same bitwise
  // thread-count invariance) as the generic PairwiseDistanceMatrix builder.
  common::ParallelFor(0, n, 1, [&](std::size_t row_begin,
                                   std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dist = Distance(i, j);
        (*flat)[i * n + j] = dist;
        (*flat)[j * n + i] = dist;
      }
    }
  });
}

}  // namespace kshape::core
