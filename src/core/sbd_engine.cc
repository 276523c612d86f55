#include "core/sbd_engine.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

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

// Bin k of one channel's spectrum, packed half or full complex, as (re, im).
std::pair<double, double> Bin(const fft::RfftView& v, std::size_t k) {
  return {v.re[k], v.im[k]};
}
std::pair<double, double> Bin(const std::vector<fft::Complex>& s,
                              std::size_t k) {
  return {s[k].real(), s[k].imag()};
}

// Fills one weighted magnitude plane, channel after channel: mag[c·B + k] =
// sqrt(w_k |X_c,k|^2) over the B packed bins of each of the C channels (w = 2
// on interior bins whose conjugate mirror was folded in, 1 on DC and — for
// even fft_len — Nyquist), then the checkpointed suffix norms over the whole
// concatenation, tail[t] = sqrt(Σ_{u >= 16t} mag[u]^2). Sequential per
// series, so the plane contents are a fixed arithmetic sequence regardless
// of thread count. `channel(c)` returns channel c's spectrum.
template <typename ChannelFn>
void FillBoundPlane(std::size_t fft_len, std::size_t channels,
                    ChannelFn channel, double* mag, double* tail) {
  const std::size_t bins = fft::RfftBins(fft_len);
  const std::size_t ntail = channels * bins / kBoundCheckpoint + 1;
  const bool has_nyquist = (fft_len % 2 == 0) && bins >= 2;
  for (std::size_t c = 0; c < channels; ++c) {
    const auto& spectrum = channel(c);
    for (std::size_t k = 0; k < bins; ++k) {
      const auto [br, bi] = Bin(spectrum, k);
      const double w = (k == 0 || (has_nyquist && k == bins - 1)) ? 1.0 : 2.0;
      mag[c * bins + k] = std::sqrt(w * (br * br + bi * bi));
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

// Lag-scan early abandoning (the inverse-transform-side sibling of the
// spectral NCC bound). Chunk cadence of the scan and the relative margin the
// stop rule keeps below the best-so-far: |cc[t]| <= sqrt(Σ_{u >= t} cc[u]^2),
// so once the remaining suffix energy certifies every unseen lag is strictly
// below the running peak, the rest of the buffer cannot change the result.
constexpr std::size_t kPeakChunk = 64;
constexpr double kPeakAbandonMargin = 1e-9;

// Process-wide lag telemetry (relaxed: counters only, no ordering needed).
std::atomic<long long> g_peak_lags_scanned{0};
std::atomic<long long> g_peak_lags_skipped{0};

// Peak of the cc lag buffer, abandoning the tail when the checkpointed
// suffix energies prove it cannot win. Bit-identical to simd::PeakScan(cc):
// a chunk is skipped only when sqrt(suffix) <= best·(1 - margin); summation
// rounding underestimates the suffix norm by far less than the margin, so
// every skipped lag is *strictly* below best — it can neither beat the value
// nor steal the lowest-index tie-break. The strict-greater chunk combine
// preserves the kernel's lowest-index-of-the-max contract across chunk
// boundaries. Gated on KSHAPE_PRUNE like every other bound-driven shortcut.
simd::Peak PeakScanWithAbandon(const std::vector<double>& cc) {
  const std::size_t n = cc.size();
  if (!PruningEnabled() || n <= kPeakChunk) {
    g_peak_lags_scanned.fetch_add(static_cast<long long>(n),
                                  std::memory_order_relaxed);
    return simd::PeakScan(cc);
  }
  // Checkpointed suffix energies: suffix[c] = Σ_{t >= 64c} cc[t]^2, built by
  // one backward pass (cheap next to the inverse transform that made cc).
  static thread_local std::vector<double> suffix;
  const std::size_t ntail = (n + kPeakChunk - 1) / kPeakChunk;
  suffix.resize(ntail);
  double energy = 0.0;
  for (std::size_t c = ntail; c-- > 0;) {
    const std::size_t lo = c * kPeakChunk;
    std::size_t t = c + 1 == ntail ? n : lo + kPeakChunk;
    for (; t > lo; --t) energy += cc[t - 1] * cc[t - 1];
    suffix[c] = energy;
  }
  simd::Peak best;
  best.value = -std::numeric_limits<double>::infinity();
  std::size_t c = 0;
  for (; c < ntail; ++c) {
    if (best.value > 0.0 &&
        std::sqrt(suffix[c]) <= best.value * (1.0 - kPeakAbandonMargin)) {
      break;
    }
    const std::size_t lo = c * kPeakChunk;
    const std::size_t hi = c + 1 == ntail ? n : lo + kPeakChunk;
    const simd::Peak p = simd::Active().peak_scan(cc.data() + lo, hi - lo);
    if (p.value > best.value) {
      best.value = p.value;
      best.index = lo + p.index;
    }
  }
  const std::size_t scanned = c == ntail ? n : c * kPeakChunk;
  g_peak_lags_scanned.fetch_add(static_cast<long long>(scanned),
                                std::memory_order_relaxed);
  g_peak_lags_skipped.fetch_add(static_cast<long long>(n - scanned),
                                std::memory_order_relaxed);
  return best;
}

// Peak of Σ_c cc_c, where `channel_cc(c, &cc)` fills channel c's lags (one
// inverse transform), summed lag by lag in channel order. The buffers are
// thread_local so concurrent per-pair evaluations never share them.
template <typename ChannelCc>
simd::Peak SummedPeak(std::size_t channels, const ChannelCc& channel_cc) {
  static thread_local std::vector<double> cc;
  channel_cc(0, &cc);
  if (channels == 1) return PeakScanWithAbandon(cc);
  static thread_local std::vector<double> total;
  total.assign(cc.begin(), cc.end());
  for (std::size_t c = 1; c < channels; ++c) {
    channel_cc(c, &cc);
    for (std::size_t t = 0; t < total.size(); ++t) total[t] += cc[t];
  }
  return PeakScanWithAbandon(total);
}

common::EnvGate g_pruning{"KSHAPE_PRUNE"};

}  // namespace

bool PruningEnabled() { return g_pruning.enabled(); }

void SetPruningEnabledForTesting(bool enabled) {
  g_pruning.SetForTesting(enabled);
}

PeakScanTelemetry PeakScanStats() {
  PeakScanTelemetry t;
  t.lags_scanned = g_peak_lags_scanned.load(std::memory_order_relaxed);
  t.lags_skipped = g_peak_lags_skipped.load(std::memory_order_relaxed);
  return t;
}

void ResetPeakScanStatsForTesting() {
  g_peak_lags_scanned.store(0, std::memory_order_relaxed);
  g_peak_lags_skipped.store(0, std::memory_order_relaxed);
}

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
              [&](std::size_t c) -> const auto& { return spectra_[slot + c]; },
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
          [&](std::size_t c) -> const auto& { return query.spectrum[c]; },
          query.mag.data(), query.tail.data());
    }
  }
  return query;
}

simd::Peak SbdEngine::RawPeak(std::size_t i, std::size_t j) const {
  return SummedPeak(channels_, [&](std::size_t c, std::vector<double>* cc) {
    const std::size_t x = i * channels_ + c, y = j * channels_ + c;
    if (half_) {
      fft::CrossCorrelationFromRfft(batch_->plan(), batch_->view(x),
                                    batch_->view(y), m_, cc);
    } else {
      fft::CrossCorrelationFromSpectra(spectra_[x], spectra_[y], m_, cc);
    }
  });
}

simd::Peak SbdEngine::RawPeak(const Query& q, std::size_t i) const {
  KSHAPE_CHECK_MSG(
      (half_ ? q.rspectrum.size() : q.spectrum.size()) == channels_,
      "query minted by a different engine configuration");
  return SummedPeak(channels_, [&](std::size_t c, std::vector<double>* cc) {
    const std::size_t y = i * channels_ + c;
    if (half_) {
      fft::CrossCorrelationFromRfft(batch_->plan(), q.rspectrum[c].view(),
                                    batch_->view(y), m_, cc);
    } else {
      fft::CrossCorrelationFromSpectra(q.spectrum[c], spectra_[y], m_, cc);
    }
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
  // expression rather than `1 - MaxNcc().value`: where FMA contraction is
  // allowed (-march=native), the rounded product could then fuse into the
  // subtraction at some call sites and not at others.
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
