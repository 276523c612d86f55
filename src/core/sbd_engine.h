#ifndef KSHAPE_CORE_SBD_ENGINE_H_
#define KSHAPE_CORE_SBD_ENGINE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "core/sbd.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "simd/kernels.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// Process-wide pruning gate, resolved once on first use from the
/// KSHAPE_PRUNE environment variable: "off" disables every bound-driven
/// shortcut (Hamerly-style assignment pruning, the ++ seeding triangle test
/// and spectral early-abandon NCC — all consumers fall back to exhaustive
/// exact scans), "on" or unset enables them, anything else aborts. It is
/// the only pruning switch: the k-Shape fit (its ++ seeding scan and its
/// assignment), Predict, OnlineScorer and the SBD classify scanner all read
/// it, so off forces the exhaustive exact scans everywhere. The NCC peak
/// scan itself never reads it: every computed distance walks all 2m-1 lags.
bool PruningEnabled();

/// Replaces the gate for the rest of the process (tests comparing pruned and
/// exact paths in one run). Call from a single thread, between parallel
/// regions.
void SetPruningEnabledForTesting(bool enabled);

/// Telemetry of the retired lag-scan early abandon. The NCC peak scan now
/// walks every lag (a suffix-energy pass cost more than the scan it
/// shortened), so both counters read 0 by construction. The type and the
/// two functions stay only because the end-to-end benchmark still reads
/// them for `sbd.lags_skipped_ratio` (which reads 0); they go with the next
/// benchmark change.
struct PeakScanTelemetry {
  long long lags_scanned = 0;
  long long lags_skipped = 0;
};
PeakScanTelemetry PeakScanStats();

/// No-op (see PeakScanTelemetry).
void ResetPeakScanStatsForTesting();

/// Spectrum cache for SBD over a fixed set of equal-length series.
///
/// Construction performs one forward FFT and one norm per series (a
/// deterministic parallel pre-pass); after that, every pairwise NCC against
/// the set is a single inverse transform on the cached spectra instead of the
/// two forwards + one inverse the direct Sbd() path spends. A pairwise matrix
/// therefore costs n forwards + n(n-1)/2 inverses rather than ~n^2 forwards
/// + n(n-1)/2 inverses, and a k-Shape assignment iteration costs k forwards
/// (one per centroid) + n*k inverses.
///
/// Half-spectrum mode (the default; see fft/rfft.h): series are real, so the
/// engine caches only the packed bins [0, fft_len/2] in one contiguous SoA
/// pool (fft::BatchSpectra, one plan lookup for the whole batch). That halves
/// the cache memory — 16*fft_len bytes per series for full complex spectra
/// versus 8*fft_len + 16 bytes packed — and on power-of-two fft_len the
/// forward/inverse transforms run at half size too. The full-complex layout
/// of PR 5 remains behind `use_half_spectrum = false` (or the process-wide
/// KSHAPE_HALF_SPECTRUM=off gate) for A/B comparison.
///
/// Equivalence contract: the cached path agrees with Sbd() to a tight
/// epsilon, not bitwise — the direct path packs two reals into one complex
/// transform, which rounds differently from per-series spectra (see
/// fft::CrossCorrelationFromSpectra); the half- and full-spectrum cached
/// paths likewise agree to epsilon, not bitwise. Within one configuration the
/// arithmetic is fixed per input, so results are bit-identical across runs,
/// SIMD backends, and thread counts.
///
/// Spectral NCC bound (the pruning layer): for any shift s,
///   |cc[s]| = |IDFT(X * conj(Y))[s]| <= (1/N) Σ_k |X_k||Y_k|,
/// so max_s NCCc(x,y) <= (Σ_k |X_k||Y_k|) / (N ‖x‖‖y‖) — an upper bound on
/// the NCC peak (equivalently a lower bound on SBD) evaluable from bin
/// magnitudes alone, with NO inverse transform. The engine can precompute a
/// per-series weighted magnitude plane mag[k] = sqrt(w_k)|X_k| over the
/// packed bins [0, N/2] (w = 2 on interior bins, 1 on DC/Nyquist — conjugate
/// symmetry folds the upper half in) plus per-checkpoint suffix energies, so
/// the bound evaluates band-by-band through the abs_product_partial_sums
/// kernel and a candidate abandons as soon as its partial-sum bound falls
/// below the caller's cutoff (DistanceWithAbandon / Nearest).
///
/// Channels: a series may be one channel-major row of C channels of length m
/// that shift together. Its norm is sqrt(Σ_c ‖x_c‖²) and its
/// cross-correlation is the channel sequences summed lag by lag (C inverses
/// per pair): MultivariateSbd, cached. On power-of-two packed lengths the
/// peak is read straight off the inverse planes
/// (fft::CrossCorrelationPeakFromRfft), with no lag buffer. The bound plane
/// concatenates the C channel planes, so the Σ_c bound is still one dot
/// product.
///
/// Thread-safety: immutable after construction; all const members may be
/// called concurrently (per-pair scratch is thread_local inside src/fft).
class SbdEngine {
 public:
  /// Builds spectra and norms for `series`, rows of `channels` channels of
  /// one length m >= 1. `impl` selects the padding: kFft transforms at the
  /// next power of two >= 2m-1, kFftNoPow2 at exactly 2m-1 (Bluestein, whose
  /// chirp plan is cached per length). kNaive has no spectra and is rejected.
  /// `use_half_spectrum` selects the packed SoA cache (default: the
  /// process-wide gate, i.e. on unless KSHAPE_HALF_SPECTRUM=off).
  /// `build_bound_planes` additionally precomputes the magnitude/suffix
  /// planes for the spectral NCC bound (8·C·(N/2) bytes per series; off by
  /// default so non-pruning users keep the PR 6 memory footprint).
  explicit SbdEngine(const tseries::SeriesBatch& series,
                     CrossCorrelationImpl impl = CrossCorrelationImpl::kFft,
                     bool use_half_spectrum = fft::HalfSpectrumEnabled(),
                     bool build_bound_planes = false,
                     std::size_t channels = 1);

  /// Number of cached series.
  std::size_t size() const { return norms_.size(); }

  /// The common channel length m (a row holds channels() · m values).
  std::size_t series_length() const { return m_; }

  /// Channels per series, C.
  std::size_t channels() const { return channels_; }

  /// The padded transform length.
  std::size_t fft_length() const { return fft_len_; }

  /// True when the engine runs on packed half spectra.
  bool half_spectrum() const { return half_; }

  /// True when the magnitude/suffix planes for the spectral bound exist.
  bool has_bound_planes() const { return !mags_.empty(); }

  /// Spectrum + norm of an out-of-set series (e.g. a k-Shape centroid),
  /// computed once and reusable against every cached series. Exactly one of
  /// `spectrum` (full-complex mode) / `rspectrum` (half-spectrum mode) is
  /// populated, one spectrum per channel, matching the engine that minted
  /// it. `mag`/`tail` (the query-side planes of the spectral bound) are
  /// filled only when the engine was built with bound planes.
  struct Query {
    std::vector<std::vector<fft::Complex>> spectrum;
    std::vector<fft::RfftSpectrum> rspectrum;
    double norm = 0.0;
    std::vector<double> mag;
    std::vector<double> tail;
  };

  /// C forward transforms + one norm. Requires q.size() == channels() ·
  /// series_length().
  Query MakeQuery(tseries::SeriesView q) const;

  /// Mints a Query from the engine *configuration* alone — channel length,
  /// padded transform length, spectrum layout, bound planes, channels — with
  /// no engine instance. The query arithmetic depends only on that
  /// configuration, so a query minted here is interchangeable bit for bit
  /// with MakeQuery() on any engine sharing it. core::ClusterBlocks relies
  /// on this: each centroid's query is minted once per iteration and reused
  /// against every per-shard engine (all of which share one configuration,
  /// because fft_len is a function of m alone).
  static Query MakeQueryFor(tseries::SeriesView q, std::size_t m,
                            std::size_t fft_len, bool use_half_spectrum,
                            bool build_bound_planes,
                            std::size_t channels = 1);

  /// SBD(series[i], series[j]) from cached spectra: one inverse transform.
  /// Mirrors Sbd()'s zero-norm convention (distance 1).
  double Distance(std::size_t i, std::size_t j) const;

  /// SBD(q, series[i]), with the query in the x role of Sbd(x, y): one
  /// minus the MaxNcc(q, i) peak value. `shift`, when non-null, receives
  /// MaxNcc(q, i).shift — the lag that aligns series[i] to q (the shift
  /// argument of tseries::ShiftWithZeroFill).
  double Distance(const Query& q, std::size_t i, int* shift = nullptr) const;

  /// Peak NCCc value and optimal shift of series[i] relative to q — the
  /// cached analogue of MaxNcc(q, series[i], kCoefficient).
  NccPeak MaxNcc(const Query& q, std::size_t i) const;

  /// out[i] = SBD(q, series[i]) for every cached series, computed in parallel
  /// on the global pool with disjoint writes: bit-identical at every thread
  /// count.
  void DistanceToAll(const Query& q, std::vector<double>* out) const;

  /// Convenience: MakeQuery + DistanceToAll.
  std::vector<double> DistanceToAll(tseries::SeriesView query) const;

  /// Full symmetric pairwise SBD matrix (zero diagonal) from cached spectra,
  /// row-major into `flat` (size() * size() entries), rows in parallel with
  /// disjoint writes: bit-identical at every thread count. This is the
  /// carrier for the DistanceMeasure batched-pairwise hook, which cannot
  /// name linalg::Matrix.
  void PairwiseFlat(std::vector<double>* flat) const;

  /// The spectral NCC upper bound (Σ_k w_k|Q_k||X_i,k|) / (N ‖q‖‖x_i‖),
  /// evaluated over the full plane (no abandoning). 0 when either norm is
  /// zero (mirroring the MaxNcc convention). Requires bound planes on both
  /// the engine and the query.
  double NccUpperBound(const Query& q, std::size_t i) const;

  /// SBD(q, series[i]) with spectral early abandoning: evaluates the
  /// partial-sum NCC bound band-by-band, and as soon as it certifies
  /// SBD(q, i) > cutoff, returns a valid LOWER bound on the distance
  /// (> cutoff) with *abandoned = true — no inverse transform spent.
  /// Otherwise returns the exact Distance(q, i, shift) with *abandoned =
  /// false; `shift`, when non-null, is written only then. cutoff = +infinity
  /// never abandons. Without bound planes on either side it is exactly
  /// Distance(q, i, shift) and never abandons, so "no pruning" is "no
  /// planes"; planes on only one side abort.
  double DistanceWithAbandon(const Query& q, std::size_t i, double cutoff,
                             bool* abandoned, int* shift = nullptr) const;

  /// Headroom added to early-abandon cutoffs so bound rounding (sqrt'd
  /// suffix energies, the band dot product) can never abandon a true
  /// near-tie. Far above accumulated ulps, far below any meaningful SBD gap.
  static constexpr double kDefaultBoundSlack = 1e-9;

 private:
  // Peak of the channel-summed raw cross-correlation of cached entry i
  // against entry j / query q, in the engine's spectrum layout.
  simd::Peak RawPeak(std::size_t i, std::size_t j) const;
  simd::Peak RawPeak(const Query& q, std::size_t i) const;

  // The NCC shift of lag-buffer index `index`.
  int ShiftOf(std::size_t index) const {
    return static_cast<int>(index) - static_cast<int>(m_ - 1);
  }

  std::size_t m_ = 0;
  std::size_t channels_ = 1;
  std::size_t fft_len_ = 0;
  bool half_ = false;
  // Full-complex layout: one spectrum vector per slot; slot i·C + c holds
  // channel c of series i in either layout.
  std::vector<std::vector<fft::Complex>> spectra_;
  // Packed half-spectrum layout: contiguous SoA pool + its amortized plan.
  std::optional<fft::BatchSpectra> batch_;
  std::vector<double> norms_;
  // Spectral-bound planes (built on request): weighted bin magnitudes
  // (size() x bound_bins_) and checkpointed suffix norms (size() x
  // bound_tails_), both row-major contiguous.
  std::size_t bound_bins_ = 0;
  std::size_t bound_tails_ = 0;
  std::vector<double> mags_;
  std::vector<double> tails_;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_SBD_ENGINE_H_
