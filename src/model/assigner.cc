#include "model/assigner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "core/sbd.h"
#include "fft/rfft.h"

namespace kshape::model {

namespace {

// The movement bounds' rounding guard in SBD units (DESIGN.md, "Movement
// bounds"): the triangle inequality holds exactly in real arithmetic, and
// the computed SBDs carry a few ulps, about 1e-8 after the square root.
constexpr double kPruneMargin = 1e-6;

// Same grain as the historical assignment/seeding scans: the per-index work
// dwarfs chunk claiming at 16. Chunking does not affect results (disjoint
// writes of pure per-index values, integer counter sums), so per-block
// chunks and global chunks land on the same bits.
constexpr std::size_t kScanGrain = 16;

// The scan body's view of an SbdEngine block: the exact distance with its
// winning shift, and the spectral early abandon (the exact distance again
// when the engine and queries carry no bound planes).
struct EngineDistance {
  const core::SbdEngine& engine;
  const std::vector<core::SbdEngine::Query>& queries;

  double Exact(int j, std::size_t row, int* shift) const {
    return engine.Distance(queries[j], row, shift);
  }
  double WithAbandon(int j, std::size_t row, double cutoff, bool* abandoned,
                     int* shift) const {
    return engine.DistanceWithAbandon(queries[j], row, cutoff, abandoned,
                                      shift);
  }
};

// The scan body's view of a caller distance over global rows base + row: it
// never abandons and records no shift.
struct CallbackDistance {
  const std::function<double(int, std::size_t)>& dist;
  std::size_t base;

  double Exact(int j, std::size_t row, int* /*shift*/) const {
    return dist(j, base + row);
  }
  double WithAbandon(int j, std::size_t row, double /*cutoff*/,
                     bool* abandoned, int* /*shift*/) const {
    *abandoned = false;
    return dist(j, base + row);
  }
};

// Runs scan(t, &chunk_counts) for t in [begin, end) on the pool and adds
// each chunk's counts to `totals` once. The counters are integers, so the
// totals are exact in any chunk order.
template <typename Scan>
void ScanChunks(std::size_t begin, std::size_t end, const Scan& scan,
                AssignmentIterationStats* totals) {
  std::mutex totals_mu;  // Guards *totals while the chunks run.
  common::ParallelFor(begin, end, kScanGrain,
                      [&](std::size_t chunk_begin, std::size_t chunk_end) {
    AssignmentIterationStats counts;
    for (std::size_t t = chunk_begin; t < chunk_end; ++t) scan(t, &counts);
    const std::lock_guard<std::mutex> lock(totals_mu);
    totals->computed += counts.computed;
    totals->pruned_bounds += counts.pruned_bounds;
    totals->abandoned_partial += counts.abandoned_partial;
  });
}

}  // namespace

Assigner::Assigner(const AssignerOptions& options)
    : options_(options),
      half_(fft::HalfSpectrumEnabled()),
      pruning_(options.fft_len > 0 && core::PruningEnabled()),
      bounds_(options.use_movement_bounds && pruning_) {
  KSHAPE_CHECK(options_.k >= 1);
  KSHAPE_CHECK(options_.num_series >= 1);
  if (bounds_) {
    ub_r_.assign(options_.num_series, 0.0);
    lb_r_.assign(options_.num_series, 0.0);
    shift_r_.assign(options_.k, 0.0);
  }
}

void Assigner::SnapshotCentroids(const tseries::SeriesBatch& centroids) {
  if (bounds_ && bounds_valid_) {
    prev_centroids_.clear();
    for (std::size_t j = 0; j < centroids.size(); ++j) {
      const tseries::SeriesView row = centroids[j];
      prev_centroids_.emplace_back(row.begin(), row.end());
    }
  }
}

void Assigner::BeginIteration(const tseries::SeriesBatch& centroids) {
  KSHAPE_CHECK(static_cast<int>(centroids.size()) == options_.k);
  stats_ = AssignmentIterationStats{};
  if (options_.fft_len > 0) {
    // k forward transforms per iteration; every centroid-to-series distance
    // in the scans below reuses them as a single inverse transform. Minted
    // from the configuration alone (MakeQueryFor), so one query set serves
    // every block engine of the run.
    queries_.clear();
    for (int j = 0; j < options_.k; ++j) {
      queries_.push_back(core::SbdEngine::MakeQueryFor(
          centroids[j], options_.m, options_.fft_len, half_,
          /*build_bound_planes=*/pruning_, options_.channels));
    }
  }

  // Centroid-shift distances for the movement bounds: k SBDs (old vs new
  // centroid), outside the n·k assignment counters — direct Sbd() calls for
  // one channel; for several, the channel-summed SBD of an engine over the
  // old centroids against this iteration's queries. Hamerly max1/max2: lb
  // shrinks by the largest shift, or the second-largest when the owner
  // itself moved most.
  use_bounds_iter_ = bounds_valid_;
  max_shift1_ = 0.0;
  max_shift2_ = 0.0;
  max_shift_arg_ = -1;
  if (use_bounds_iter_) {
    std::optional<core::SbdEngine> previous;
    if (options_.channels > 1) {
      previous.emplace(tseries::SeriesBatch(prev_centroids_),
                       core::CrossCorrelationImpl::kFft, half_,
                       /*build_bound_planes=*/false, options_.channels);
      KSHAPE_CHECK(previous->fft_length() == options_.fft_len);
    }
    for (int j = 0; j < options_.k; ++j) {
      const double d =
          previous ? previous->Distance(queries_[j], j)
                   : core::Sbd(prev_centroids_[j], centroids[j]).distance;
      shift_r_[j] = std::sqrt(std::max(0.0, d));
    }
    for (int j = 0; j < options_.k; ++j) {
      if (max_shift_arg_ < 0 || shift_r_[j] > max_shift1_) {
        if (max_shift_arg_ >= 0) max_shift2_ = max_shift1_;
        max_shift1_ = shift_r_[j];
        max_shift_arg_ = j;
      } else if (shift_r_[j] > max_shift2_) {
        max_shift2_ = shift_r_[j];
      }
    }
  }
}

template <typename Dist>
void Assigner::ScanIndex(const Dist& dist, std::size_t i, std::size_t row,
                         bool bounds, std::vector<int>* assignments,
                         std::vector<double>* distances,
                         std::vector<int>* shifts,
                         AssignmentIterationStats* counts) {
  const int k = options_.k;
  const int owner = (*assignments)[i];
  long long comp = 0, pruned = 0, aband = 0;
  bool scanned = true;
  double d_owner = 0.0;
  int owner_shift = kNoShift;
  if (bounds && use_bounds_iter_) {
    // Apply this iteration's centroid movement to the bounds. Bounds live in
    // the sqrt(SBD) domain, where sqrt(min(SBD, 1)) is a metric (DESIGN.md,
    // "Movement bounds"). Every centroid has zero mean (z-normalized, or
    // all-zero), so SBD(x, c) <= 1 for any series x: the sum of the
    // cross-correlation over all lags is (Σx)(Σc) = 0, so its peak is at
    // least 0. The lower bounds therefore never pass the cap, and the
    // triangle inequality the movement updates rely on holds exactly in
    // real arithmetic:
    //   ub_r[i] >= sqrt(d(i, centroid of a_i))     (upper, owner distance)
    //   lb_r[i] <= sqrt(min_{j != a_i} d(i, c_j))  (lower, second-closest)
    // Comparisons happen back in SBD units with the kPruneMargin slack,
    // which only has to absorb floating-point rounding. All of this holds
    // for the channel-summed SBD of several channels alike.
    ub_r_[i] += shift_r_[owner];
    lb_r_[i] -= owner == max_shift_arg_ ? max_shift2_ : max_shift1_;
    if (lb_r_[i] < 0.0) lb_r_[i] = 0.0;
    const double ub2 = ub_r_[i] * ub_r_[i];
    const double lb2 = lb_r_[i] * lb_r_[i];
    if (ub2 + kPruneMargin <= lb2) {
      // Whole-series prune: no centroid can take this series, and no
      // distance (so no shift) was computed for it.
      pruned = k;
      scanned = false;
    } else {
      // Tighten the upper bound with the exact owner distance, then re-test
      // (Hamerly's second check).
      d_owner = dist.Exact(owner, row, &owner_shift);
      ++comp;
      ub_r_[i] = std::sqrt(std::max(0.0, d_owner));
      if (d_owner + kPruneMargin <= lb2) {
        pruned = k - 1;
        scanned = false;
      }
    }
  } else {
    d_owner = dist.Exact(owner, row, &owner_shift);
    ++comp;
  }
  int best_shift = owner_shift;
  if (scanned) {
    // Ascending-j argmin with spectral early abandoning. The owner's
    // distance is computed up front (reused at j == owner), so the
    // comparison sequence over computed distances is the one an exhaustive
    // scan walks — identical labels and tie-breaks. Without bound planes
    // nothing abandons and this is that exhaustive scan.
    double min1 = std::numeric_limits<double>::infinity();
    double min2 = std::numeric_limits<double>::infinity();
    int best = owner;
    for (int j = 0; j < k; ++j) {
      bool ab = false;
      double v;
      int shift = owner_shift;
      if (j == owner) {
        v = d_owner;
      } else {
        v = dist.WithAbandon(j, row,
                             min1 + core::SbdEngine::kDefaultBoundSlack, &ab,
                             &shift);
        if (ab) {
          ++aband;
        } else {
          ++comp;
        }
      }
      if (!ab && v < min1) {
        min2 = min1;
        min1 = v;
        best = j;
        best_shift = shift;
      } else if (v < min2) {
        // Abandoned candidates contribute their distance LOWER bound: min2
        // stays a valid lower bound on the true second-closest distance.
        min2 = v;
      }
    }
    (*assignments)[i] = best;
    if (bounds) {
      ub_r_[i] = std::sqrt(std::max(0.0, min1));
      lb_r_[i] = std::sqrt(std::max(0.0, min2));
    }
    if (distances != nullptr) (*distances)[i] = min1;
  }
  if (shifts != nullptr) (*shifts)[i] = best_shift;
  counts->computed += comp;
  counts->pruned_bounds += pruned;
  counts->abandoned_partial += aband;
}

void Assigner::AssignBlock(const core::SbdEngine& engine, std::size_t base,
                           std::vector<int>* assignments,
                           std::vector<double>* distances,
                           std::vector<int>* shifts) {
  KSHAPE_CHECK(assignments != nullptr);
  KSHAPE_CHECK(base + engine.size() <= options_.num_series);
  KSHAPE_CHECK(!queries_.empty());
  KSHAPE_CHECK_MSG(distances == nullptr || !bounds_,
                   "a bounds-pruned series computes no distance; request "
                   "distances only from bound-free scans");
  KSHAPE_CHECK(shifts == nullptr || shifts->size() == options_.num_series);
  const EngineDistance dist{engine, queries_};
  ScanChunks(0, engine.size(),
             [&](std::size_t r, AssignmentIterationStats* counts) {
    ScanIndex(dist, base + r, r, bounds_, assignments, distances, shifts,
              counts);
  }, &stats_);
}

void Assigner::AssignBlockWith(
    const std::function<double(int, std::size_t)>& dist, std::size_t base,
    std::size_t rows, std::vector<int>* assignments) {
  KSHAPE_CHECK(assignments != nullptr);
  KSHAPE_CHECK(base + rows <= options_.num_series);
  KSHAPE_CHECK_MSG(!pruning_,
                   "pruning needs engine spectra; the callback path is the "
                   "exhaustive scan");
  const CallbackDistance callback{dist, base};
  ScanChunks(0, rows, [&](std::size_t r, AssignmentIterationStats* counts) {
    ScanIndex(callback, base + r, r, /*bounds=*/false, assignments,
              /*distances=*/nullptr, /*shifts=*/nullptr, counts);
  }, &stats_);
}

void Assigner::AssignSample(const core::SbdEngine& engine, std::size_t base,
                            const std::vector<std::size_t>& sample,
                            std::size_t pos, std::size_t stop,
                            std::vector<int>* assignments,
                            std::vector<int>* shifts) {
  KSHAPE_CHECK(assignments != nullptr);
  KSHAPE_CHECK(!queries_.empty());
  KSHAPE_CHECK(shifts == nullptr || shifts->size() == options_.num_series);
  const EngineDistance dist{engine, queries_};
  ScanChunks(pos, stop,
             [&](std::size_t t, AssignmentIterationStats* counts) {
    const std::size_t i = sample[t];
    ScanIndex(dist, i, i - base, /*bounds=*/false, assignments,
              /*distances=*/nullptr, shifts, counts);
  }, &stats_);
}

void Assigner::AddSeed(tseries::SeriesView seed) {
  KSHAPE_CHECK(seeds_ < options_.k);
  KSHAPE_CHECK(seed.size() == options_.channels * options_.m);
  if (seeds_ == 0) {
    seed_d_.assign(options_.num_series, 0.0);
    nearest_seed_.assign(options_.num_series, 0);
  }
  ++seeds_;
  if (options_.fft_len == 0) return;
  seed_gap_r_.clear();
  if (pruning_ && !seed_queries_.empty()) {
    // The gaps the triangle test reads, one engine over the new seed's row.
    const core::SbdEngine pick(
        tseries::SeriesBatch(seed.data(), 1, seed.size()),
        core::CrossCorrelationImpl::kFft, half_,
        /*build_bound_planes=*/false, options_.channels);
    KSHAPE_CHECK(pick.fft_length() == options_.fft_len);
    for (const core::SbdEngine::Query& earlier : seed_queries_) {
      const double d = pick.Distance(earlier, 0);
      seed_gap_r_.push_back(std::sqrt(std::clamp(d, 0.0, 1.0)));
    }
  }
  seed_queries_.push_back(core::SbdEngine::MakeQueryFor(
      seed, options_.m, options_.fft_len, half_,
      /*build_bound_planes=*/pruning_, options_.channels));
}

template <typename Dist>
void Assigner::SeedIndex(const Dist& dist, std::size_t i, std::size_t row,
                         AssignmentIterationStats* counts) {
  const int seed = seeds_ - 1;
  if (seed == 0) {
    seed_d_[i] = dist.Exact(0, row, nullptr);
    ++counts->computed;
    return;
  }
  const double d_nearest = seed_d_[i];
  if (pruning_) {
    // Elkan's lemma in the metric δ = sqrt(min(SBD, 1)) (DESIGN.md, "Pruned
    // seeding"): δ(p, i) >= |δ(s, p) − δ(s, i)| for the new seed p and the
    // nearest seed s, so when that gap squared clears SBD(s, i) by the
    // rounding margin, p cannot take row i. Above SBD = 1 the left side is
    // at most 1 and the test never fires.
    const double gap = seed_gap_r_[nearest_seed_[i]] -
                       std::sqrt(std::clamp(d_nearest, 0.0, 1.0));
    if (gap * gap >= d_nearest + kPruneMargin) {
      ++counts->pruned_bounds;
      return;
    }
  }
  bool abandoned = false;
  const double d = dist.WithAbandon(
      seed, row, d_nearest + core::SbdEngine::kDefaultBoundSlack, &abandoned,
      nullptr);
  if (abandoned) {
    ++counts->abandoned_partial;
    return;
  }
  ++counts->computed;
  if (d * d < d_nearest * d_nearest) {
    seed_d_[i] = d;
    nearest_seed_[i] = seed;
  }
}

void Assigner::SeedBlock(const core::SbdEngine& engine, std::size_t base) {
  KSHAPE_CHECK(seeds_ >= 1 && !seed_queries_.empty());
  KSHAPE_CHECK(base + engine.size() <= options_.num_series);
  const EngineDistance dist{engine, seed_queries_};
  ScanChunks(0, engine.size(),
             [&](std::size_t r, AssignmentIterationStats* counts) {
    SeedIndex(dist, base + r, r, counts);
  }, &seeding_stats_);
}

void Assigner::SeedBlockWith(
    const std::function<double(int, std::size_t)>& dist, std::size_t base,
    std::size_t rows) {
  KSHAPE_CHECK(seeds_ >= 1);
  KSHAPE_CHECK(base + rows <= options_.num_series);
  KSHAPE_CHECK_MSG(!pruning_,
                   "pruning needs engine spectra; the callback path is the "
                   "exhaustive scan");
  const CallbackDistance callback{dist, base};
  ScanChunks(0, rows, [&](std::size_t r, AssignmentIterationStats* counts) {
    SeedIndex(callback, base + r, r, counts);
  }, &seeding_stats_);
}

void Assigner::FinishIteration(int reseeds) {
  if (bounds_) {
    // Repair rewires assignments without touching the bounds; a full rebuild
    // next iteration is the only safe continuation.
    bounds_valid_ = reseeds == 0;
  }
}

NearestResult Assigner::NearestSeries(const core::SbdEngine& engine,
                                      const core::SbdEngine::Query& q,
                                      double bound_slack) {
  NearestResult r;
  const std::size_t n = engine.size();
  KSHAPE_CHECK(n >= 1);
  double best = std::numeric_limits<double>::infinity();
  // Ascending scan with a strict-less update — the identical tie-break to
  // DistanceToAll + first-strict-minimum. A candidate abandons only when its
  // distance lower bound exceeds best + bound_slack, i.e. it provably loses
  // even the tie-break, so early abandoning cannot change the result.
  // Without bound planes nothing abandons: the plain exhaustive scan.
  for (std::size_t i = 0; i < n; ++i) {
    bool ab = false;
    const double d = engine.DistanceWithAbandon(q, i, best + bound_slack, &ab);
    if (ab) {
      ++r.abandoned;
      continue;
    }
    ++r.computed;
    if (d < best) {
      best = d;
      r.index = i;
    }
  }
  r.distance = best;
  return r;
}

}  // namespace kshape::model
