#include "model/assigner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "core/sbd.h"

namespace kshape::model {

namespace {

// Same grain as the historical assignment/seeding scans: the per-index work
// dwarfs chunk claiming at 16. Chunking does not affect results (disjoint
// writes of pure per-index values), so per-block chunks and global chunks
// land on the same bits.
constexpr std::size_t kScanGrain = 16;

}  // namespace

Assigner::Assigner(const AssignerOptions& options) : options_(options) {
  KSHAPE_CHECK(options_.k >= 1);
  KSHAPE_CHECK(options_.num_series >= 1);
  KSHAPE_CHECK_MSG(!options_.use_movement_bounds || options_.use_pruning,
                   "movement bounds ride on the pruning layer");
  const std::size_t n = options_.num_series;
  const int k = options_.k;
  if (options_.use_pruning) {
    cnt_computed_.assign(n, 0);
    cnt_pruned_.assign(n, 0);
    cnt_abandoned_.assign(n, 0);
  }
  if (options_.use_movement_bounds) {
    ub_r_.assign(n, 0.0);
    lb_r_.assign(n, 0.0);
    shift_r_.assign(k, 0.0);
  }
}

void Assigner::SnapshotCentroids(const tseries::SeriesBatch& centroids) {
  if (options_.use_movement_bounds && bounds_valid_) {
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
          centroids[j], options_.m, options_.fft_len,
          options_.use_half_spectrum,
          /*build_bound_planes=*/options_.use_pruning));
    }
  }

  // Centroid-shift distances for the movement bounds: k direct SBDs (old vs
  // new centroid), outside the n·k assignment counters. Hamerly max1/max2:
  // lb shrinks by the largest shift, or the second-largest when the owner
  // itself moved most.
  use_bounds_iter_ = bounds_valid_;
  max_shift1_ = 0.0;
  max_shift2_ = 0.0;
  max_shift_arg_ = -1;
  if (use_bounds_iter_) {
    for (int j = 0; j < options_.k; ++j) {
      const double d =
          core::Sbd(prev_centroids_[j], centroids[j]).distance;
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

void Assigner::PrunedScanIndex(const core::SbdEngine& engine, std::size_t i,
                               std::size_t row, bool use_bounds,
                               std::vector<int>* assignments,
                               std::vector<double>* distances,
                               std::vector<int>* shifts) {
  const int k = options_.k;
  const double margin = options_.prune_margin;
  const int owner = (*assignments)[i];
  long long comp = 0, pruned = 0, aband = 0;
  bool scanned = true;
  double d_owner = 0.0;
  int owner_shift = kNoShift;
  if (use_bounds) {
    // Apply this iteration's centroid movement to the bounds. Bounds live in
    // the sqrt(SBD) domain, where sqrt(min(SBD, 1)) is a metric (DESIGN.md,
    // "Movement bounds"), so the triangle inequality the movement updates
    // rely on holds exactly in real arithmetic while lb_r stays at or
    // below 1:
    //   ub_r[i] >= sqrt(d(i, centroid of a_i))     (upper, owner distance)
    //   lb_r[i] <= sqrt(min_{j != a_i} d(i, c_j))  (lower, second-closest)
    // Comparisons happen back in SBD units with the prune_margin slack,
    // which only has to absorb floating-point rounding.
    ub_r_[i] += shift_r_[owner];
    lb_r_[i] -= owner == max_shift_arg_ ? max_shift2_ : max_shift1_;
    if (lb_r_[i] < 0.0) lb_r_[i] = 0.0;
    const double ub2 = ub_r_[i] * ub_r_[i];
    const double lb2 = lb_r_[i] * lb_r_[i];
    if (ub2 + margin <= lb2) {
      // Whole-series prune: no centroid can take this series, and no
      // distance (so no shift) was computed for it.
      pruned = k;
      scanned = false;
    } else {
      // Tighten the upper bound with the exact owner distance, then re-test
      // (Hamerly's second check).
      d_owner = engine.Distance(queries_[owner], row, &owner_shift);
      ++comp;
      ub_r_[i] = std::sqrt(std::max(0.0, d_owner));
      if (d_owner + margin <= lb2) {
        pruned = k - 1;
        scanned = false;
      }
    }
  } else {
    d_owner = engine.Distance(queries_[owner], row, &owner_shift);
    ++comp;
  }
  int best_shift = owner_shift;
  if (scanned) {
    // Full ascending-j scan with spectral early abandoning. The owner's
    // distance is computed up front (reused at j == owner), so the
    // comparison sequence over computed distances is the one the exact scan
    // walks — identical labels and tie-breaks.
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
        v = engine.DistanceWithAbandon(
            queries_[j], row, min1 + core::SbdEngine::kDefaultBoundSlack,
            &ab, &shift);
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
    if (options_.use_movement_bounds) {
      ub_r_[i] = std::sqrt(std::max(0.0, min1));
      lb_r_[i] = std::sqrt(std::max(0.0, min2));
    }
    if (distances != nullptr) (*distances)[i] = min1;
  }
  if (shifts != nullptr) (*shifts)[i] = best_shift;
  cnt_computed_[i] = comp;
  cnt_pruned_[i] = pruned;
  cnt_abandoned_[i] = aband;
}

void Assigner::AssignBlock(const core::SbdEngine& engine, std::size_t base,
                           std::vector<int>* assignments,
                           std::vector<double>* distances,
                           std::vector<int>* shifts) {
  KSHAPE_CHECK(assignments != nullptr);
  const std::size_t rows = engine.size();
  const int k = options_.k;
  KSHAPE_CHECK(base + rows <= options_.num_series);
  KSHAPE_CHECK(!queries_.empty());
  KSHAPE_CHECK_MSG(distances == nullptr || !options_.use_movement_bounds,
                   "a bounds-pruned series computes no distance; request "
                   "distances only from bound-free scans");
  KSHAPE_CHECK(shifts == nullptr || shifts->size() == options_.num_series);

  if (!options_.use_pruning) {
    common::ParallelFor(0, rows, kScanGrain,
                        [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        const std::size_t i = base + r;
        double min_dist = std::numeric_limits<double>::infinity();
        int best = (*assignments)[i];
        int best_shift = kNoShift;
        for (int j = 0; j < k; ++j) {
          int shift;
          const double d = engine.Distance(queries_[j], r, &shift);
          if (d < min_dist) {
            min_dist = d;
            best = j;
            best_shift = shift;
          }
        }
        (*assignments)[i] = best;
        if (distances != nullptr) (*distances)[i] = min_dist;
        if (shifts != nullptr) (*shifts)[i] = best_shift;
      }
    });
    stats_.computed += static_cast<long long>(rows) * k;
    return;
  }

  const bool use_bounds = use_bounds_iter_;
  common::ParallelFor(0, rows, kScanGrain,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      PrunedScanIndex(engine, base + r, r, use_bounds, assignments,
                      distances, shifts);
    }
  });
  // Telemetry reduced in ascending index order per block; blocks arrive in
  // ascending base order, so the run-level sums match the historical
  // global-index-order reduction.
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = base + r;
    stats_.computed += cnt_computed_[i];
    stats_.pruned_bounds += cnt_pruned_[i];
    stats_.abandoned_partial += cnt_abandoned_[i];
  }
}

void Assigner::AssignBlockWith(
    const std::function<double(int, std::size_t)>& dist, std::size_t base,
    std::size_t rows, std::vector<int>* assignments) {
  KSHAPE_CHECK(assignments != nullptr);
  KSHAPE_CHECK(base + rows <= options_.num_series);
  KSHAPE_CHECK_MSG(!options_.use_pruning,
                   "pruning needs engine spectra; the callback path is the "
                   "exhaustive scan");
  const int k = options_.k;
  common::ParallelFor(0, rows, kScanGrain,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const std::size_t i = base + r;
      double min_dist = std::numeric_limits<double>::infinity();
      int best = (*assignments)[i];
      for (int j = 0; j < k; ++j) {
        const double d = dist(j, i);
        if (d < min_dist) {
          min_dist = d;
          best = j;
        }
      }
      (*assignments)[i] = best;
    }
  });
  stats_.computed += static_cast<long long>(rows) * k;
}

void Assigner::AssignSample(const core::SbdEngine& engine, std::size_t base,
                            const std::vector<std::size_t>& sample,
                            std::size_t pos, std::size_t stop,
                            std::vector<int>* assignments,
                            std::vector<int>* shifts) {
  KSHAPE_CHECK(assignments != nullptr);
  KSHAPE_CHECK(!queries_.empty());
  KSHAPE_CHECK(shifts == nullptr || shifts->size() == options_.num_series);
  const int k = options_.k;
  const bool pruning = options_.use_pruning;
  common::ParallelFor(pos, stop, kScanGrain,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t i = sample[t];
      const std::size_t r = i - base;
      const int owner = (*assignments)[i];
      long long comp = 0, aband = 0;
      double min1 = std::numeric_limits<double>::infinity();
      int best = owner;
      int best_shift = kNoShift;
      if (pruning) {
        int owner_shift;
        const double d_owner =
            engine.Distance(queries_[owner], r, &owner_shift);
        ++comp;
        for (int j = 0; j < k; ++j) {
          bool ab = false;
          double v;
          int shift = owner_shift;
          if (j == owner) {
            v = d_owner;
          } else {
            v = engine.DistanceWithAbandon(
                queries_[j], r, min1 + core::SbdEngine::kDefaultBoundSlack,
                &ab, &shift);
            if (ab) {
              ++aband;
            } else {
              ++comp;
            }
          }
          if (!ab && v < min1) {
            min1 = v;
            best = j;
            best_shift = shift;
          }
        }
      } else {
        for (int j = 0; j < k; ++j) {
          int shift;
          const double d = engine.Distance(queries_[j], r, &shift);
          ++comp;
          if (d < min1) {
            min1 = d;
            best = j;
            best_shift = shift;
          }
        }
      }
      (*assignments)[i] = best;
      if (shifts != nullptr) (*shifts)[i] = best_shift;
      if (pruning) {
        cnt_computed_[i] = comp;
        cnt_pruned_[i] = 0;
        cnt_abandoned_[i] = aband;
      }
    }
  });
  if (pruning) {
    for (std::size_t t = pos; t < stop; ++t) {
      const std::size_t i = sample[t];
      stats_.computed += cnt_computed_[i];
      stats_.abandoned_partial += cnt_abandoned_[i];
    }
  } else {
    stats_.computed += static_cast<long long>(stop - pos) * k;
  }
}

void Assigner::FinishIteration(int reseeds) {
  if (options_.use_movement_bounds) {
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
  if (!engine.has_bound_planes() || q.mag.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = engine.Distance(q, i);
      ++r.computed;
      if (d < best) {
        best = d;
        r.index = i;
      }
    }
    r.distance = best;
    return r;
  }
  // Ascending scan with a strict-less update — the identical tie-break to
  // DistanceToAll + first-strict-minimum. A candidate abandons only when its
  // distance lower bound exceeds best + bound_slack, i.e. it provably loses
  // even the tie-break, so early abandoning cannot change the result.
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
