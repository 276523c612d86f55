#include "cluster/ksc.h"

#include <cmath>
#include <limits>

#include <span>

#include "common/check.h"
#include "common/stopwatch.h"
#include "fft/rfft.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/row_pool.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"

namespace kshape::cluster {

KscAlignment KscAlign(tseries::SeriesView x, tseries::SeriesView y) {
  KSHAPE_CHECK_MSG(x.size() == y.size(), "KSC requires equal lengths");
  const int m = static_cast<int>(x.size());
  const double x_norm_sq = linalg::Dot(x, x);

  KscAlignment best;
  if (x_norm_sq == 0.0) {
    best.distance = linalg::Dot(y, y) == 0.0 ? 0.0 : 1.0;
    return best;
  }

  best.distance = std::numeric_limits<double>::infinity();
  const simd::KernelTable& kt = simd::Active();
  for (int q = -(m - 1); q <= m - 1; ++q) {
    // Zero-filled shift of y by q: overlap of y[0..m-1-|q|] against x. The
    // overlap windows are contiguous in both inputs, so each shift is one
    // dot plus one sum-of-squares kernel call over the overlap.
    const std::size_t overlap = static_cast<std::size_t>(m - std::abs(q));
    double xy;
    double yy;
    if (q >= 0) {
      xy = kt.dot(x.data() + q, y.data(), overlap);
      yy = kt.sum_squares(y.data(), overlap);
    } else {
      xy = kt.dot(x.data(), y.data() - q, overlap);
      yy = kt.sum_squares(y.data() - q, overlap);
    }
    double alpha = 0.0;
    double residual_sq = x_norm_sq;
    if (yy > 0.0) {
      alpha = xy / yy;
      residual_sq = x_norm_sq - alpha * xy;  // ||x||^2 - (x.yq)^2/||yq||^2
    }
    const double dist = std::sqrt(std::max(0.0, residual_sq) / x_norm_sq);
    if (dist < best.distance) {
      best.distance = dist;
      best.shift = q;
      best.alpha = alpha;
    }
  }
  return best;
}

KscAlignment KscAlignFft(tseries::SeriesView x, tseries::SeriesView y) {
  KSHAPE_CHECK_MSG(x.size() == y.size(), "KSC requires equal lengths");
  const int m = static_cast<int>(x.size());
  const double x_norm_sq = linalg::Dot(x, x);

  KscAlignment best;
  if (x_norm_sq == 0.0) {
    best.distance = linalg::Dot(y, y) == 0.0 ? 0.0 : 1.0;
    return best;
  }

  // Every shifted dot product in one transform: the overlap window of shift
  // q is exactly the lag-q cross-correlation, so xy(q) = cc[m-1+q] in the
  // shared lag layout (cc[i] = R_{i-(m-1)}).
  const std::vector<double> cc = fft::RfftCrossCorrelation(x, y);
  // ||y(q)||^2 over the overlap from prefix sums of y^2: window y[0..m-1-q]
  // for q >= 0, y[-q..m-1] for q < 0. Prefix sums of squares are monotone in
  // exact and floating-point arithmetic alike, so the differences below are
  // nonnegative.
  std::vector<double> prefix(static_cast<std::size_t>(m) + 1, 0.0);
  for (int i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + y[i] * y[i];

  best.distance = std::numeric_limits<double>::infinity();
  // Identical scan order and strict-less tie-break as KscAlign.
  for (int q = -(m - 1); q <= m - 1; ++q) {
    const double xy = cc[static_cast<std::size_t>(m - 1 + q)];
    const double yy = q >= 0 ? prefix[m - q] : prefix[m] - prefix[-q];
    double alpha = 0.0;
    double residual_sq = x_norm_sq;
    if (yy > 0.0) {
      alpha = xy / yy;
      residual_sq = x_norm_sq - alpha * xy;  // ||x||^2 - (x.yq)^2/||yq||^2
    }
    const double dist = std::sqrt(std::max(0.0, residual_sq) / x_norm_sq);
    if (dist < best.distance) {
      best.distance = dist;
      best.shift = q;
      best.alpha = alpha;
    }
  }
  return best;
}

double KscDistanceValue(tseries::SeriesView x, tseries::SeriesView y) {
  return KscAlign(x, y).distance;
}

Ksc::Ksc(KscOptions options) : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
}

namespace {

// KSC centroid: the unit vector mu minimizing
//   sum_i || b_i - (b_i . mu) mu ||^2 / ||b_i||^2
// over the aligned members b_i, i.e. the smallest eigenvector of
// M = sum_i (I - b_i b_i^T / (b_i^T b_i)). Equivalently the *dominant*
// eigenvector of P = sum_i b_i b_i^T / (b_i^T b_i), which power iteration
// finds matrix-free: P·v = Σ ŝᵢ(ŝᵢ·v) over the unit-scaled aligned members
// ŝᵢ = bᵢ/||bᵢ||, O(n_c·m) per step with P never formed — the matrix-free
// shape-extraction structure minus the centering.
tseries::Series KscCentroid(const tseries::SeriesBatch& pool,
                            const std::vector<std::size_t>& member_indices,
                            tseries::SeriesView previous,
                            common::Rng* rng, bool fft_align) {
  const std::size_t m = previous.size();
  if (member_indices.empty()) return tseries::Series(m, 0.0);

  const bool align = linalg::Norm(previous) > 0.0;
  std::vector<double> scaled_rows;  // Rows b_i/||b_i||.
  scaled_rows.reserve(member_indices.size() * m);
  std::vector<double> mean(m, 0.0);
  std::size_t used = 0;
  for (std::size_t idx : member_indices) {
    const tseries::SeriesView member = pool[idx];
    tseries::Series b =
        align ? tseries::ShiftWithZeroFill(
                    member, fft_align ? KscAlignFft(previous, member).shift
                                      : KscAlign(previous, member).shift)
              : tseries::Series(member.begin(), member.end());
    const double norm_sq = linalg::Dot(b, b);
    if (norm_sq == 0.0) continue;
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (const double x : b) scaled_rows.push_back(x * inv_norm);
    linalg::Axpy(inv_norm, b, &mean);
    ++used;
  }
  if (used == 0) return tseries::Series(m, 0.0);

  // The dense fallback (stalls only) materializes P from the same rows.
  linalg::RowPoolMatVec op(scaled_rows.data(), used, m);
  const linalg::MatVecFn matvec = [&](const std::vector<double>& v,
                                      std::vector<double>* out) {
    op.Apply(v, *out);
  };
  const linalg::MaterializeFn materialize = [&]() {
    linalg::Matrix dense(m, m);
    for (std::size_t r = 0; r < used; ++r) {
      dense.AddOuterProduct(
          std::span<const double>(scaled_rows.data() + r * m, m));
    }
    return dense;
  };
  std::vector<double> centroid =
      linalg::DominantEigenvectorOp(m, matvec, materialize, rng);
  if (linalg::Dot(centroid, mean) < 0.0) linalg::Scale(&centroid, -1.0);
  return centroid;
}

}  // namespace

ClusteringResult Ksc::Cluster(const tseries::SeriesBatch& series,
                              int k, common::Rng* rng) const {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= series.size());
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t n = series.size();
  const std::size_t m = series.length();

  // FFT alignment only when both the option and the process-wide gate say
  // yes, so KSHAPE_HALF_SPECTRUM=off restores the time-domain path globally.
  const bool fft_align =
      options_.use_fft_alignment && fft::HalfSpectrumEnabled();
  const auto distance = [&](tseries::SeriesView x, tseries::SeriesView y) {
    return fft_align ? KscAlignFft(x, y).distance : KscAlign(x, y).distance;
  };

  ClusteringResult result;
  result.assignments = RandomAssignments(n, k, rng);
  result.centroids.assign(k, tseries::Series(m, 0.0));

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;

    common::Stopwatch phase_clock;
    const auto groups = GroupByCluster(result.assignments, k);
    for (int j = 0; j < k; ++j) {
      result.centroids[j] = KscCentroid(series, groups[j], result.centroids[j],
                                        rng, fft_align);
    }
    result.extraction_seconds += phase_clock.ElapsedSeconds();
    phase_clock.Reset();

    for (std::size_t i = 0; i < n; ++i) {
      double min_dist = std::numeric_limits<double>::infinity();
      int best = result.assignments[i];
      for (int j = 0; j < k; ++j) {
        const double d = distance(series[i], result.centroids[j]);
        if (d < min_dist) {
          min_dist = d;
          best = j;
        }
      }
      result.assignments[i] = best;
    }

    // Re-seed empty clusters with the series farthest from its centroid —
    // the same policy as k-means and k-Shape (KSC previously let requested
    // clusters die silently). See RepairEmptyClusters for the tie-break
    // contract.
    result.empty_cluster_reseeds += RepairEmptyClusters(
        k, &result.assignments, [&](int j, std::size_t i) {
          return distance(series[i], result.centroids[j]);
        });
    result.assignment_seconds += phase_clock.ElapsedSeconds();

    result.iterations = iter + 1;
    if (result.assignments == previous) {
      result.converged = true;
      break;
    }
  }
  result.degenerate_centroids = CountDegenerateCentroids(result);
  AttachFittedModel(&result, Name());
  return result;
}

}  // namespace kshape::cluster
