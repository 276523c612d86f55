#ifndef KSHAPE_CORE_MULTIVARIATE_H_
#define KSHAPE_CORE_MULTIVARIATE_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/shape_extraction.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// Multivariate extension of k-Shape (future-work direction of the paper,
/// later developed in the k-Shape follow-up literature): a d-channel series
/// is d equal-length univariate channels observed simultaneously, and all
/// channels must shift TOGETHER — a heartbeat recorded by several leads is
/// delayed by one offset, not one per lead.
struct MultivariateSeries {
  /// channels[c] is the c-th univariate channel; all share one length.
  std::vector<tseries::Series> channels;

  std::size_t num_channels() const { return channels.size(); }
  std::size_t length() const {
    return channels.empty() ? 0 : channels[0].size();
  }
};

/// Z-normalizes every channel independently.
void ZNormalizeMultivariate(MultivariateSeries* series);

/// Result of the multivariate SBD.
struct MultivariateSbdResult {
  double distance = 0.0;       // 1 - max_w summed NCCc, in [0, 2].
  int shift = 0;               // The single common shift applied to y.
  MultivariateSeries aligned_y;
};

/// Multivariate shape-based distance: the cross-correlation sequences of the
/// channels are summed per shift (one common lag for all channels) and
/// normalized by the geometric mean of the total autocorrelations:
///   mSBD(x, y) = 1 - max_w  sum_c CC_w(x_c, y_c)
///                          / sqrt(sum_c R0(x_c,x_c) * sum_c R0(y_c,y_c)).
/// Reduces exactly to Sbd() for d = 1. Requires matching channel counts and
/// lengths; zero-norm inputs yield distance 1.
MultivariateSbdResult MultivariateSbd(const MultivariateSeries& x,
                                      const MultivariateSeries& y);

/// Multivariate shape extraction: every channel of a member is shifted by its
/// one common mSBD shift against the reference, then each channel's centroid
/// is extracted with the univariate Algorithm 2, warm-started from that
/// channel of the reference where it is nonzero. An all-zero reference skips
/// alignment. MultivariateKShape refines by the same rule.
MultivariateSeries ExtractMultivariateShape(
    const std::vector<MultivariateSeries>& members,
    const MultivariateSeries& reference, common::Rng* rng,
    const ShapeExtractionOptions& options = {});

/// Output of MultivariateKShape.
struct MultivariateClusteringResult {
  std::vector<int> assignments;
  std::vector<MultivariateSeries> centroids;
  int iterations = 0;
  bool converged = false;

  /// Repair telemetry, mirroring cluster::ClusteringResult: empty-cluster
  /// re-seeds across all iterations, and final centroids whose every channel
  /// is zero-norm while the cluster holds members.
  int empty_cluster_reseeds = 0;
  int degenerate_centroids = 0;
};

/// The data contract MultivariateKShape::Cluster assumes: a non-empty set of
/// series agreeing in channel count and per-channel length, with >= 1
/// channel, no empty channels, only finite values, and 1 <= k <= n. Returns
/// InvalidArgument/OutOfRange describing the first violation.
common::Status ValidateMultivariateInputs(
    const std::vector<MultivariateSeries>& series, int k);

/// Options for multivariate k-Shape.
struct MultivariateKShapeOptions {
  int max_iterations = 100;
  ShapeExtractionOptions shape_options;
};

/// k-Shape over multivariate series: ClusterBatch (the one Algorithm 3 loop,
/// pruning included) over channel-major rows, with mSBD assignments and
/// per-channel shape extraction. One channel is KShape with random
/// initialization, bit for bit.
class MultivariateKShape {
 public:
  explicit MultivariateKShape(MultivariateKShapeOptions options = {});

  /// Partitions `series` into k clusters. All series must agree in channel
  /// count and length; channels should be z-normalized. Violations of the
  /// data contract are programmer errors here and abort; untrusted data must
  /// go through TryCluster.
  MultivariateClusteringResult Cluster(
      const std::vector<MultivariateSeries>& series, int k,
      common::Rng* rng) const;

  /// Library-boundary entry point for untrusted data: validates via
  /// ValidateMultivariateInputs and returns a Status error instead of
  /// aborting on malformed input.
  common::StatusOr<MultivariateClusteringResult> TryCluster(
      const std::vector<MultivariateSeries>& series, int k,
      common::Rng* rng) const;

 private:
  MultivariateKShapeOptions options_;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_MULTIVARIATE_H_
