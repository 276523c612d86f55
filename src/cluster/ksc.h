#ifndef KSHAPE_CLUSTER_KSC_H_
#define KSHAPE_CLUSTER_KSC_H_

#include <string>

#include "cluster/algorithm.h"
#include "distance/measure.h"

namespace kshape::cluster {

/// The K-Spectral Centroid scale/shift distance (Yang & Leskovec 2011;
/// §2.5 of the paper): d(x, y) = min over integer shifts q and scales a of
/// ||x - a * y(q)|| / ||x||, with y(q) the zero-filled shift of Equation 5
/// and a chosen optimally in closed form per shift. Zero-norm x is defined
/// to be at distance 0 from a zero-norm y and 1 from anything else.
double KscDistanceValue(tseries::SeriesView x, tseries::SeriesView y);

/// The optimal alignment behind KscDistanceValue.
struct KscAlignment {
  double distance = 0.0;
  int shift = 0;      // Applied to y.
  double alpha = 0.0; // Optimal scale applied to the shifted y.
};

/// Returns the optimal (shift, scale) of y toward x and the resulting
/// distance. Evaluates every shift with time-domain kernel calls: O(m^2).
KscAlignment KscAlign(tseries::SeriesView x, tseries::SeriesView y);

/// Same alignment in O(m log m): all per-shift dot products x . y(q) come
/// from ONE half-spectrum FFT cross-correlation (xy(q) = cc[m-1+q] in the
/// shared lag layout of fft::CrossCorrelationFft), and the per-shift
/// ||y(q)||^2 from prefix sums of y^2. The scan order and strict-less
/// tie-break match KscAlign exactly, so the two agree to FFT rounding (a
/// tight epsilon on distance/alpha; the argmin shift can differ only on
/// numerical near-ties).
KscAlignment KscAlignFft(tseries::SeriesView x, tseries::SeriesView y);

/// DistanceMeasure adapter for the KSC distance.
class KscDistance : public distance::DistanceMeasure {
 public:
  double Distance(tseries::SeriesView x,
                  tseries::SeriesView y) const override {
    return KscDistanceValue(x, y);
  }
  std::string Name() const override { return "KSC-dist"; }
};

/// Options for the KSC algorithm.
struct KscOptions {
  int max_iterations = 100;

  /// When true (default), centroid alignment and assignment distances run
  /// through KscAlignFft — O(m log m) per pair instead of O(m^2) — on the
  /// half-spectrum transform path. Combined with the process-wide
  /// KSHAPE_HALF_SPECTRUM gate (fft/rfft.h): KSHAPE_HALF_SPECTRUM=off
  /// restores the time-domain evaluation everywhere without touching call
  /// sites. False forces the time-domain path, kept for ablation.
  bool use_fft_alignment = true;
};

/// K-Spectral Centroid clustering: a k-means iteration whose assignment uses
/// the scale/shift-invariant KSC distance and whose centroid is the
/// eigenvector minimizing the summed normalized residuals — the smallest
/// eigenvector of M = sum_i (I - b_i b_i^T / (b_i^T b_i)) over the members
/// aligned to the previous centroid. One of the paper's scalable baselines
/// (Table 3).
class Ksc : public ClusteringAlgorithm {
 public:
  explicit Ksc(KscOptions options = {});

  ClusteringResult Cluster(const tseries::SeriesBatch& series, int k,
                           common::Rng* rng) const override;

  std::string Name() const override { return "KSC"; }

 private:
  KscOptions options_;
};

}  // namespace kshape::cluster

#endif  // KSHAPE_CLUSTER_KSC_H_
