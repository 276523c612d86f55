#include "core/multivariate.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/kshape.h"
#include "fft/fft.h"
#include "linalg/matrix.h"
#include "tseries/normalization.h"

namespace kshape::core {

void ZNormalizeMultivariate(MultivariateSeries* series) {
  for (tseries::Series& channel : series->channels) {
    tseries::ZNormalizeInPlace(&channel);
  }
}

namespace {

void CheckCompatible(const MultivariateSeries& x,
                     const MultivariateSeries& y) {
  KSHAPE_CHECK_MSG(x.num_channels() == y.num_channels(),
                   "channel count mismatch");
  KSHAPE_CHECK(x.num_channels() >= 1);
  KSHAPE_CHECK_MSG(x.length() == y.length(), "length mismatch");
  for (const auto& channel : x.channels) {
    KSHAPE_CHECK_MSG(channel.size() == x.length(), "ragged channels");
  }
  for (const auto& channel : y.channels) {
    KSHAPE_CHECK_MSG(channel.size() == y.length(), "ragged channels");
  }
}

}  // namespace

MultivariateSbdResult MultivariateSbd(const MultivariateSeries& x,
                                      const MultivariateSeries& y) {
  CheckCompatible(x, y);
  const std::size_t m = x.length();

  MultivariateSbdResult result;
  double x_energy = 0.0;
  double y_energy = 0.0;
  for (std::size_t c = 0; c < x.num_channels(); ++c) {
    x_energy += linalg::Dot(x.channels[c], x.channels[c]);
    y_energy += linalg::Dot(y.channels[c], y.channels[c]);
  }
  const double den = std::sqrt(x_energy * y_energy);
  if (den == 0.0) {
    result.distance = 1.0;
    result.aligned_y = y;
    return result;
  }

  // Sum the per-channel cross-correlation sequences: one common shift.
  std::vector<double> total(2 * m - 1, 0.0);
  for (std::size_t c = 0; c < x.num_channels(); ++c) {
    const std::vector<double> cc =
        fft::CrossCorrelationFft(x.channels[c], y.channels[c]);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += cc[i];
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < total.size(); ++i) {
    if (total[i] > total[best]) best = i;
  }
  result.shift = static_cast<int>(best) - static_cast<int>(m - 1);
  result.distance = 1.0 - total[best] / den;
  for (const auto& channel : y.channels) {
    result.aligned_y.channels.push_back(
        tseries::ShiftWithZeroFill(channel, result.shift));
  }
  return result;
}

MultivariateSeries ExtractMultivariateShape(
    const std::vector<MultivariateSeries>& members,
    const MultivariateSeries& reference, common::Rng* rng,
    const ShapeExtractionOptions& options) {
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t d = reference.num_channels();
  const std::size_t m = reference.length();

  MultivariateSeries centroid;
  centroid.channels.assign(d, tseries::Series(m, 0.0));
  if (members.empty()) return centroid;

  // One accumulator per channel, all fed the member's one mSBD shift whenever
  // the reference as a whole has nonzero norm (ClusterBlocks' rule).
  const bool align = std::any_of(
      reference.channels.begin(), reference.channels.end(),
      [](const tseries::Series& c) { return linalg::Norm(c) > 0.0; });
  std::vector<ShapeAccumulator> accumulators;
  accumulators.reserve(d);
  for (std::size_t c = 0; c < d; ++c) {
    accumulators.emplace_back(reference.channels[c], options, align);
  }
  for (const MultivariateSeries& member : members) {
    CheckCompatible(reference, member);
    const int shift = align ? MultivariateSbd(reference, member).shift : 0;
    for (std::size_t c = 0; c < d; ++c) {
      accumulators[c].Add(member.channels[c], shift);
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    centroid.channels[c] = accumulators[c].Finish(rng, options).centroid;
  }
  return centroid;
}

MultivariateKShape::MultivariateKShape(MultivariateKShapeOptions options)
    : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
}

MultivariateClusteringResult MultivariateKShape::Cluster(
    const std::vector<MultivariateSeries>& series, int k,
    common::Rng* rng) const {
  KSHAPE_CHECK(!series.empty());
  const std::size_t d = series[0].num_channels();
  const std::size_t m = series[0].length();
  for (const auto& s : series) CheckCompatible(series[0], s);

  // Each series becomes one channel-major row of d·m values.
  tseries::SeriesStore rows;
  rows.Reserve(series.size(), d * m);
  tseries::Series row(d * m);
  for (const MultivariateSeries& s : series) {
    for (std::size_t c = 0; c < d; ++c) {
      std::copy(s.channels[c].begin(), s.channels[c].end(),
                row.begin() + c * m);
    }
    rows.Append(row);
  }
  const KShapeOptions options{.max_iterations = options_.max_iterations,
                              .init = KShapeInit::kRandomAssignment,
                              .shape_options = options_.shape_options};
  cluster::ClusteringResult fit =
      ClusterBatch(options, rows, d, k, rng, "multivariate k-Shape");

  MultivariateClusteringResult result;
  result.assignments = std::move(fit.assignments);
  for (const tseries::Series& centroid : fit.centroids) {
    MultivariateSeries& out = result.centroids.emplace_back();
    for (std::size_t c = 0; c < d; ++c) {
      out.channels.emplace_back(centroid.begin() + c * m,
                                centroid.begin() + (c + 1) * m);
    }
  }
  result.iterations = fit.iterations;
  result.converged = fit.converged;
  result.empty_cluster_reseeds = fit.empty_cluster_reseeds;
  result.degenerate_centroids = cluster::CountDegenerateCentroids(fit);
  return result;
}

common::Status ValidateMultivariateInputs(
    const std::vector<MultivariateSeries>& series, int k) {
  if (series.empty()) {
    return common::Status::InvalidArgument("empty dataset: no series to cluster");
  }
  const std::size_t d = series[0].num_channels();
  const std::size_t m = series[0].length();
  if (d == 0) {
    return common::Status::InvalidArgument("series 0 has no channels");
  }
  if (m == 0) {
    return common::Status::InvalidArgument("series 0 has empty channels");
  }
  for (std::size_t i = 0; i < series.size(); ++i) {
    const MultivariateSeries& s = series[i];
    if (s.num_channels() != d) {
      return common::Status::InvalidArgument(
          "series " + std::to_string(i) + ": channel count " +
          std::to_string(s.num_channels()) + " does not match series 0 (" +
          std::to_string(d) + ")");
    }
    for (std::size_t c = 0; c < d; ++c) {
      if (s.channels[c].size() != m) {
        return common::Status::InvalidArgument(
            "series " + std::to_string(i) + " channel " + std::to_string(c) +
            ": length " + std::to_string(s.channels[c].size()) +
            " does not match series 0 (" + std::to_string(m) +
            "); condition the input first (tseries/conditioning.h)");
      }
      for (double v : s.channels[c]) {
        if (!std::isfinite(v)) {
          return common::Status::InvalidArgument(
              "series " + std::to_string(i) + " channel " + std::to_string(c) +
              " contains a non-finite value; condition the input first "
              "(tseries/conditioning.h)");
        }
      }
    }
  }
  if (k < 1 || static_cast<std::size_t>(k) > series.size()) {
    return common::Status::OutOfRange(
        "k = " + std::to_string(k) + " outside [1, n = " +
        std::to_string(series.size()) + "]");
  }
  return common::Status::OK();
}

common::StatusOr<MultivariateClusteringResult> MultivariateKShape::TryCluster(
    const std::vector<MultivariateSeries>& series, int k,
    common::Rng* rng) const {
  if (rng == nullptr) {
    return common::Status::InvalidArgument("rng must not be null");
  }
  common::Status status = ValidateMultivariateInputs(series, k);
  if (!status.ok()) return status;
  return Cluster(series, k, rng);
}

}  // namespace kshape::core
