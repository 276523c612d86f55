#include "core/multivariate.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "cluster/algorithm.h"
#include "fft/fft.h"
#include "linalg/matrix.h"
#include "model/assigner.h"
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

MultivariateSeries ShiftAllChannels(const MultivariateSeries& x, int shift) {
  MultivariateSeries out;
  out.channels.reserve(x.num_channels());
  for (const auto& channel : x.channels) {
    out.channels.push_back(tseries::ShiftWithZeroFill(channel, shift));
  }
  return out;
}

bool IsZeroNorm(const MultivariateSeries& x) {
  for (const auto& channel : x.channels) {
    if (linalg::Norm(channel) > 0.0) return false;
  }
  return true;
}

// Spectrum cache for one multivariate series: the padded forward transform of
// every channel plus the summed channel energy (the mSBD denominator piece).
// All channels share one common shift, so the assignment step can sum the
// per-channel cross-correlations recovered from these spectra — one inverse
// transform per channel per pair, with no forward transforms in the scan.
struct ChannelSpectra {
  std::vector<std::vector<fft::Complex>> spectra;
  double energy = 0.0;
};

ChannelSpectra MakeChannelSpectra(const MultivariateSeries& s,
                                  std::size_t fft_len) {
  ChannelSpectra out;
  out.spectra.reserve(s.num_channels());
  for (const auto& channel : s.channels) {
    out.spectra.push_back(fft::Spectrum(channel, fft_len));
    out.energy += linalg::Dot(channel, channel);
  }
  return out;
}

// mSBD from cached spectra; same formula as MultivariateSbd, same epsilon
// (not bitwise) agreement contract as the univariate SbdEngine.
double CachedMsbdDistance(const ChannelSpectra& x, const ChannelSpectra& y,
                          std::size_t m) {
  const double den = std::sqrt(x.energy * y.energy);
  if (den == 0.0) return 1.0;
  static thread_local std::vector<double> cc;
  static thread_local std::vector<double> total;
  total.assign(2 * m - 1, 0.0);
  for (std::size_t c = 0; c < x.spectra.size(); ++c) {
    fft::CrossCorrelationFromSpectra(x.spectra[c], y.spectra[c], m, &cc);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += cc[i];
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < total.size(); ++i) {
    if (total[i] > total[best]) best = i;
  }
  return 1.0 - total[best] / den;
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
  result.aligned_y = ShiftAllChannels(y, result.shift);
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

  const bool align = !IsZeroNorm(reference);

  // Align each member once with the common shift, then run the univariate
  // extraction per channel on the aligned copies.
  std::vector<std::vector<tseries::Series>> per_channel(d);
  for (const MultivariateSeries& member : members) {
    CheckCompatible(reference, member);
    const MultivariateSeries aligned =
        align ? MultivariateSbd(reference, member).aligned_y : member;
    for (std::size_t c = 0; c < d; ++c) {
      per_channel[c].push_back(aligned.channels[c]);
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    // Members are pre-aligned; pass a zero reference so the univariate
    // extraction does not re-shift individual channels.
    centroid.channels[c] = ExtractShape(per_channel[c],
                                        tseries::Series(m, 0.0), rng, options);
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
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= series.size());
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t n = series.size();
  const std::size_t d = series[0].num_channels();
  const std::size_t m = series[0].length();
  KSHAPE_CHECK(m >= 1);
  for (const auto& s : series) CheckCompatible(series[0], s);

  MultivariateClusteringResult result;
  result.assignments = cluster::RandomAssignments(n, k, rng);
  MultivariateSeries zero;
  zero.channels.assign(d, tseries::Series(m, 0.0));
  result.centroids.assign(k, zero);

  // Spectrum cache: each series' channel spectra are computed once per call
  // in a deterministic disjoint-write pre-pass; centroid spectra are
  // refreshed once per iteration below. Each mSBD assignment distance is
  // then d inverse transforms instead of d forward + inverse pairs, within a
  // tight tolerance of MultivariateSbd() (see core/sbd_engine.h).
  const std::size_t fft_len = fft::NextPowerOfTwo(2 * m - 1);
  std::vector<ChannelSpectra> series_cache(n);
  common::ParallelFor(0, n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      series_cache[i] = MakeChannelSpectra(series[i], fft_len);
    }
  });
  std::vector<ChannelSpectra> centroid_cache;

  const std::function<double(int, std::size_t)> assignment_distance =
      [&](int j, std::size_t i) {
        return CachedMsbdDistance(centroid_cache[j], series_cache[i], m);
      };
  // Engine-free (fft_len = 0): no queries, no pruning, no shift record.
  model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  model::Assigner assigner(assigner_options);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;

    // Refinement.
    const auto groups = cluster::GroupByCluster(result.assignments, k);
    for (int j = 0; j < k; ++j) {
      std::vector<MultivariateSeries> members;
      members.reserve(groups[j].size());
      for (std::size_t idx : groups[j]) members.push_back(series[idx]);
      result.centroids[j] = ExtractMultivariateShape(
          members, result.centroids[j], rng, options_.shape_options);
    }
    // k*d forward transforms per iteration; every centroid-to-series
    // distance below reuses them as d inverse transforms.
    centroid_cache.clear();
    for (int j = 0; j < k; ++j) {
      centroid_cache.push_back(MakeChannelSpectra(result.centroids[j], fft_len));
    }

    // Assignment: the univariate scan over the cached mSBD, engine-free.
    assigner.AssignBlockWith(assignment_distance, 0, n, &result.assignments);

    // Re-seed empty clusters from the farthest member of populated ones
    // (shared policy — see RepairEmptyClusters for the tie-break contract).
    result.empty_cluster_reseeds += cluster::RepairEmptyClusters(
        k, &result.assignments, assignment_distance);

    result.iterations = iter + 1;
    if (result.assignments == previous) {
      result.converged = true;
      break;
    }
  }

  // Flag final centroids that collapsed to zero norm in every channel while
  // still holding members (all-constant clusters).
  std::vector<std::size_t> sizes(k, 0);
  for (int a : result.assignments) ++sizes[a];
  for (int j = 0; j < k; ++j) {
    if (sizes[j] > 0 && IsZeroNorm(result.centroids[j])) {
      ++result.degenerate_centroids;
    }
  }
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
