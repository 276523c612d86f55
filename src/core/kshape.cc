#include "core/kshape.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "fft/rfft.h"
#include "model/assigner.h"

namespace kshape::core {

namespace {

// The SBD evaluations of one D^2 scan are independent per series, so they
// run on the thread pool; each index writes only d2[i] / nearest[i]. The
// RNG-driven sampling between scans stays sequential, and `total` is reduced
// over the materialized d2 array in index order — so the seeding consumes
// exactly the same random stream and picks the same seeds at every thread
// count. Grain 16 amortizes chunk-claiming over the cheap per-index work.
constexpr std::size_t kScanGrain = 16;

// k-means++-style seeding under SBD: D^2 sampling of k seed series, then a
// nearest-seed initial assignment. With a spectrum cache (`engine` non-null)
// every seed-to-series distance is a single inverse transform on spectra
// computed once for the whole Cluster() call; both seed and candidate are
// in-set, so no forward transform runs inside the scans at all.
std::vector<int> PlusPlusAssignments(const tseries::SeriesBatch& series,
                                     int k, common::Rng* rng,
                                     const SbdEngine* engine) {
  const std::size_t n = series.size();
  std::vector<std::size_t> seeds;
  seeds.push_back(static_cast<std::size_t>(rng->UniformInt(
      static_cast<int>(n))));

  auto seed_distance = [&](std::size_t seed, std::size_t i) {
    return engine != nullptr ? engine->Distance(seed, i)
                             : Sbd(series[seed], series[i]).distance;
  };

  // d2[i] = squared SBD to the nearest chosen seed.
  std::vector<double> d2(n);
  common::ParallelFor(0, n, kScanGrain,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double d = seed_distance(seeds[0], i);
      d2[i] = d * d;
    }
  });
  std::vector<int> nearest(n, 0);

  while (static_cast<int>(seeds.size()) < k) {
    double total = 0.0;
    for (double v : d2) total += v;
    std::size_t pick = 0;
    if (total <= 0.0) {
      // All series coincide with a seed; any unused index works.
      pick = static_cast<std::size_t>(rng->UniformInt(static_cast<int>(n)));
    } else {
      double threshold = rng->Uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        threshold -= d2[i];
        if (threshold <= 0.0) {
          pick = i;
          break;
        }
      }
    }
    seeds.push_back(pick);
    const int seed_index = static_cast<int>(seeds.size()) - 1;
    common::ParallelFor(0, n, kScanGrain,
                        [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const double d = seed_distance(pick, i);
        if (d * d < d2[i]) {
          d2[i] = d * d;
          nearest[i] = seed_index;
        }
      }
    });
  }
  return nearest;
}

}  // namespace

KShape::KShape(KShapeOptions options) : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
  name_ = options_.assignment_distance == nullptr
              ? "k-Shape"
              : "k-Shape+" + options_.assignment_distance->Name();
}

cluster::ClusteringResult KShape::Cluster(
    const tseries::SeriesBatch& series, int k, common::Rng* rng) const {
  KSHAPE_CHECK(!series.empty());
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= series.size());
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t n = series.size();
  const std::size_t m = series.length();

  // Bound-driven pruning runs only on the cached-SBD path (it needs the
  // engine's spectra for the bounds) and only when both the option and the
  // process-wide KSHAPE_PRUNE gate agree.
  const bool pruning = options_.use_pruning && PruningEnabled() &&
                       options_.assignment_distance == nullptr;

  // Spectrum cache: every series' forward FFT is computed once here and
  // reused by every ++-seeding scan and every assignment-step distance in
  // every iteration. Centroid spectra are refreshed once per iteration (k
  // forwards) below, so each centroid-to-series distance is a single inverse
  // transform. Disabled for custom assignment distances (the engine only
  // accelerates SBD).
  std::optional<SbdEngine> engine;
  if (options_.assignment_distance == nullptr) {
    engine.emplace(series, CrossCorrelationImpl::kFft,
                   options_.use_half_spectrum && fft::HalfSpectrumEnabled(),
                   /*build_bound_planes=*/pruning);
  }

  cluster::ClusteringResult result;
  result.assignments =
      options_.init == KShapeInit::kPlusPlusSeeding
          ? PlusPlusAssignments(series, k, rng,
                                engine ? &*engine : nullptr)
          : cluster::RandomAssignments(n, k, rng);
  result.centroids.assign(k, tseries::Series(m, 0.0));

  // The one assignment implementation (movement bounds + spectral abandon +
  // telemetry live in model::Assigner). The k-Shape loop keeps only the
  // iteration protocol: snapshot → refine → begin → assign → repair → finish.
  model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  assigner_options.fft_len = engine ? engine->fft_length() : 0;
  assigner_options.use_half_spectrum = engine && engine->half_spectrum();
  assigner_options.use_pruning = pruning;
  assigner_options.use_movement_bounds = pruning;
  assigner_options.prune_margin = options_.prune_margin;
  assigner_options.verify = pruning && options_.verify_pruning;
  model::Assigner assigner(assigner_options);

  auto assignment_distance = [&](int j, std::size_t i) {
    if (engine) return engine->Distance(assigner.queries()[j], i);
    return options_.assignment_distance->Distance(result.centroids[j],
                                                  series[i]);
  };

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;
    assigner.SnapshotCentroids(result.centroids);

    // Refinement step: recompute each centroid by shape extraction, using
    // the previous centroid as the alignment reference (Algorithm 3, 5-10).
    // A degenerate extraction (all members zero-norm) keeps the zero centroid
    // as its documented representative and is surfaced via the result flag.
    common::Stopwatch phase_clock;
    const auto groups = cluster::GroupByCluster(result.assignments, k);
    result.degenerate_centroids = 0;
    for (int j = 0; j < k; ++j) {
      ExtractedShape extracted =
          ExtractShapeIndexedFlagged(series, groups[j], result.centroids[j],
                                     rng, options_.shape_options);
      result.centroids[j] = std::move(extracted.centroid);
      if (extracted.degenerate && !groups[j].empty()) {
        ++result.degenerate_centroids;
      }
    }
    result.extraction_seconds += phase_clock.ElapsedSeconds();
    phase_clock.Reset();
    // Assignment step: move each series to its closest centroid
    // (Algorithm 3, lines 11-17), delegated entirely to the Assigner.
    // BeginIteration mints this iteration's centroid queries (k forward
    // transforms; every centroid-to-series distance below reuses them as a
    // single inverse transform) and derives the movement-bound shifts.
    assigner.BeginIteration(result.centroids);
    if (engine) {
      assigner.AssignBlock(*engine, 0, &result.assignments);
    } else {
      assigner.AssignBlockWith(assignment_distance, 0, n,
                               &result.assignments);
    }
    const cluster::AssignmentIterationStats stats =
        assigner.iteration_stats();
    result.pruned_label_mismatches += assigner.iteration_verify_mismatches();
    result.assignment_stats.push_back(stats);
    result.distances_computed += stats.computed;
    result.distances_pruned_bounds += stats.pruned_bounds;
    result.distances_abandoned_partial += stats.abandoned_partial;

    // Re-seed clusters that lost all members with the series farthest from
    // its current centroid, so every requested cluster stays populated
    // (shared policy — see RepairEmptyClusters for the tie-break contract).
    const int reseeds =
        cluster::RepairEmptyClusters(k, &result.assignments,
                                     assignment_distance);
    result.empty_cluster_reseeds += reseeds;
    assigner.FinishIteration(reseeds);
    result.assignment_seconds += phase_clock.ElapsedSeconds();

    result.iterations = iter + 1;
    if (result.assignments == previous) {
      result.converged = true;
      break;
    }
  }
  cluster::AttachFittedModel(&result, Name());
  return result;
}

}  // namespace kshape::core
