// Equivalence and contract tests for the sharded out-of-core k-Shape driver
// (cluster::MiniBatchKShape over a store::ShardedSeriesStore).
//
// The load-bearing claim is the exact-mode contract: with mini-batching off,
// a sharded run is BIT-IDENTICAL to the in-memory KShape on the same series
// — same labels, same centroids, same iteration count, same distance
// telemetry — at every shard geometry, residency budget, thread count, SIMD
// backend, spectrum layout, pruning setting, and initialization. Everything
// the sharded driver streams (per-shard engines, one-accumulator-per-cluster
// refinement, global-index-order reductions, the shared repair policy) is
// pinned through that single equivalence.
//
// On top of it: mini-batch mode is deterministic for a fixed seed across
// threads / backends / shard geometry (the sample is drawn on the
// coordinating thread), a sampled run aligns every member exactly as a fresh
// NCC peak against its previous centroid would (the fit's shift record is
// only a cache of those peaks), its telemetry partitions B*k on sampled
// iterations and n*k on full passes, a batch of at least n forces the exact
// path, its clustering quality tracks the exact run (ARI sweep over seeds and
// both power-of-two and non-power-of-two lengths), and the TryCluster Status
// boundary rejects malformed stores instead of aborting.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/minibatch_kshape.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "core/kshape.h"
#include "core/sbd_engine.h"
#include "core/shape_extraction.h"
#include "data/generators.h"
#include "distance/euclidean.h"
#include "eval/metrics.h"
#include "fft/rfft.h"
#include "model/assigner.h"
#include "simd/dispatch.h"
#include "store/sharded_store.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace kshape {
namespace {

namespace fs = std::filesystem;
using cluster::ClusteringResult;
using cluster::MiniBatchKShape;
using common::StatusCode;
using store::ShardedSeriesStore;
using tseries::Series;

// Pins every process-wide gate to its documented default on entry (so a
// CI leg exporting KSHAPE_PRUNE=off cannot starve the tests that need
// pruning active — each case states its own
// configuration) and restores the defaults on exit, so cases can't leak
// configuration into each other.
struct ConfigGuard {
  ConfigGuard() {
    core::SetPruningEnabledForTesting(true);
    fft::SetHalfSpectrumEnabledForTesting(true);
  }
  ~ConfigGuard() {
    common::SetThreadCount(saved_threads);
    simd::SetBackendForTesting(saved_backend);
    core::SetPruningEnabledForTesting(true);
    fft::SetHalfSpectrumEnabledForTesting(true);
  }
  int saved_threads = common::ThreadCount();
  simd::Backend saved_backend = simd::ActiveBackend();
};

std::vector<Series> MakeCorpus(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
  }
  return series;
}

std::vector<int> CorpusLabels(std::size_t n) {
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
  return labels;
}

ClusteringResult RunInMemory(const core::KShapeOptions& options,
                             const std::vector<Series>& series, int k,
                             uint64_t seed) {
  const core::KShape kshape(options);
  common::Rng rng(seed);
  return kshape.Cluster(series, k, &rng);
}

// Spills `series` into a fresh sharded store under TempDir and clusters it.
// The store is returned too, so tests can assert residency telemetry.
std::pair<ClusteringResult, ShardedSeriesStore> RunSharded(
    const core::KShapeOptions& options, const std::vector<Series>& series,
    int k, uint64_t seed, const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/kshape_mb_" + tag;
  fs::remove_all(dir);
  common::StatusOr<ShardedSeriesStore> sharded =
      MiniBatchKShape::ShardBatch(series, dir, options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().message();
  ShardedSeriesStore store = std::move(sharded).value();
  const MiniBatchKShape driver(options);
  common::Rng rng(seed);
  ClusteringResult result = driver.Cluster(&store, k, &rng);
  return {std::move(result), std::move(store)};
}

// Bitwise equivalence of everything that must not depend on how the corpus
// was stored or scanned. Residency telemetry (shards_loaded/shard_evictions)
// is deliberately NOT here: it is a function of shard geometry.
void ExpectBitIdentical(const ClusteringResult& a, const ClusteringResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.assignments, b.assignments) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.empty_cluster_reseeds, b.empty_cluster_reseeds) << what;
  EXPECT_EQ(a.degenerate_centroids, b.degenerate_centroids) << what;
  EXPECT_EQ(a.distances_computed, b.distances_computed) << what;
  EXPECT_EQ(a.distances_pruned_bounds, b.distances_pruned_bounds) << what;
  EXPECT_EQ(a.distances_abandoned_partial, b.distances_abandoned_partial)
      << what;
  EXPECT_EQ(a.sampled_series, b.sampled_series) << what;
  EXPECT_EQ(a.seeding_stats.computed, b.seeding_stats.computed) << what;
  EXPECT_EQ(a.seeding_stats.pruned_bounds, b.seeding_stats.pruned_bounds)
      << what;
  EXPECT_EQ(a.seeding_stats.abandoned_partial,
            b.seeding_stats.abandoned_partial)
      << what;
  ASSERT_EQ(a.assignment_stats.size(), b.assignment_stats.size()) << what;
  for (std::size_t t = 0; t < a.assignment_stats.size(); ++t) {
    EXPECT_EQ(a.assignment_stats[t].computed, b.assignment_stats[t].computed)
        << what << " iter " << t;
    EXPECT_EQ(a.assignment_stats[t].pruned_bounds,
              b.assignment_stats[t].pruned_bounds)
        << what << " iter " << t;
    EXPECT_EQ(a.assignment_stats[t].abandoned_partial,
              b.assignment_stats[t].abandoned_partial)
        << what << " iter " << t;
  }
  ASSERT_EQ(a.centroids.size(), b.centroids.size()) << what;
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    ASSERT_EQ(a.centroids[j].size(), b.centroids[j].size()) << what;
    for (std::size_t t = 0; t < a.centroids[j].size(); ++t) {
      // EXPECT_EQ on doubles is exact equality — the bitwise contract.
      EXPECT_EQ(a.centroids[j][t], b.centroids[j][t])
          << what << " centroid " << j << " sample " << t;
    }
  }
}

core::KShapeOptions ShardedOptions(std::size_t shard_rows,
                                   std::size_t max_resident_shards) {
  core::KShapeOptions options;
  options.shard_rows = shard_rows;
  options.max_resident_shards = max_resident_shards;
  return options;
}

// ---------------------------------------------------------------------------
// Exact mode: sharded == in-memory, bit for bit.
// ---------------------------------------------------------------------------

TEST(MiniBatchKShapeTest, ExactModeMatchesInMemoryAcrossShardGeometry) {
  ConfigGuard guard;
  const std::size_t n = 36, m = 37;
  const int k = 3;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<Series> series = MakeCorpus(n, m, 100 + seed);
    const ClusteringResult reference =
        RunInMemory(core::KShapeOptions{}, series, k, seed);
    for (std::size_t shard_rows : {std::size_t{7}, std::size_t{16}, n}) {
      const auto [result, store] =
          RunSharded(ShardedOptions(shard_rows, 4), series, k, seed,
                     "geom_" + std::to_string(shard_rows));
      ExpectBitIdentical(result, reference,
                         "seed " + std::to_string(seed) + " shard_rows " +
                             std::to_string(shard_rows));
      EXPECT_EQ(result.sampled_series, 0);
      EXPECT_GE(result.shards_loaded,
                static_cast<long long>(store.num_shards()));
    }
  }
}

TEST(MiniBatchKShapeTest, ExactModeMatchesInMemoryWithPlusPlusSeeding) {
  ConfigGuard guard;
  const std::size_t n = 30, m = 48;
  const int k = 4;
  core::KShapeOptions options;
  options.init = core::KShapeInit::kPlusPlusSeeding;
  const std::vector<Series> series = MakeCorpus(n, m, 7);
  for (std::size_t shard_rows : {std::size_t{7}, n}) {
    core::KShapeOptions sharded = options;
    sharded.shard_rows = shard_rows;
    sharded.max_resident_shards = 2;
    // The pruned seeding reads the seed-to-seed distances off the pick's row
    // it already holds, so it fetches exactly the shards the exhaustive scan
    // does.
    ClusteringResult exhaustive;
    for (bool prune : {false, true}) {
      core::SetPruningEnabledForTesting(prune);
      const std::string what = "++ shard_rows " + std::to_string(shard_rows) +
                               " prune=" + (prune ? "1" : "0");
      const ClusteringResult reference = RunInMemory(options, series, k, 11);
      auto [result, store] =
          RunSharded(sharded, series, k, 11,
                     "pp_" + std::to_string(shard_rows) + (prune ? "p" : "x"));
      ExpectBitIdentical(result, reference, what);
      if (!prune) {
        exhaustive = std::move(result);
      } else {
        EXPECT_EQ(result.shards_loaded, exhaustive.shards_loaded) << what;
        EXPECT_EQ(result.assignments, exhaustive.assignments) << what;
        EXPECT_EQ(result.centroids, exhaustive.centroids) << what;
      }
    }
  }
}

TEST(MiniBatchKShapeTest, ExactModeMatchesInMemoryAcrossConfigMatrix) {
  ConfigGuard guard;
  const std::size_t n = 24;
  const int k = 3;
  // Per input and layout, the sharded pruned run must also match the
  // sharded exact scan in labels and centroids (so every iteration's
  // pruned labels matched, not just the last).
  struct Input {
    std::size_t m;
    uint64_t corpus_seed;
    uint64_t seed;
    std::size_t max_resident_shards;
  };
  for (const Input& input : {Input{31, 5, 17, 2}, Input{37, 53, 59, 4}}) {
    const std::vector<Series> series =
        MakeCorpus(n, input.m, input.corpus_seed);
    for (bool half : {true, false}) {
      ClusteringResult exact_sharded;
      for (bool prune : {false, true}) {
        fft::SetHalfSpectrumEnabledForTesting(half);
        core::SetPruningEnabledForTesting(prune);
        const std::string what = "m=" + std::to_string(input.m) +
                                 " half=" + (half ? "1" : "0") +
                                 " prune=" + (prune ? "1" : "0");
        const ClusteringResult reference =
            RunInMemory(core::KShapeOptions{}, series, k, input.seed);
        auto [result, store] = RunSharded(
            ShardedOptions(/*shard_rows=*/7, input.max_resident_shards),
            series, k, input.seed,
            "cfg_" + std::to_string(input.m) + (half ? "h" : "f") +
                (prune ? "p" : "x"));
        ExpectBitIdentical(result, reference, what);
        if (!prune) {
          // Exact non-pruned runs report the full n*k per iteration.
          EXPECT_EQ(result.distances_computed,
                    static_cast<long long>(n) * k * result.iterations);
          exact_sharded = std::move(result);
        } else {
          EXPECT_EQ(result.assignments, exact_sharded.assignments) << what;
          EXPECT_EQ(result.centroids, exact_sharded.centroids) << what;
          EXPECT_EQ(result.iterations, exact_sharded.iterations) << what;
        }
      }
    }
  }
}

TEST(MiniBatchKShapeTest, ExactModeBitIdenticalAcrossThreadsAndBackends) {
  ConfigGuard guard;
  const std::size_t n = 36, m = 64;
  const int k = 3;
  const std::vector<Series> series = MakeCorpus(n, m, 23);

  common::SetThreadCount(1);
  simd::SetBackendForTesting(simd::Backend::kScalar);
  const ClusteringResult reference =
      RunInMemory(core::KShapeOptions{}, series, k, 29);

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    simd::SetBackendForTesting(backend);
    for (int threads : {1, 2, 8}) {
      common::SetThreadCount(threads);
      const auto [result, store] = RunSharded(
          ShardedOptions(/*shard_rows=*/7, /*max_resident_shards=*/3),
          series, k, 29, "tb_" + std::to_string(threads));
      ExpectBitIdentical(result, reference,
                         "threads " + std::to_string(threads) + " backend " +
                             std::to_string(static_cast<int>(backend)));
    }
  }
}

TEST(MiniBatchKShapeTest, EvictionPressureDoesNotChangeResults) {
  ConfigGuard guard;
  const std::size_t n = 23, m = 37;
  const int k = 3;
  const std::vector<Series> series = MakeCorpus(n, m, 41);
  const ClusteringResult reference =
      RunInMemory(core::KShapeOptions{}, series, k, 43);
  // Budget of one shard: every cross-shard access thrashes, so correctness
  // here means the scans never read a stale or partially-reloaded shard.
  const auto [result, store] = RunSharded(
      ShardedOptions(/*shard_rows=*/5, /*max_resident_shards=*/1), series, k,
      43, "pressure");
  ExpectBitIdentical(result, reference, "eviction pressure");
  EXPECT_EQ(store.num_shards(), 5u);
  EXPECT_GT(result.shard_evictions, 0);
  EXPECT_GT(result.shards_loaded,
            static_cast<long long>(store.num_shards()));
  EXPECT_LE(store.resident_count(), 1u);
}

TEST(MiniBatchKShapeTest, RepairStreamsIdenticallyWhenClustersEmpty) {
  ConfigGuard guard;
  // k close to n makes empty clusters (and thus repair) likely under random
  // initial assignment; the equivalence must hold through the repair path.
  const std::size_t n = 12, m = 31;
  const int k = 8;
  int runs_with_reseeds = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const std::vector<Series> series = MakeCorpus(n, m, 300 + seed);
    const ClusteringResult reference =
        RunInMemory(core::KShapeOptions{}, series, k, seed);
    const auto [result, store] =
        RunSharded(ShardedOptions(/*shard_rows=*/5, /*max_resident_shards=*/1),
                   series, k, seed, "repair_" + std::to_string(seed));
    ExpectBitIdentical(result, reference, "repair seed " +
                                              std::to_string(seed));
    if (result.empty_cluster_reseeds > 0) ++runs_with_reseeds;
  }
  // The sweep must actually exercise repair, not just pass vacuously.
  EXPECT_GT(runs_with_reseeds, 0);
}

// ---------------------------------------------------------------------------
// Mini-batch mode.
// ---------------------------------------------------------------------------

TEST(MiniBatchKShapeTest, BatchOfAtLeastNRunsTheExactPath) {
  ConfigGuard guard;
  const std::size_t n = 30, m = 31;
  const int k = 3;
  const std::vector<Series> series = MakeCorpus(n, m, 61);

  core::KShapeOptions exact = ShardedOptions(7, 4);
  const auto [reference, ref_store] =
      RunSharded(exact, series, k, 67, "full_batch_exact");

  core::KShapeOptions minibatch = exact;
  minibatch.minibatch_size = n;
  const auto [result, store] =
      RunSharded(minibatch, series, k, 67, "full_batch");
  // A batch that covers the corpus samples nothing: every iteration is a
  // full pass and the run reproduces the exact one bit for bit.
  ExpectBitIdentical(result, reference, "minibatch_size = n");
  EXPECT_EQ(result.sampled_series, 0);
}

TEST(MiniBatchKShapeTest, SampledIterationTelemetryPartitionsBatchTimesK) {
  ConfigGuard guard;
  const std::size_t n = 36, m = 31;
  const int k = 3;
  const std::size_t batch = 12;
  core::KShapeOptions options = ShardedOptions(7, 4);
  options.minibatch_size = batch;
  options.refresh_period = 3;
  options.max_iterations = 9;
  const std::vector<Series> series = MakeCorpus(n, m, 71);
  const auto [result, store] = RunSharded(options, series, k, 73, "sampled");

  long long sampled_iters = 0;
  for (std::size_t t = 0; t < result.assignment_stats.size(); ++t) {
    const cluster::AssignmentIterationStats& s = result.assignment_stats[t];
    const bool full = (t + 1) % 3 == 0 ||
                      static_cast<int>(t) + 1 == options.max_iterations;
    const long long expected =
        (full ? static_cast<long long>(n) : static_cast<long long>(batch)) * k;
    EXPECT_EQ(s.computed + s.pruned_bounds + s.abandoned_partial, expected)
        << "iteration " << t;
    if (!full) {
      ++sampled_iters;
      // Movement bounds are off in mini-batch mode; only the stateless
      // spectral abandon may skip work.
      EXPECT_EQ(s.pruned_bounds, 0) << "iteration " << t;
    }
  }
  EXPECT_EQ(result.sampled_series,
            sampled_iters * static_cast<long long>(batch));
  EXPECT_GT(result.sampled_series, 0);
  // Convergence is only declared on full passes.
  if (result.converged) {
    EXPECT_EQ(result.iterations % 3 == 0 ||
                  result.iterations == options.max_iterations,
              true);
  }
}

// An in-memory mini-batch k-Shape run written out from the public pieces
// with no shift record: every refined member is aligned to its previous
// centroid by a fresh SbdEngine::MaxNcc against that centroid's query.
// ClusterBlocks records the winning peak's shift during assignment and
// reuses it, so it must agree with this bit for bit — unless a record entry
// outlives its centroid, as one written two passes back would.
ClusteringResult FreshPeakMiniBatch(const core::KShapeOptions& options,
                                    const std::vector<Series>& series, int k,
                                    uint64_t seed) {
  const std::size_t n = series.size();
  common::Rng rng(seed);
  const core::SbdEngine engine(series, core::CrossCorrelationImpl::kFft,
                               fft::HalfSpectrumEnabled(),
                               core::PruningEnabled());
  model::AssignerOptions assigner_options;  // No movement bounds.
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = engine.series_length();
  assigner_options.fft_len = engine.fft_length();
  model::Assigner assigner(assigner_options);
  ClusteringResult result;
  result.assignments = cluster::RandomAssignments(n, k, &rng);
  result.centroids.assign(k, Series(engine.series_length(), 0.0));
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;
    const bool full = (iter + 1) % options.refresh_period == 0 ||
                      iter + 1 == options.max_iterations;
    std::vector<std::size_t> rows(full ? n : 0);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    if (!full) {
      // Floyd's sample, drawn as ClusterBlocks draws it.
      std::set<std::size_t> chosen;
      for (std::size_t t = n - options.minibatch_size; t < n; ++t) {
        const auto r = static_cast<std::size_t>(
            rng.UniformInt(static_cast<int>(t + 1)));
        chosen.insert(chosen.count(r) ? t : r);
      }
      rows.assign(chosen.begin(), chosen.end());
      result.sampled_series += static_cast<long long>(rows.size());
    }
    std::vector<core::ShapeAccumulator> accumulators;
    for (int j = 0; j < k; ++j) {
      accumulators.emplace_back(result.centroids[j], options.shape_options);
    }
    for (const std::size_t i : rows) {
      const int j = result.assignments[i];
      const int shift = accumulators[j].aligns()
                            ? engine.MaxNcc(assigner.queries()[j], i).shift
                            : 0;
      accumulators[j].Add(series[i], shift);
    }
    for (int j = 0; j < k; ++j) {
      if (!full && accumulators[j].members_added() == 0) continue;
      result.centroids[j] =
          accumulators[j].Finish(&rng, options.shape_options).centroid;
    }
    assigner.BeginIteration(result.centroids);
    if (full) {
      assigner.AssignBlock(engine, 0, &result.assignments);
    } else {
      assigner.AssignSample(engine, 0, rows, 0, rows.size(),
                            &result.assignments);
    }
    const int reseeds = cluster::RepairEmptyClusters(
        k, &result.assignments, [&](int j, std::size_t i) {
          return engine.Distance(assigner.queries()[j], i);
        });
    result.empty_cluster_reseeds += reseeds;
    assigner.FinishIteration(reseeds);
    result.iterations = iter + 1;
    if (full && result.assignments == previous) {
      result.converged = true;
      break;
    }
  }
  return result;
}

TEST(MiniBatchKShapeTest, SampledPassesAlignLikeFreshPeaks) {
  ConfigGuard guard;
  // Three refresh periods of sampled passes on k = 4 noisy CBF: centroids
  // move between consecutive sampled passes, and most rows sit out a pass,
  // so rows scanned two passes back are refined after one they missed.
  const std::size_t n = 48, m = 64;
  const int k = 4;
  core::KShapeOptions options;
  options.minibatch_size = 16;
  options.refresh_period = 4;
  options.max_iterations = 12;
  for (const uint64_t seed : {3u, 4u, 5u, 6u}) {
    const std::vector<Series> series = MakeCorpus(n, m, 900 + seed);
    const ClusteringResult fit = RunInMemory(options, series, k, seed);
    const ClusteringResult fresh =
        FreshPeakMiniBatch(options, series, k, seed);
    EXPECT_GT(fit.sampled_series, 0);
    EXPECT_EQ(fit.sampled_series, fresh.sampled_series);
    EXPECT_EQ(fit.assignments, fresh.assignments) << "seed " << seed;
    EXPECT_EQ(fit.centroids, fresh.centroids) << "seed " << seed;
    EXPECT_EQ(fit.iterations, fresh.iterations) << "seed " << seed;
    EXPECT_EQ(fit.converged, fresh.converged) << "seed " << seed;
    EXPECT_EQ(fit.empty_cluster_reseeds, fresh.empty_cluster_reseeds);
  }
}

TEST(MiniBatchKShapeTest, PlainScanMinibatchComputesBatchTimesK) {
  ConfigGuard guard;
  core::SetPruningEnabledForTesting(false);
  const std::size_t n = 30, m = 31;
  const int k = 3;
  const std::size_t batch = 10;
  core::KShapeOptions options = ShardedOptions(7, 4);
  options.minibatch_size = batch;
  options.refresh_period = 4;
  options.max_iterations = 8;
  const std::vector<Series> series = MakeCorpus(n, m, 79);
  const auto [result, store] = RunSharded(options, series, k, 83, "plain_mb");
  for (std::size_t t = 0; t < result.assignment_stats.size(); ++t) {
    const cluster::AssignmentIterationStats& s = result.assignment_stats[t];
    const bool full = (t + 1) % 4 == 0 ||
                      static_cast<int>(t) + 1 == options.max_iterations;
    EXPECT_EQ(s.computed,
              (full ? static_cast<long long>(n)
                    : static_cast<long long>(batch)) * k);
    EXPECT_EQ(s.pruned_bounds, 0);
    EXPECT_EQ(s.abandoned_partial, 0);
  }
}

TEST(MiniBatchKShapeTest, MinibatchDeterministicAcrossThreadsAndBackends) {
  ConfigGuard guard;
  const std::size_t n = 36, m = 64;
  const int k = 3;
  core::KShapeOptions options = ShardedOptions(7, 3);
  options.minibatch_size = 12;
  options.refresh_period = 3;
  options.max_iterations = 9;
  const std::vector<Series> series = MakeCorpus(n, m, 89);

  common::SetThreadCount(1);
  simd::SetBackendForTesting(simd::Backend::kScalar);
  const auto [reference, ref_store] =
      RunSharded(options, series, k, 97, "mb_ref");
  EXPECT_GT(reference.sampled_series, 0);

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    simd::SetBackendForTesting(backend);
    for (int threads : {2, 8}) {
      common::SetThreadCount(threads);
      const auto [result, store] =
          RunSharded(options, series, k, 97,
                     "mb_t" + std::to_string(threads));
      ExpectBitIdentical(result, reference,
                         "minibatch threads " + std::to_string(threads));
    }
  }
}

TEST(MiniBatchKShapeTest, MinibatchDeterministicAcrossShardGeometry) {
  ConfigGuard guard;
  const std::size_t n = 36, m = 37;
  const int k = 3;
  const std::vector<Series> series = MakeCorpus(n, m, 101);
  core::KShapeOptions base = ShardedOptions(7, 3);
  base.minibatch_size = 12;
  base.refresh_period = 3;
  base.max_iterations = 9;
  const auto [reference, ref_store] =
      RunSharded(base, series, k, 103, "mb_g7");
  EXPECT_GT(reference.sampled_series, 0);
  for (std::size_t shard_rows : {std::size_t{16}, n}) {
    core::KShapeOptions options = base;
    options.shard_rows = shard_rows;
    const auto [result, store] =
        RunSharded(options, series, k, 103,
                   "mb_g" + std::to_string(shard_rows));
    ExpectBitIdentical(result, reference,
                       "minibatch shard_rows " + std::to_string(shard_rows));
  }
  // The in-memory KShape runs the same driver over the batch as one block,
  // so the same minibatch_size samples, refines and assigns identically.
  ExpectBitIdentical(RunInMemory(base, series, k, 103), reference,
                     "minibatch in memory");
}

TEST(MiniBatchKShapeTest, MinibatchQualityTracksExactAcrossSeedsAndLengths) {
  ConfigGuard guard;
  const std::size_t n = 60;
  const int k = 3;
  const std::vector<int> labels = CorpusLabels(n);
  // 61 pads to a non-trivial power of two (Bluestein territory for the
  // direct Sbd path), 64 is the clean power-of-two case. Individual seeds
  // are noisy in both directions (mini-batch sometimes lands in a better
  // local optimum, sometimes a worse one), so quality is asserted on the
  // seed-sweep mean per length, plus a far-above-chance floor per run.
  for (std::size_t m : {std::size_t{61}, std::size_t{64}}) {
    double sum_full = 0.0, sum_mb = 0.0;
    const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5};
    for (uint64_t seed : seeds) {
      const std::vector<Series> series = MakeCorpus(n, m, 500 + m + seed);
      core::KShapeOptions exact = ShardedOptions(16, 4);
      const auto [full, full_store] = RunSharded(
          exact, series, k, seed, "ari_full_" + std::to_string(m));
      core::KShapeOptions mb = exact;
      mb.minibatch_size = 20;
      mb.refresh_period = 3;
      const auto [sampled, sampled_store] = RunSharded(
          mb, series, k, seed, "ari_mb_" + std::to_string(m));
      const double ari_full =
          eval::AdjustedRandIndex(labels, full.assignments);
      const double ari_mb =
          eval::AdjustedRandIndex(labels, sampled.assignments);
      // A random partition scores ~0; every run must stay well clear of it.
      EXPECT_GT(ari_mb, 0.1)
          << "m=" << m << " seed=" << seed << " exact ARI " << ari_full;
      sum_full += ari_full;
      sum_mb += ari_mb;
    }
    const double mean_full = sum_full / static_cast<double>(seeds.size());
    const double mean_mb = sum_mb / static_cast<double>(seeds.size());
    // Mini-batching trades per-iteration coverage for throughput; on
    // average it must stay in the same quality regime as the exact run.
    EXPECT_GE(mean_mb, mean_full - 0.25)
        << "m=" << m << " exact mean ARI " << mean_full
        << " minibatch mean ARI " << mean_mb;
    EXPECT_GT(mean_mb, 0.3) << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Status boundary and misuse.
// ---------------------------------------------------------------------------

TEST(MiniBatchKShapeTest, TryClusterRejectsMalformedInputs) {
  ConfigGuard guard;
  const MiniBatchKShape driver(ShardedOptions(4, 2));
  common::Rng rng(7);

  EXPECT_EQ(driver.TryCluster(nullptr, 2, &rng).status().code(),
            StatusCode::kInvalidArgument);

  const std::vector<Series> series = MakeCorpus(10, 16, 7);
  const std::string dir = ::testing::TempDir() + "/kshape_mb_try";
  fs::remove_all(dir);
  common::StatusOr<ShardedSeriesStore> sharded =
      MiniBatchKShape::ShardBatch(series, dir, ShardedOptions(4, 2));
  ASSERT_TRUE(sharded.ok());
  ShardedSeriesStore store = std::move(sharded).value();

  EXPECT_EQ(driver.TryCluster(&store, 2, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(driver.TryCluster(&store, 0, &rng).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(driver.TryCluster(&store, 11, &rng).status().code(),
            StatusCode::kOutOfRange);

  ShardedSeriesStore unsealed;
  EXPECT_EQ(driver.TryCluster(&unsealed, 2, &rng).status().code(),
            StatusCode::kFailedPrecondition);

  // The happy path still clusters.
  common::StatusOr<ClusteringResult> ok = driver.TryCluster(&store, 2, &rng);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(ok.value().assignments.size(), series.size());
}

TEST(MiniBatchKShapeTest, TryClusterRejectsNonFiniteSeries) {
  ConfigGuard guard;
  const std::string dir = ::testing::TempDir() + "/kshape_mb_nonfinite";
  fs::remove_all(dir);
  common::StatusOr<ShardedSeriesStore> created = ShardedSeriesStore::Create(
      dir, store::ShardedStoreOptions{.shard_rows = 3,
                                      .max_resident_shards = 2});
  ASSERT_TRUE(created.ok());
  ShardedSeriesStore store = std::move(created).value();
  const std::vector<Series> series = MakeCorpus(7, 16, 11);
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i == 5) {
      Series bad = series[i];
      bad[3] = std::numeric_limits<double>::quiet_NaN();
      store.Append(bad);
    } else {
      store.Append(series[i]);
    }
  }
  ASSERT_TRUE(store.Seal().ok());

  const MiniBatchKShape driver(ShardedOptions(3, 2));
  common::Rng rng(13);
  common::StatusOr<ClusteringResult> result =
      driver.TryCluster(&store, 2, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("series 5"), std::string::npos);
  EXPECT_NE(result.status().message().find("non-finite"), std::string::npos);
}

TEST(MiniBatchKShapeTest, TryClusterCatchesTruncationBehindTheHandle) {
  ConfigGuard guard;
  const std::vector<Series> series = MakeCorpus(8, 16, 17);
  const std::string dir = ::testing::TempDir() + "/kshape_mb_truncated";
  fs::remove_all(dir);
  common::StatusOr<ShardedSeriesStore> sharded =
      MiniBatchKShape::ShardBatch(series, dir, ShardedOptions(4, 2));
  ASSERT_TRUE(sharded.ok());
  ShardedSeriesStore store = std::move(sharded).value();
  store.EvictAll();
  fs::resize_file(dir + "/shard_00001.bin", 16);

  const MiniBatchKShape driver(ShardedOptions(4, 2));
  common::Rng rng(19);
  common::StatusOr<ClusteringResult> result =
      driver.TryCluster(&store, 2, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MiniBatchKShapeTest, ShardBatchRejectsAnEmptyBatch) {
  const std::vector<Series> empty;
  common::StatusOr<ShardedSeriesStore> sharded = MiniBatchKShape::ShardBatch(
      empty, ::testing::TempDir() + "/kshape_mb_empty", ShardedOptions(4, 2));
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(MiniBatchKShapeDeathTest, RejectsCustomAssignmentDistances) {
  const distance::EuclideanDistance euclid;
  core::KShapeOptions options;
  options.assignment_distance = &euclid;
  EXPECT_DEATH(MiniBatchKShape{options}, "not streamable");
}

TEST(MiniBatchKShapeDeathTest, ClusterRequiresASealedStore) {
  ConfigGuard guard;
  const std::string dir = ::testing::TempDir() + "/kshape_mb_unsealed";
  fs::remove_all(dir);
  common::StatusOr<ShardedSeriesStore> created = ShardedSeriesStore::Create(
      dir, store::ShardedStoreOptions{.shard_rows = 4});
  ASSERT_TRUE(created.ok());
  ShardedSeriesStore store = std::move(created).value();
  store.Append(Series(16, 1.0));
  const MiniBatchKShape driver;
  common::Rng rng(3);
  EXPECT_DEATH(driver.Cluster(&store, 1, &rng), "sealed");
}

}  // namespace
}  // namespace kshape
