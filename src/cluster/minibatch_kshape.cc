#include "cluster/minibatch_kshape.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "core/shape_extraction.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "model/assigner.h"

namespace kshape::cluster {

namespace {

// Same grain as the in-memory assignment/seeding scans — the per-index work
// is identical, only the [begin, end) range is per-shard here. Chunking does
// not affect results (disjoint writes of pure per-index values), so per-shard
// chunks and global chunks land on the same bits.
constexpr std::size_t kScanGrain = 16;

// Per-shard SbdEngine cache riding the store's residency layer: Get()
// acquires the shard (possibly evicting another), drops engines whose shards
// were evicted, and (re)builds the engine when the shard was (re)loaded —
// keyed by the shard's generation stamp. With the whole store resident the
// engines persist across iterations; under pressure they rebuild with the
// shard, so engine memory is bounded by the same residency budget as the
// samples. Coordinator-thread only (like Acquire itself).
class ShardEngines {
 public:
  ShardEngines(store::ShardedSeriesStore* store, bool use_half_spectrum,
               bool build_bound_planes)
      : store_(store), half_(use_half_spectrum), planes_(build_bound_planes),
        engines_(store->num_shards()),
        built_generation_(store->num_shards(), 0) {}

  struct Slot {
    store::ShardView view;
    const core::SbdEngine* engine;
  };

  Slot Get(std::size_t s) {
    const store::ShardView view = store_->Acquire(s);
    for (std::size_t c = 0; c < engines_.size(); ++c) {
      if (engines_[c].has_value() && !store_->ShardResident(c)) {
        engines_[c].reset();
      }
    }
    if (!engines_[s].has_value() || built_generation_[s] != view.generation()) {
      engines_[s].emplace(view.batch(), core::CrossCorrelationImpl::kFft,
                          half_, planes_);
      built_generation_[s] = view.generation();
    }
    return Slot{view, &*engines_[s]};
  }

 private:
  store::ShardedSeriesStore* store_;
  bool half_;
  bool planes_;
  std::vector<std::optional<core::SbdEngine>> engines_;
  std::vector<std::uint64_t> built_generation_;
};

// Copies global row i out of the store (one Acquire; the copy owns its
// samples, so later evictions cannot invalidate it).
tseries::Series CopyRow(store::ShardedSeriesStore* store, std::size_t i) {
  const store::ShardView view = store->Acquire(store->ShardOfRow(i));
  const tseries::SeriesView v = view.batch()[i - view.global_begin()];
  return tseries::Series(v.begin(), v.end());
}

// Floyd's uniform sample of `b` distinct indices from [0, n), returned
// sorted ascending. Consumes exactly b UniformInt draws on the calling
// (coordinating) thread, so the sample — and everything downstream of it —
// is a pure function of the rng state, independent of thread count.
std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                  std::size_t b,
                                                  common::Rng* rng) {
  KSHAPE_CHECK(b <= n);
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(b * 2);
  for (std::size_t t = n - b; t < n; ++t) {
    const std::size_t r = static_cast<std::size_t>(
        rng->UniformInt(static_cast<int>(t + 1)));
    chosen.insert(chosen.count(r) ? t : r);
  }
  std::vector<std::size_t> sample(chosen.begin(), chosen.end());
  std::sort(sample.begin(), sample.end());
  return sample;
}

// ++-seeding over the sharded store: the exact D^2-sampling scan of the
// in-memory PlusPlusAssignments, with each seed's spectrum minted once
// (MakeQueryFor) and streamed against every shard. Distance(q, i) with the
// seed in the query/x role reproduces the in-set Distance(seed, i) bit for
// bit — same spectra, same norm product order — so the seeding consumes the
// same rng stream and picks the same seeds as the in-memory path.
std::vector<int> ShardedPlusPlus(store::ShardedSeriesStore* store, int k,
                                 common::Rng* rng, ShardEngines* cache,
                                 std::size_t fft_len, bool half) {
  const std::size_t n = store->size();
  const std::size_t m = store->length();
  std::vector<std::size_t> seeds;
  seeds.push_back(static_cast<std::size_t>(rng->UniformInt(
      static_cast<int>(n))));

  std::vector<double> d2(n);
  std::vector<int> nearest(n, 0);

  const auto scan = [&](std::size_t seed, int seed_index, bool first) {
    const tseries::Series seed_row = CopyRow(store, seed);
    const core::SbdEngine::Query q = core::SbdEngine::MakeQueryFor(
        seed_row, m, fft_len, half, /*build_bound_planes=*/false);
    for (std::size_t s = 0; s < store->num_shards(); ++s) {
      const ShardEngines::Slot slot = cache->Get(s);
      const std::size_t base = slot.view.global_begin();
      common::ParallelFor(0, slot.view.rows(), kScanGrain,
                          [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const double d = slot.engine->Distance(q, r);
          const std::size_t i = base + r;
          if (first) {
            d2[i] = d * d;
          } else if (d * d < d2[i]) {
            d2[i] = d * d;
            nearest[i] = seed_index;
          }
        }
      });
    }
  };

  scan(seeds[0], 0, /*first=*/true);
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
    scan(pick, static_cast<int>(seeds.size()) - 1, /*first=*/false);
  }
  return nearest;
}

}  // namespace

MiniBatchKShape::MiniBatchKShape(core::KShapeOptions options)
    : options_(options), name_("k-Shape-sharded") {
  KSHAPE_CHECK(options_.max_iterations >= 1);
  KSHAPE_CHECK(options_.refresh_period >= 1);
  KSHAPE_CHECK_MSG(options_.assignment_distance == nullptr,
                   "custom assignment distances are not streamable; "
                   "use the in-memory KShape");
}

ClusteringResult MiniBatchKShape::Cluster(store::ShardedSeriesStore* store,
                                          int k, common::Rng* rng) const {
  KSHAPE_CHECK(store != nullptr);
  KSHAPE_CHECK_MSG(store->sealed(), "Cluster requires a sealed store");
  KSHAPE_CHECK(!store->empty());
  KSHAPE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= store->size());
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t n = store->size();
  const std::size_t m = store->length();
  const std::size_t num_shards = store->num_shards();
  const std::size_t fft_len = fft::NextPowerOfTwo(2 * m - 1);
  const bool half = options_.use_half_spectrum && fft::HalfSpectrumEnabled();
  const bool pruning = options_.use_pruning && core::PruningEnabled();
  const bool minibatch =
      options_.minibatch_size > 0 && options_.minibatch_size < n;
  const std::size_t batch_size = options_.minibatch_size;
  const long long loaded_before = store->shards_loaded();
  const long long evicted_before = store->shard_evictions();

  ShardEngines cache(store, half, /*build_bound_planes=*/pruning);

  ClusteringResult result;
  result.assignments =
      options_.init == core::KShapeInit::kPlusPlusSeeding
          ? ShardedPlusPlus(store, k, rng, &cache, fft_len, half)
          : RandomAssignments(n, k, rng);
  result.centroids.assign(k, tseries::Series(m, 0.0));

  // Hamerly movement bounds run only in exact mode: their per-series state
  // assumes every series sees every centroid update, which sampled
  // iterations violate. The stateless spectral early-abandon layer stays on
  // in both modes whenever pruning is on. Both layers, the telemetry cells,
  // and the per-iteration centroid queries now live in the shared Assigner;
  // per-shard engines are presented block by block (ascending shard order =
  // ascending global base order, the Assigner's reduction discipline), all
  // sharing one configuration so the minted queries are valid everywhere.
  const bool bounds_mode = pruning && !minibatch;
  model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  assigner_options.fft_len = fft_len;
  assigner_options.use_half_spectrum = half;
  assigner_options.use_pruning = pruning;
  assigner_options.use_movement_bounds = bounds_mode;
  assigner_options.prune_margin = options_.prune_margin;
  assigner_options.verify = bounds_mode && options_.verify_pruning;
  model::Assigner assigner(assigner_options);

  // Empty-cluster repair streams the same ascending-index scan as the
  // in-memory path, acquiring each row's shard as it goes (ascending order
  // means one load per shard per empty cluster, worst case).
  const auto repair_distance = [&](int j, std::size_t i) {
    const ShardEngines::Slot slot = cache.Get(store->ShardOfRow(i));
    return slot.engine->Distance(assigner.queries()[j],
                                 i - slot.view.global_begin());
  };

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;
    const bool full_pass = !minibatch ||
                           (iter + 1) % options_.refresh_period == 0 ||
                           iter + 1 == options_.max_iterations;

    // Sample draw (coordinating thread, before any parallel work).
    std::vector<std::size_t> sample;
    if (!full_pass) {
      sample = SampleWithoutReplacement(n, batch_size, rng);
      result.sampled_series += static_cast<long long>(sample.size());
    }

    assigner.SnapshotCentroids(result.centroids);

    // Refinement: one ShapeAccumulator per cluster, fed in global index
    // order (a single streaming pass over the shards routes each member to
    // its cluster's accumulator — the same per-cluster member sequence the
    // in-memory GroupByCluster walk produces), then Finish in cluster order
    // so any cold-start rng draws replay identically. The accumulators take
    // the caller's shape options verbatim and pool every member they are
    // fed, so a full pass holds O(n_c·m) extraction memory per cluster — the
    // whole corpus across the k accumulators, beside the shard-residency
    // budget that bounds only the raw samples and spectra.
    common::Stopwatch phase_clock;
    {
      std::vector<core::ShapeAccumulator> accumulators;
      accumulators.reserve(k);
      for (int j = 0; j < k; ++j) {
        accumulators.emplace_back(result.centroids[j],
                                  options_.shape_options);
      }
      if (full_pass) {
        for (std::size_t s = 0; s < num_shards; ++s) {
          const ShardEngines::Slot slot = cache.Get(s);
          const tseries::SeriesBatch batch = slot.view.batch();
          const std::size_t base = slot.view.global_begin();
          for (std::size_t r = 0; r < slot.view.rows(); ++r) {
            accumulators[result.assignments[base + r]].Add(batch[r]);
          }
        }
      } else {
        // `sample` is sorted, so this visits shards in ascending order too.
        std::size_t pos = 0;
        while (pos < sample.size()) {
          const std::size_t s = store->ShardOfRow(sample[pos]);
          const ShardEngines::Slot slot = cache.Get(s);
          const tseries::SeriesBatch batch = slot.view.batch();
          const std::size_t base = slot.view.global_begin();
          const std::size_t shard_end = base + slot.view.rows();
          for (; pos < sample.size() && sample[pos] < shard_end; ++pos) {
            const std::size_t i = sample[pos];
            accumulators[result.assignments[i]].Add(batch[i - base]);
          }
        }
      }
      result.degenerate_centroids = 0;
      for (int j = 0; j < k; ++j) {
        if (!full_pass && accumulators[j].members_added() == 0) {
          // No sampled member is not evidence the cluster is empty: keep
          // the previous centroid instead of degenerate-zeroing it.
          continue;
        }
        const bool had_members = accumulators[j].members_added() > 0;
        core::ExtractedShape extracted =
            accumulators[j].Finish(rng, options_.shape_options);
        result.centroids[j] = std::move(extracted.centroid);
        if (extracted.degenerate && had_members) {
          ++result.degenerate_centroids;
        }
      }
    }
    result.extraction_seconds += phase_clock.ElapsedSeconds();
    phase_clock.Reset();

    // Assignment, delegated to the Assigner. BeginIteration mints this
    // iteration's centroid queries once (MakeQueryFor — shared by every
    // shard engine) and derives the movement-bound shifts; shards stream on
    // the coordinating thread in ascending order, rows fan out on the pool
    // inside AssignBlock/AssignSample with disjoint writes.
    assigner.BeginIteration(result.centroids);
    if (full_pass) {
      for (std::size_t s = 0; s < num_shards; ++s) {
        const ShardEngines::Slot slot = cache.Get(s);
        assigner.AssignBlock(*slot.engine, slot.view.global_begin(),
                             &result.assignments);
      }
    } else {
      // Sampled assignment: only the mini-batch is reassigned, grouped by
      // shard (the sample is sorted, so shard groups ascend too).
      std::size_t pos = 0;
      while (pos < sample.size()) {
        const std::size_t s = store->ShardOfRow(sample[pos]);
        const ShardEngines::Slot slot = cache.Get(s);
        const std::size_t base = slot.view.global_begin();
        const std::size_t shard_end = base + slot.view.rows();
        std::size_t stop = pos;
        while (stop < sample.size() && sample[stop] < shard_end) ++stop;
        assigner.AssignSample(*slot.engine, base, sample, pos, stop,
                              &result.assignments);
        pos = stop;
      }
    }
    const AssignmentIterationStats stats = assigner.iteration_stats();
    result.pruned_label_mismatches += assigner.iteration_verify_mismatches();
    result.assignment_stats.push_back(stats);
    result.distances_computed += stats.computed;
    result.distances_pruned_bounds += stats.pruned_bounds;
    result.distances_abandoned_partial += stats.abandoned_partial;

    // Empty-cluster repair: the shared deterministic policy, streaming the
    // ascending-index scan through the shards. Sizes are counted first (in
    // RepairEmptyClusters itself), so a run with no empty cluster costs no
    // shard traffic here.
    const int reseeds =
        RepairEmptyClusters(k, &result.assignments, repair_distance);
    result.empty_cluster_reseeds += reseeds;
    assigner.FinishIteration(reseeds);
    result.assignment_seconds += phase_clock.ElapsedSeconds();

    result.iterations = iter + 1;
    // Convergence is declared on full passes only: a sampled iteration
    // leaves most assignments untouched, so assignment equality there says
    // nothing about a corpus-wide fixed point.
    if (full_pass && result.assignments == previous) {
      result.converged = true;
      break;
    }
  }

  result.shards_loaded = store->shards_loaded() - loaded_before;
  result.shard_evictions = store->shard_evictions() - evicted_before;
  AttachFittedModel(&result, name_);
  return result;
}

common::StatusOr<ClusteringResult> MiniBatchKShape::TryCluster(
    store::ShardedSeriesStore* store, int k, common::Rng* rng) const {
  if (store == nullptr) {
    return common::Status::InvalidArgument("null store");
  }
  if (rng == nullptr) {
    return common::Status::InvalidArgument("null rng");
  }
  if (!store->sealed()) {
    return common::Status::FailedPrecondition(
        "TryCluster requires a sealed store");
  }
  if (store->empty()) {
    return common::Status::InvalidArgument("empty store");
  }
  if (k < 1) {
    return common::Status::OutOfRange("k must be >= 1");
  }
  if (static_cast<std::size_t>(k) > store->size()) {
    return common::Status::OutOfRange("k exceeds the number of series");
  }
  // Re-check the files on disk before streaming: a store truncated or
  // swapped behind the sealed handle becomes an error here instead of an
  // abort mid-scan.
  common::Status valid = store->Validate();
  if (!valid.ok()) return valid;
  // Streaming finiteness check (the sharded analogue of
  // ValidateClusteringInputs's finite scan), one shard resident at a time.
  for (std::size_t s = 0; s < store->num_shards(); ++s) {
    const store::ShardView view = store->Acquire(s);
    const tseries::SeriesBatch batch = view.batch();
    for (std::size_t r = 0; r < view.rows(); ++r) {
      for (const double v : batch[r]) {
        if (!std::isfinite(v)) {
          return common::Status::InvalidArgument(
              "series " + std::to_string(view.global_begin() + r) +
              " contains a non-finite value");
        }
      }
    }
  }
  return Cluster(store, k, rng);
}

common::StatusOr<store::ShardedSeriesStore> MiniBatchKShape::ShardBatch(
    const tseries::SeriesBatch& batch, const std::string& directory,
    const core::KShapeOptions& options) {
  if (batch.empty()) {
    return common::Status::InvalidArgument("cannot shard an empty batch");
  }
  store::ShardedStoreOptions store_options;
  store_options.shard_rows = options.shard_rows;
  store_options.max_resident_shards = options.max_resident_shards;
  common::StatusOr<store::ShardedSeriesStore> created =
      store::ShardedSeriesStore::Create(directory, store_options);
  if (!created.ok()) return created.status();
  store::ShardedSeriesStore store = std::move(created).value();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    store.Append(batch[i]);
  }
  common::Status sealed = store.Seal();
  if (!sealed.ok()) return sealed;
  return store;
}

}  // namespace kshape::cluster
