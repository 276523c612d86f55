#include "core/kshape.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "model/assigner.h"

namespace kshape::core {

namespace {

// k-means++-style seeding under SBD: D^2 sampling of k seed series, then a
// nearest-seed initial assignment. The RNG-driven sampling between scans
// stays here, on the coordinating thread, and the sampling total is reduced
// over the nearest-seed distances in index order; the scans run inside the
// Assigner (parallel over rows, disjoint writes). So the seeding consumes
// exactly the same random stream and picks the same seeds at every thread
// count, block split and prune gate. On the cached path each seed's
// spectrum is minted once and streamed against every block engine, so a
// seed-to-series distance is at most a single inverse transform; engine-free
// runs call Sbd() per pair.
std::vector<int> PlusPlusSeeding(SeriesBlocks* blocks, int k,
                                 common::Rng* rng, model::Assigner* assigner) {
  const std::size_t n = blocks->size();
  const auto scan = [&](std::size_t seed) {
    const tseries::Series seed_row = blocks->Row(seed);
    assigner->AddSeed(seed_row);
    for (std::size_t b = 0; b < blocks->num_blocks(); ++b) {
      const SeriesBlock block = blocks->Block(b);
      if (block.engine != nullptr) {
        assigner->SeedBlock(*block.engine, block.base);
      } else {
        assigner->SeedBlockWith(
            [&](int, std::size_t i) {
              return Sbd(seed_row, block.rows[i - block.base]).distance;
            },
            block.base, block.rows.size());
      }
    }
  };

  scan(static_cast<std::size_t>(rng->UniformInt(static_cast<int>(n))));
  const std::vector<double>& d = assigner->seed_distances();
  for (int seed_index = 1; seed_index < k; ++seed_index) {
    double total = 0.0;
    for (double v : d) total += v * v;
    std::size_t pick = 0;
    if (total <= 0.0) {
      // All series coincide with a seed; any unused index works.
      pick = static_cast<std::size_t>(rng->UniformInt(static_cast<int>(n)));
    } else {
      double threshold = rng->Uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        threshold -= d[i] * d[i];
        if (threshold <= 0.0) {
          pick = i;
          break;
        }
      }
    }
    scan(pick);
  }
  return assigner->nearest_seeds();
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

// Visits the sorted `sample` grouped by block, in ascending block order:
// visit(block, pos, stop) covers sample[pos, stop).
template <typename Visit>
void ForEachSampleBlock(SeriesBlocks* blocks,
                        const std::vector<std::size_t>& sample,
                        const Visit& visit) {
  std::size_t pos = 0;
  while (pos < sample.size()) {
    const SeriesBlock block = blocks->Block(blocks->BlockOfRow(sample[pos]));
    const std::size_t block_end = block.base + block.rows.size();
    std::size_t stop = pos;
    while (stop < sample.size() && sample[stop] < block_end) ++stop;
    visit(block, pos, stop);
    pos = stop;
  }
}

// In-memory corpus: the whole batch as block 0.
class InMemoryBlocks : public SeriesBlocks {
 public:
  InMemoryBlocks(const tseries::SeriesBatch& series, bool cached,
                 std::size_t channels)
      : series_(series), channels_(channels) {
    if (cached) {
      engine_.emplace(series, CrossCorrelationImpl::kFft,
                      fft::HalfSpectrumEnabled(), PruningEnabled(), channels);
    }
  }

  std::size_t size() const override { return series_.size(); }
  std::size_t length() const override { return series_.length(); }
  std::size_t channels() const override { return channels_; }
  std::size_t num_blocks() const override { return 1; }
  std::size_t BlockOfRow(std::size_t) const override { return 0; }
  SeriesBlock Block(std::size_t) override {
    return SeriesBlock{series_, 0, engine_ ? &*engine_ : nullptr};
  }
  tseries::Series Row(std::size_t i) override {
    return tseries::Series(series_[i].begin(), series_[i].end());
  }

 private:
  tseries::SeriesBatch series_;
  std::size_t channels_;
  std::optional<SbdEngine> engine_;
};

}  // namespace

cluster::ClusteringResult ClusterBlocks(const KShapeOptions& options,
                                        SeriesBlocks* blocks, int k,
                                        common::Rng* rng,
                                        const std::string& name) {
  KSHAPE_CHECK(blocks != nullptr && rng != nullptr);
  KSHAPE_CHECK(options.max_iterations >= 1 && options.refresh_period >= 1);
  const std::size_t n = blocks->size();
  const std::size_t row_length = blocks->length();
  const std::size_t channels = blocks->channels();
  KSHAPE_CHECK(n >= 1 && k >= 1 && static_cast<std::size_t>(k) <= n);
  KSHAPE_CHECK(channels >= 1 && row_length % channels == 0);
  const std::size_t m = row_length / channels;  // Channel length.
  const bool cached = options.assignment_distance == nullptr;
  const bool minibatch =
      options.minibatch_size > 0 && options.minibatch_size < n;
  KSHAPE_CHECK_MSG(cached || !minibatch,
                   "mini-batch sampling needs the SBD spectrum cache");
  KSHAPE_CHECK_MSG(cached || channels == 1,
                   "a custom assignment distance compares one channel");
  const std::size_t fft_len = cached ? fft::NextPowerOfTwo(2 * m - 1) : 0;

  // The one assignment implementation (movement bounds + spectral abandon +
  // telemetry live in model::Assigner, which reads the layout and pruning
  // gates once; pruning needs the engines' spectra, so engine-free runs
  // never prune). Movement bounds assume every series sees every centroid
  // update, which sampled iterations violate, so they run only without
  // mini-batching; the stateless spectral abandon layer runs whenever
  // pruning is on.
  model::AssignerOptions assigner_options;
  assigner_options.k = k;
  assigner_options.num_series = n;
  assigner_options.m = m;
  assigner_options.channels = channels;
  assigner_options.fft_len = fft_len;
  assigner_options.use_movement_bounds = !minibatch;
  model::Assigner assigner(assigner_options);

  cluster::ClusteringResult result;
  common::Stopwatch phase_clock;
  result.assignments = options.init == KShapeInit::kPlusPlusSeeding
                           ? PlusPlusSeeding(blocks, k, rng, &assigner)
                           : cluster::RandomAssignments(n, k, rng);
  result.seeding_stats = assigner.seeding_stats();
  result.seeding_seconds = phase_clock.ElapsedSeconds();
  result.centroids.assign(k, tseries::Series(row_length, 0.0));

  // Distance from centroid j to the global row r of `block`.
  const auto block_distance = [&](const SeriesBlock& block, int j,
                                  std::size_t r) {
    if (block.engine != nullptr) {
      return block.engine->Distance(assigner.queries()[j], r);
    }
    return options.assignment_distance->Distance(result.centroids[j],
                                                 block.rows[r]);
  };
  // Per global row, the shift of its winning NCC peak against the centroid
  // the last assignment pass gave it (Assigner::kNoShift when none is on
  // record). Refinement aligns each member to that same centroid, so a
  // recorded shift spares it every transform.
  std::vector<int> shifts(cached ? n : 0, model::Assigner::kNoShift);
  const auto forget_shifts = [&] {
    std::fill(shifts.begin(), shifts.end(), model::Assigner::kNoShift);
  };

  // Empty-cluster repair scans ascending global indices, fetching each
  // row's block as it goes (one load per block per empty cluster, worst
  // case, on a sharded corpus).
  const auto repair_distance = [&](int j, std::size_t i) {
    const SeriesBlock block = blocks->Block(blocks->BlockOfRow(i));
    return block_distance(block, j, i - block.base);
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<int> previous = result.assignments;
    const bool full_pass = !minibatch ||
                           (iter + 1) % options.refresh_period == 0 ||
                           iter + 1 == options.max_iterations;

    // Sample draw (coordinating thread, before any parallel work).
    std::vector<std::size_t> sample;
    if (!full_pass) {
      sample = SampleWithoutReplacement(n, options.minibatch_size, rng);
      result.sampled_series += static_cast<long long>(sample.size());
    }

    assigner.SnapshotCentroids(result.centroids);

    // Refinement step (Algorithm 3, lines 5-10): one ShapeAccumulator per
    // cluster and channel, aligned to the previous centroid and fed in
    // global index order, then Finish in cluster-then-channel order so
    // cold-start rng draws replay identically. The accumulators pool every
    // member they are fed: O(n·C·m) extraction memory on a full pass, each
    // pool sized once from the member count. A degenerate extraction (all
    // members zero-norm) keeps the zero centroid as its documented
    // representative and is surfaced via the result flag.
    //
    // The previous centroid is the one the last assignment pass scanned, so
    // on the cached path a member aligns by its recorded shift; one the
    // movement bounds pruned whole (or a sampled pass skipped) costs one
    // MaxNcc against that centroid's query instead. Every channel of a
    // member moves by that shift. Engine-free runs align by per-pair Sbd().
    phase_clock.Reset();
    {
      std::vector<std::size_t> members(k, 0);
      if (full_pass) {
        for (int a : result.assignments) ++members[a];
      } else {
        for (std::size_t i : sample) ++members[result.assignments[i]];
      }
      // Accumulator j·C + c extracts channel c of centroid j.
      std::vector<ShapeAccumulator> accumulators;
      accumulators.reserve(k * channels);
      for (int j = 0; j < k; ++j) {
        const tseries::SeriesView centroid = result.centroids[j];
        const bool align = linalg::Norm(centroid) > 0.0;
        for (std::size_t c = 0; c < channels; ++c) {
          accumulators.emplace_back(centroid.subspan(c * m, m),
                                    options.shape_options, align);
          accumulators.back().Reserve(members[j]);
        }
      }
      const auto feed = [&](const SeriesBlock& block, std::size_t i) {
        const std::size_t r = i - block.base;
        const int j = result.assignments[i];
        ShapeAccumulator* cluster = &accumulators[j * channels];
        if (block.engine == nullptr) {
          cluster->Add(block.rows[r]);  // One channel.
          return;
        }
        int shift = shifts[i];
        if (shift == model::Assigner::kNoShift && cluster->aligns()) {
          shift = block.engine->MaxNcc(assigner.queries()[j], r).shift;
        }
        for (std::size_t c = 0; c < channels; ++c) {
          cluster[c].Add(block.rows[r].subspan(c * m, m), shift);
        }
      };
      if (full_pass) {
        for (std::size_t b = 0; b < blocks->num_blocks(); ++b) {
          const SeriesBlock block = blocks->Block(b);
          for (std::size_t r = 0; r < block.rows.size(); ++r) {
            feed(block, block.base + r);
          }
        }
      } else {
        ForEachSampleBlock(blocks, sample, [&](const SeriesBlock& block,
                                               std::size_t pos,
                                               std::size_t stop) {
          for (std::size_t t = pos; t < stop; ++t) feed(block, sample[t]);
        });
      }
      result.degenerate_centroids = 0;
      for (int j = 0; j < k; ++j) {
        const ShapeAccumulator* cluster = &accumulators[j * channels];
        const bool had_members = cluster->members_added() > 0;
        // No sampled member is not evidence the cluster is empty: keep the
        // previous centroid instead of degenerate-zeroing it.
        if (!full_pass && !had_members) continue;
        bool degenerate = true;
        for (std::size_t c = 0; c < channels; ++c) {
          const ExtractedShape extracted =
              cluster[c].Finish(rng, options.shape_options);
          std::copy(extracted.centroid.begin(), extracted.centroid.end(),
                    result.centroids[j].begin() + c * m);
          degenerate = degenerate && extracted.degenerate;
        }
        if (degenerate && had_members) ++result.degenerate_centroids;
      }
    }
    result.extraction_seconds += phase_clock.ElapsedSeconds();
    phase_clock.Reset();

    // Assignment step (Algorithm 3, lines 11-17). BeginIteration mints this
    // iteration's centroid queries once (k forward transforms, valid against
    // every block engine) and derives the movement-bound shifts; rows fan
    // out on the pool inside the Assigner with disjoint writes. The shift
    // record is cleared first, so a row this pass does not scan (outside
    // the sample) cannot keep a shift against a centroid that has moved.
    assigner.BeginIteration(result.centroids);
    forget_shifts();
    if (full_pass) {
      for (std::size_t b = 0; b < blocks->num_blocks(); ++b) {
        const SeriesBlock block = blocks->Block(b);
        if (block.engine != nullptr) {
          assigner.AssignBlock(*block.engine, block.base, &result.assignments,
                               /*distances=*/nullptr, &shifts);
        } else {
          assigner.AssignBlockWith(
              [&](int j, std::size_t i) {
                return block_distance(block, j, i - block.base);
              },
              block.base, block.rows.size(), &result.assignments);
        }
      }
    } else {
      ForEachSampleBlock(blocks, sample, [&](const SeriesBlock& block,
                                             std::size_t pos,
                                             std::size_t stop) {
        assigner.AssignSample(*block.engine, block.base, sample, pos, stop,
                              &result.assignments, &shifts);
      });
    }
    const cluster::AssignmentIterationStats stats =
        assigner.iteration_stats();
    result.assignment_stats.push_back(stats);
    result.distances_computed += stats.computed;
    result.distances_pruned_bounds += stats.pruned_bounds;
    result.distances_abandoned_partial += stats.abandoned_partial;

    // Re-seed clusters that lost all members with the series farthest from
    // its current centroid, so every requested cluster stays populated
    // (shared policy — see RepairEmptyClusters for the tie-break contract).
    // Sizes are counted first, so a run with no empty cluster fetches no
    // block here. A reseeded row changes cluster without a shift against
    // its new centroid, so any reseed clears the shift record.
    const int reseeds = cluster::RepairEmptyClusters(
        k, &result.assignments, repair_distance);
    result.empty_cluster_reseeds += reseeds;
    if (reseeds > 0) forget_shifts();
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
  if (channels == 1) cluster::AttachFittedModel(&result, name);
  return result;
}

cluster::ClusteringResult ClusterBatch(const KShapeOptions& options,
                                       const tseries::SeriesBatch& series,
                                       std::size_t channels, int k,
                                       common::Rng* rng,
                                       const std::string& name) {
  // Custom assignment distances run engine-free (the engine only
  // accelerates SBD).
  InMemoryBlocks blocks(series, options.assignment_distance == nullptr,
                        channels);
  return ClusterBlocks(options, &blocks, k, rng, name);
}

KShape::KShape(KShapeOptions options) : options_(options) {
  KSHAPE_CHECK(options_.max_iterations >= 1);
  name_ = options_.assignment_distance == nullptr
              ? "k-Shape"
              : "k-Shape+" + options_.assignment_distance->Name();
}

cluster::ClusteringResult KShape::Cluster(
    const tseries::SeriesBatch& series, int k, common::Rng* rng) const {
  return ClusterBatch(options_, series, /*channels=*/1, k, rng, name_);
}

}  // namespace kshape::core
