#ifndef KSHAPE_CORE_KSHAPE_H_
#define KSHAPE_CORE_KSHAPE_H_

#include <string>

#include "cluster/algorithm.h"
#include "core/shape_extraction.h"
#include "distance/measure.h"

namespace kshape::core {

/// Initialization strategies for k-Shape.
enum class KShapeInit {
  /// Algorithm 3's initialization: every series assigned to a uniformly
  /// random cluster. The paper's default.
  kRandomAssignment,

  /// k-means++-style seeding under SBD (an extension, not in the paper):
  /// pick one series as the first seed, then repeatedly pick the next seed
  /// with probability proportional to the squared SBD to the closest chosen
  /// seed; initial assignment is nearest-seed. Breaks the symmetric-centroid
  /// local optima that random assignment is prone to on small datasets —
  /// see the ablation_initialization bench. On the cached-SBD path the
  /// KSHAPE_PRUNE gate prunes the scan exactly: a seed-to-series distance
  /// is skipped when the triangle inequality in sqrt(min(SBD, 1)) shows the
  /// new seed is no nearer than the series' nearest seed, or abandoned by
  /// the spectral bound, so the seeds and labels are bitwise those of the
  /// exhaustive scan (DESIGN.md, "Pruned seeding"). Telemetry lands in
  /// ClusteringResult::{seeding_stats, seeding_seconds}.
  kPlusPlusSeeding,
};

/// Options for the k-Shape algorithm.
struct KShapeOptions {
  /// Iteration cap of Algorithm 3 ("usually a small number, such as 100").
  int max_iterations = 100;

  /// How the initial cluster memberships are chosen.
  KShapeInit init = KShapeInit::kRandomAssignment;

  /// Controls the eigenvector computation inside shape extraction.
  ShapeExtractionOptions shape_options;

  /// Distance used in the assignment step. Null (default) means SBD through
  /// the spectrum cache: every series' spectrum is computed once per call
  /// and every centroid's once per iteration, and each ++-seeding or
  /// assignment distance is a single inverse transform. Cached distances
  /// agree with the direct Sbd() path within a tight tolerance (not bitwise
  /// — see core/sbd_engine.h), and the cached pipeline stays bit-identical
  /// at every thread count. The cache layout follows the process-wide
  /// KSHAPE_HALF_SPECTRUM gate (fft/rfft.h).
  /// Pointing this at an SbdDistance runs the per-pair Sbd() path instead
  /// (the uncached reference: ++-seeding then also calls Sbd() per pair);
  /// pointing it at a DtwMeasure gives the k-Shape+DTW ablation of Table 3.
  /// Such runs are always full passes (minibatch_size must stay 0) and never
  /// prune. The pointee must outlive the KShape instance.
  const distance::DistanceMeasure* assignment_distance = nullptr;

  /// Bound-driven assignment pruning runs on the cached-SBD path whenever
  /// the process-wide KSHAPE_PRUNE gate is on (core/sbd_engine.h). It skips
  /// provably-unchanged work two ways:
  ///  1. Hamerly-style centroid-movement bounds in the sqrt(SBD) domain —
  ///     after refinement the k centroid-shift distances tighten per-series
  ///     upper bounds (distance to owner) and lower bounds (second-closest);
  ///     a series whose bounds stay separated keeps its label with zero
  ///     distance calls. sqrt(min(SBD, 1)) is a metric (DESIGN.md,
  ///     "Movement bounds"), and every centroid has zero mean
  ///     (z-normalized, or all-zero), so SBD(x, c) <= 1 for any series x
  ///     and the bounds' uncapped sqrt(SBD) never passes the cap. The
  ///     triangle inequality these updates rely on therefore holds up to
  ///     rounding, which a 1e-6 margin guards (model/assigner.cc).
  ///  2. Spectral early-abandon NCC — candidates whose partial-sum NCC upper
  ///     bound (SbdEngine::DistanceWithAbandon) cannot beat the best-so-far
  ///     are dropped without an inverse transform. This layer is rigorous
  ///     and cannot change labels.
  /// Telemetry lands in ClusteringResult::{distances_computed,
  /// distances_pruned_bounds, distances_abandoned_partial, assignment_stats}.

  /// Mini-batch size B: when 0 < B < n, most iterations draw a uniform
  /// sample of B series (Floyd's algorithm on the coordinating thread, from
  /// the run's rng, so thread-count-invariant) and run refinement +
  /// assignment on the sample only; a cluster with no sampled member keeps
  /// its previous centroid. A full exact pass runs every `refresh_period`
  /// iterations (and on the final one), which is also the only place
  /// convergence is declared. Movement bounds are off in this mode (they
  /// assume every series sees every centroid update); the spectral abandon
  /// layer still prunes. Sampled iterations' assignment_stats partition B·k
  /// pairs, and ClusteringResult::sampled_series counts the draws. 0 (the
  /// default), or B >= n, makes every iteration a full pass. KShape and
  /// cluster::MiniBatchKShape both run ClusterBlocks, so they agree bit for
  /// bit at every B.
  std::size_t minibatch_size = 0;

  /// Full-pass cadence of the mini-batch schedule: iterations 1-indexed
  /// divisible by this run the full exact assignment. Must be >= 1; 1 turns
  /// every iteration into a full pass (sampling then only thins refinement).
  int refresh_period = 5;

  // --- Shard geometry, read only by cluster::MiniBatchKShape::ShardBatch
  // when it spills an in-memory batch into a new store. Opening an existing
  // store reads its geometry from disk instead.

  /// Rows per on-disk shard.
  std::size_t shard_rows = 4096;

  /// How many shards may be resident in memory at once while clustering
  /// streams the store.
  std::size_t max_resident_shards = 4;
};

class SbdEngine;

/// One block of the corpus as ClusterBlocks streams it: global rows
/// [base, base + rows.size()) and, on the cached-SBD path, their spectrum
/// cache. The engine is null when the run uses a custom
/// assignment_distance.
struct SeriesBlock {
  tseries::SeriesBatch rows;
  std::size_t base = 0;
  const SbdEngine* engine = nullptr;
};

/// The corpus of one k-Shape run as consecutive blocks in ascending base
/// order, each row C = channels() channels, channel-major. KShape and
/// MultivariateKShape present their batch as one block (ClusterBatch);
/// cluster::MiniBatchKShape presents one block per shard of a store, loading
/// shards on demand. On the cached-SBD path every block's engine is built as
/// SbdEngine(rows, CrossCorrelationImpl::kFft, fft::HalfSpectrumEnabled(),
/// PruningEnabled(), channels()), so the centroid queries ClusterBlocks
/// mints once per iteration (SbdEngine::MakeQueryFor) are valid against
/// all.
class SeriesBlocks {
 public:
  virtual ~SeriesBlocks() = default;

  /// Total rows n, the common row length C·m, and the channel count C.
  virtual std::size_t size() const = 0;
  virtual std::size_t length() const = 0;
  virtual std::size_t channels() const { return 1; }

  virtual std::size_t num_blocks() const = 0;
  virtual std::size_t BlockOfRow(std::size_t i) const = 0;

  /// Block b. Its rows and engine stay valid until the next Block or Row
  /// call.
  virtual SeriesBlock Block(std::size_t b) = 0;

  /// A copy of global row i.
  virtual tseries::Series Row(std::size_t i) = 0;
};

/// Algorithm 3 over a block-streamed corpus: the one k-Shape iteration loop.
/// Initializes (random assignment or ++ seeding), then per iteration refines
/// every centroid by shape extraction — one ShapeAccumulator per cluster and
/// channel, fed in global index order — and reassigns every series (or, on
/// sampled mini-batch iterations, the sample) block by block through one
/// model::Assigner, repairs empty clusters, and stops at a fixed point of a
/// full pass or at max_iterations. Every order-sensitive reduction runs in
/// global index order, so the result does not depend on how the corpus is
/// split into blocks, nor on thread count.
///
/// With C > 1 channels (spectrum cache only) distances are channel-summed
/// SBDs, and a member's channels share one shift, as in
/// ExtractMultivariateShape. Only C = 1 results carry a FittedModel, stamped
/// with `name`.
cluster::ClusteringResult ClusterBlocks(const KShapeOptions& options,
                                        SeriesBlocks* blocks, int k,
                                        common::Rng* rng,
                                        const std::string& name);

/// ClusterBlocks over an in-memory batch of rows of `channels` channels as
/// one block, its spectrum cache (unless assignment_distance is set) built
/// once per call.
cluster::ClusteringResult ClusterBatch(const KShapeOptions& options,
                                       const tseries::SeriesBatch& series,
                                       std::size_t channels, int k,
                                       common::Rng* rng,
                                       const std::string& name);

/// k-Shape, Algorithm 3 of the paper.
///
/// A centroid-based iterative-refinement clustering of z-normalized time
/// series: the assignment step places each series with the SBD-closest
/// centroid; the refinement step recomputes each centroid by shape
/// extraction (Algorithm 2), using the previous centroid as the alignment
/// reference. Runs until the assignment reaches a fixed point or
/// `max_iterations` is hit. O(max{n k m log m, n m^2, k m^3}) per iteration
/// — linear in the number of series (§3.3). Runs ClusterBatch with one
/// channel.
class KShape : public cluster::ClusteringAlgorithm {
 public:
  explicit KShape(KShapeOptions options = {});

  cluster::ClusteringResult Cluster(const tseries::SeriesBatch& series,
                                    int k, common::Rng* rng) const override;

  std::string Name() const override { return name_; }

 private:
  KShapeOptions options_;
  std::string name_;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_KSHAPE_H_
