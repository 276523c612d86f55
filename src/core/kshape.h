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
  /// see the ablation_initialization bench.
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

  /// When true (default), the spectrum cache stores packed half spectra
  /// (fft/rfft.h): half the memory, and half-size transforms at power-of-two
  /// padding. Combined with the process-wide KSHAPE_HALF_SPECTRUM gate — the
  /// half path runs only when both say yes. Distances differ from the
  /// full-complex cache by last-ulp rounding only; labels and telemetry are
  /// expected to match (enforced by the half-vs-full equivalence tests).
  bool use_half_spectrum = true;

  /// Distance used in the assignment step. Null (default) means SBD through
  /// the spectrum cache: Cluster() builds an SbdEngine over the input, so
  /// every series' spectrum is computed once per call and every centroid's
  /// once per iteration, and each ++-seeding or assignment distance is a
  /// single inverse transform. Cached distances agree with the direct Sbd()
  /// path within a tight tolerance (not bitwise — see core/sbd_engine.h),
  /// and the cached pipeline stays bit-identical at every thread count.
  /// Pointing this at an SbdDistance runs the per-pair Sbd() path instead
  /// (the uncached reference: ++-seeding then also calls Sbd() per pair);
  /// pointing it at a DtwMeasure gives the k-Shape+DTW ablation of Table 3.
  /// The pointee must outlive the KShape instance.
  const distance::DistanceMeasure* assignment_distance = nullptr;

  /// Bound-driven assignment pruning. When true (default) AND the
  /// process-wide KSHAPE_PRUNE gate is on AND the run uses the SBD spectrum
  /// cache (pruning needs cached spectra; it is silently inactive with a
  /// custom `assignment_distance`), the
  /// assignment step skips provably-unchanged work two ways:
  ///  1. Hamerly-style centroid-movement bounds in the sqrt(SBD) domain —
  ///     after refinement the k centroid-shift distances tighten per-series
  ///     upper bounds (distance to owner) and lower bounds (second-closest);
  ///     a series whose bounds stay separated keeps its label with zero
  ///     distance calls. SBD is not a guaranteed metric, so this layer is
  ///     heuristic and guarded by `prune_margin` (below).
  ///  2. Spectral early-abandon NCC — candidates whose partial-sum NCC upper
  ///     bound (SbdEngine::DistanceWithAbandon) cannot beat the best-so-far
  ///     are dropped without an inverse transform. This layer is rigorous
  ///     (the bound is a theorem, slack covers only ulp rounding) and cannot
  ///     change labels.
  /// Telemetry lands in ClusteringResult::{distances_computed,
  /// distances_pruned_bounds, distances_abandoned_partial, assignment_stats}.
  bool use_pruning = true;

  /// Safety slack of the movement-bound layer, in SBD distance units: a
  /// series is pruned only when its owner-distance upper bound clears the
  /// second-closest lower bound by more than this margin, absorbing both
  /// bound rounding and small triangle-inequality violations of the
  /// non-metric SBD. Larger values prune less and track the exact path more
  /// faithfully; +infinity disables the movement-bound layer entirely and
  /// makes the run bit-identical to the exact path (the spectral layer is
  /// exactness-preserving on its own). The default absorbs every violation
  /// observed on the test corpora with orders of magnitude to spare.
  double prune_margin = 1e-6;

  /// Verification mode: recompute every pruned series' assignment exactly
  /// and count disagreements in ClusteringResult::pruned_label_mismatches.
  /// Pruned decisions are kept, so enabling this changes telemetry only —
  /// it exists to measure (and test) label agreement of the bounds.
  bool verify_pruning = false;

  // --- Out-of-core / mini-batch options, consumed by the sharded driver
  // (cluster::MiniBatchKShape over a store::ShardedSeriesStore). The
  // in-memory KShape ignores all four.

  /// Mini-batch size B: when > 0, most sharded iterations sample B series
  /// (without replacement, seeded from the run's rng) and run refinement +
  /// assignment on the sample only; a full exact pass runs every `refresh_period` iterations
  /// (and on the final one), which is also where convergence is checked.
  /// 0 (the default) disables sampling entirely: every iteration is a full
  /// pass, and the sharded run reproduces the in-memory KShape bit for bit.
  std::size_t minibatch_size = 0;

  /// Full-pass cadence of the mini-batch schedule: iterations 1-indexed
  /// divisible by this run the full exact assignment. Must be >= 1; 1 turns
  /// every iteration into a full pass (sampling then only thins refinement).
  int refresh_period = 5;

  /// Shard geometry used when *building* a store from an in-memory batch
  /// (MiniBatchKShape::ShardBatch) — rows per on-disk shard. Opening an
  /// existing store reads its geometry from disk instead.
  std::size_t shard_rows = 4096;

  /// Residency budget used by ShardBatch: how many shards may be resident
  /// in memory at once while clustering streams the store.
  std::size_t max_resident_shards = 4;
};

/// k-Shape, Algorithm 3 of the paper.
///
/// A centroid-based iterative-refinement clustering of z-normalized time
/// series: the assignment step places each series with the SBD-closest
/// centroid; the refinement step recomputes each centroid by shape
/// extraction (Algorithm 2), using the previous centroid as the alignment
/// reference. Runs until the assignment reaches a fixed point or
/// `max_iterations` is hit. O(max{n k m log m, n m^2, k m^3}) per iteration
/// — linear in the number of series (§3.3).
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
