#ifndef KSHAPE_CLUSTER_ALGORITHM_H_
#define KSHAPE_CLUSTER_ALGORITHM_H_

#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "model/fitted_model.h"
#include "tseries/time_series.h"

namespace kshape::cluster {

/// Per-iteration telemetry of one assignment step under bound-driven pruning
/// (k-Shape under the KSHAPE_PRUNE gate). The three counters partition
/// the n·k centroid-to-series candidate pairs of the iteration:
///   computed          — exact distances evaluated (inverse transforms spent)
///   pruned_bounds     — pairs skipped by the Hamerly-style movement bounds
///                       (no spectral work at all)
///   abandoned_partial — pairs dropped mid-scan by the partial-sum spectral
///                       NCC bound (bin products spent, no inverse transform)
/// Invariant: computed + pruned_bounds + abandoned_partial == n·k. ++
/// seeding keeps its own partition of its n·k seed-to-series pairs
/// (ClusteringResult::seeding_stats, pruned_bounds counting the pairs its
/// triangle test skipped); empty-cluster repair, seed-to-seed and
/// centroid-shift distances are outside both. Defined with the Assigner
/// (the one assignment implementation); aliased here for the result
/// consumers.
using AssignmentIterationStats = model::AssignmentIterationStats;

/// The output of a clustering run.
struct ClusteringResult {
  /// assignments[i] in [0, k) is the cluster of series i.
  std::vector<int> assignments;

  /// Cluster representatives, one per cluster. Centroid-based methods fill
  /// these with computed sequences, medoid-based methods with the selected
  /// medoids; hierarchical and spectral methods leave the vector empty.
  std::vector<tseries::Series> centroids;

  /// Number of refinement iterations executed (0 for non-iterative methods).
  int iterations = 0;

  /// True when the method reached a fixed point before its iteration cap.
  bool converged = false;

  /// Repair telemetry: how many empty-cluster re-seeds ran across all
  /// iterations, and how many final centroids were degenerate (zero-norm with
  /// a non-empty member set — every member z-normalizes to the zero series).
  /// Methods without centroids or repair leave these at zero.
  int empty_cluster_reseeds = 0;
  int degenerate_centroids = 0;

  /// Pruning telemetry (k-Shape assignment steps; see
  /// AssignmentIterationStats for the partition semantics). The totals sum
  /// the per-iteration entries; an exact (non-pruned) run reports
  /// distances_computed == iterations·n·k with the other two at zero.
  /// Methods without an assignment step leave everything empty/zero.
  long long distances_computed = 0;
  long long distances_pruned_bounds = 0;
  long long distances_abandoned_partial = 0;
  std::vector<AssignmentIterationStats> assignment_stats;

  /// The same partition over k-Shape's ++ seeding scan: its n·k
  /// seed-to-series pairs computed, skipped by the seeding triangle test
  /// (pruned_bounds) or abandoned by the spectral bound. All zero under
  /// random initialization and for methods without ++ seeding.
  AssignmentIterationStats seeding_stats;

  /// Out-of-core telemetry (the sharded MiniBatchKShape driver; in-memory
  /// methods leave all three at zero): shard files read from disk and shards
  /// evicted under the residency budget over this run (deltas against the
  /// store's cumulative counters), and the total number of series sampled
  /// into mini-batches across all sampled iterations (0 when mini-batching
  /// is off — i.e. for every exact sharded run).
  long long shards_loaded = 0;
  long long shard_evictions = 0;
  long long sampled_series = 0;

  /// Per-phase wall-clock telemetry (monotonic clock), the first two summed
  /// across all refinement iterations: extraction_seconds covers the centroid
  /// recomputation (shape extraction / KSC eigenproblem, including member
  /// alignment), assignment_seconds the assignment step plus empty-cluster
  /// repair, and seeding_seconds k-Shape's initialization before the first
  /// iteration (the ++ seeding scans, or drawing random labels). These make
  /// phase dominance visible in every bench/CLI run — e.g. that extraction
  /// dominates once assignment is pruned, and what the matrix-free
  /// extraction path buys back. Wall-clock, so not part of any
  /// determinism contract; methods without an iterative refinement loop
  /// leave all three at zero.
  double seeding_seconds = 0.0;
  double assignment_seconds = 0.0;
  double extraction_seconds = 0.0;

  /// The fitted model: frozen centroids + fingerprint + telemetry snapshot,
  /// ready for Save / Predict / OnlineScorer. Filled by every
  /// centroid-producing method (via AttachFittedModel); methods without
  /// centroids, and multichannel k-Shape runs (whose centroids a model
  /// cannot score), leave it empty().
  model::FittedModel model;
};

/// Builds result->model from the result's centroids and telemetry under the
/// current process gates, stamping `method` as the producing algorithm.
/// No-op when the method produced no centroids. Called by every
/// ClusteringAlgorithm::Cluster on its way out.
void AttachFittedModel(ClusteringResult* result, const std::string& method);

/// Abstract partitional/hierarchical/spectral clustering algorithm.
///
/// Every method evaluated in Tables 3 and 4 of the paper implements this
/// interface, so the experiment harness can run the full combination grid
/// uniformly. `rng` drives random initialization; deterministic methods
/// (hierarchical clustering) ignore it. Implementations must not mutate the
/// input series.
class ClusteringAlgorithm {
 public:
  virtual ~ClusteringAlgorithm() = default;

  /// Partitions `series` (equal-length, z-normalized by the caller when the
  /// measure requires it) into k clusters. The batch is a non-owning view —
  /// pass Dataset::batch() for the contiguous hot path, or a
  /// std::vector<Series> (implicit conversion) for ad-hoc collections.
  /// Inputs violating the data contract (see ValidateClusteringInputs) are
  /// programmer errors here and abort; untrusted data must go through
  /// TryCluster instead.
  virtual ClusteringResult Cluster(const tseries::SeriesBatch& series,
                                   int k, common::Rng* rng) const = 0;

  /// Library-boundary entry point for untrusted data: validates the inputs
  /// (non-empty, equal lengths, fully finite, 1 <= k <= n) and returns a
  /// Status error instead of aborting when they are malformed. Malformed
  /// input should be repaired first with tseries/conditioning.h. The nested
  /// overload exists because ragged input cannot even form a SeriesBatch
  /// (the batch type carries the equal-length invariant): raw untrusted
  /// vectors are validated *before* a batch view is built over them.
  common::StatusOr<ClusteringResult> TryCluster(
      const std::vector<tseries::Series>& series, int k,
      common::Rng* rng) const;
  common::StatusOr<ClusteringResult> TryCluster(
      const tseries::SeriesBatch& series, int k, common::Rng* rng) const;

  /// Display name, e.g. "k-AVG+ED", "PAM+cDTW", "k-Shape".
  virtual std::string Name() const = 0;
};

/// The data contract every Cluster() implementation assumes: a non-empty set
/// of equal-length, non-empty, fully-finite series and 1 <= k <= n. Returns
/// InvalidArgument/OutOfRange describing the first violation. All-constant
/// series are *not* an error: they z-normalize to the zero series, every
/// shape distance treats zero-norm inputs by a documented fallback
/// (SBD/mSBD = 1, KSC = 1, ED = 0), and degenerate centroids are surfaced
/// via ClusteringResult::degenerate_centroids.
common::Status ValidateClusteringInputs(
    const std::vector<tseries::Series>& series, int k);
common::Status ValidateClusteringInputs(const tseries::SeriesBatch& series,
                                        int k);

/// Returns per-cluster member indices for an assignment vector.
std::vector<std::vector<std::size_t>> GroupByCluster(
    const std::vector<int>& assignments, int k);

/// Re-seeds every empty cluster with the series farthest from its current
/// centroid, drawn from clusters that keep at least one member — the uniform
/// repair policy shared by k-means, k-Shape (uni- and multivariate), and KSC.
/// `distance(j, i)` must return the assignment distance of series i to the
/// centroid of cluster j. Deterministic tie-break contract: candidates are
/// scanned in ascending series index and only a strictly larger distance
/// replaces the incumbent, so among tied candidates the lowest index wins
/// (making repair invariant to thread count and platform). Returns the
/// number of re-seeded clusters.
int RepairEmptyClusters(
    int k, std::vector<int>* assignments,
    const std::function<double(int, std::size_t)>& distance);

/// Counts final centroids that are zero-norm while their cluster holds at
/// least one member — the flagged repair signal for all-degenerate (constant)
/// clusters, which shape extraction represents by the zero series on purpose
/// (see core/shape_extraction.h). Returns 0 for methods without centroids.
int CountDegenerateCentroids(const ClusteringResult& result);

/// Random initial assignment of n series to k clusters, guaranteeing no
/// cluster starts empty when n >= k (matches Algorithm 3's random IDX
/// initialization).
std::vector<int> RandomAssignments(std::size_t n, int k, common::Rng* rng);

}  // namespace kshape::cluster

#endif  // KSHAPE_CLUSTER_ALGORITHM_H_
