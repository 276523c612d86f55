#ifndef KSHAPE_CLUSTER_MINIBATCH_KSHAPE_H_
#define KSHAPE_CLUSTER_MINIBATCH_KSHAPE_H_

#include <string>

#include "cluster/algorithm.h"
#include "common/random.h"
#include "common/status.h"
#include "core/kshape.h"
#include "store/sharded_store.h"
#include "tseries/time_series.h"

namespace kshape::cluster {

/// Out-of-core k-Shape over a ShardedSeriesStore: the block-partitioned
/// driver for the 10^5-10^6 series regime, where the corpus does not fit
/// (or should not sit) in memory.
///
/// Every pass streams shards in order through a per-shard SbdEngine — the
/// residency budget bounds both the raw samples and the engine spectra at
/// O(max_resident_shards * shard_rows * m), independent of n. Centroid
/// spectra are minted once per iteration (SbdEngine::MakeQueryFor) and
/// reused against every shard engine; shape extraction streams members
/// through one ShapeAccumulator per cluster in global index order. Those
/// accumulators pool the aligned rows they are fed, so a full pass holds
/// O(n_c·m) extraction memory per cluster (O(n·m) across all k).
///
/// Two operating modes, selected by KShapeOptions::minibatch_size:
///
///  - Exact (minibatch_size == 0, or >= n): every iteration is
///    a full pass. The run is bit-identical to the in-memory KShape on the
///    same series — same labels, same centroids, same iteration count, same
///    distance telemetry — at every thread count, SIMD backend, spectrum
///    layout, pruning setting, and shard geometry. The per-shard engines
///    produce bitwise the same spectra and norms as one big engine (the FFT
///    of a series depends on nothing but the series and fft_len, which is a
///    function of m alone), and every reduction that is order-sensitive
///    (telemetry, ++-seeding totals, shape accumulation, empty-cluster
///    repair) runs in global index order. The equivalence suite in
///    tests/minibatch_kshape_test.cc pins this contract.
///
///  - Mini-batch (0 < minibatch_size B < n): most iterations
///    draw a seeded uniform sample of B series (Floyd's algorithm on the
///    coordinating thread, so the draw is thread-count-invariant), refine
///    centroids from the sampled members only, and reassign only the
///    sample. Every `refresh_period`-th iteration (and the last) runs a
///    full exact pass — which is also the only place convergence is
///    declared, so a converged mini-batch run ends on a corpus-wide fixed
///    point. A cluster with no sampled members keeps its previous centroid
///    (it is not degenerate-zeroed; a sample miss is not evidence the
///    cluster is empty). Hamerly movement bounds are disabled in this mode
///    (their per-series state assumes every series sees every centroid
///    update), but the stateless spectral early-abandon layer still prunes
///    inside each scan.
///
/// Telemetry: ClusteringResult gains shards_loaded / shard_evictions (deltas
/// of the store's counters over the run) and sampled_series (total sample
/// draws; 0 in exact mode). AssignmentIterationStats entries for sampled
/// iterations partition B*k candidates instead of n*k.
///
/// The driver requires the cached-SBD configuration: no custom
/// assignment_distance (KSHAPE_CHECKed — streaming shards IS the
/// spectrum-cache path).
class MiniBatchKShape {
 public:
  explicit MiniBatchKShape(core::KShapeOptions options = {});

  /// Clusters the sealed store into k clusters. The store is mutated only
  /// through its residency layer (Acquire/evict); the samples on disk are
  /// never written. Malformed inputs (null/unsealed store, k out of range)
  /// are programmer errors and abort; untrusted stores go through
  /// TryCluster.
  ClusteringResult Cluster(store::ShardedSeriesStore* store, int k,
                           common::Rng* rng) const;

  /// Status boundary for untrusted stores: re-validates the shard files on
  /// disk (Validate — a truncated or swapped store is an error, not an
  /// abort mid-scan), streams a finiteness check over every shard, checks
  /// the k range, then clusters.
  common::StatusOr<ClusteringResult> TryCluster(
      store::ShardedSeriesStore* store, int k, common::Rng* rng) const;

  std::string Name() const { return name_; }

  /// Convenience: spills an in-memory batch into a new sharded store at
  /// `directory`, using the geometry in options (shard_rows /
  /// max_resident_shards), and seals it. The bridge the benches and tests
  /// use to compare sharded runs against in-memory ones.
  static common::StatusOr<store::ShardedSeriesStore> ShardBatch(
      const tseries::SeriesBatch& batch, const std::string& directory,
      const core::KShapeOptions& options);

 private:
  core::KShapeOptions options_;
  std::string name_;
};

}  // namespace kshape::cluster

#endif  // KSHAPE_CLUSTER_MINIBATCH_KSHAPE_H_
