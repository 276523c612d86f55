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

/// Out-of-core k-Shape over a ShardedSeriesStore: the 10^5-10^6 series
/// regime, where the corpus does not fit (or should not sit) in memory.
///
/// A thin caller of core::ClusterBlocks, the one k-Shape iteration loop that
/// the in-memory KShape runs too: it presents each shard as one block, with
/// a per-shard SbdEngine built when the shard is loaded and dropped when it
/// is evicted. The residency budget therefore bounds both the raw samples
/// and the engine spectra at O(max_resident_shards * shard_rows * m),
/// independent of n. Shape extraction pools the aligned members it is fed,
/// so a full pass holds O(n·m) extraction memory across the k clusters.
///
/// Because both entry points run the same driver, and the per-shard engines
/// produce bitwise the same spectra and norms as one big engine (the FFT of a
/// series depends on nothing but the series and fft_len, a function of m
/// alone), a sharded run is bit-identical to the in-memory KShape on the
/// same series and options — same labels, centroids, iteration count and
/// distance telemetry — at every thread count, SIMD backend, spectrum
/// layout, pruning gate, shard geometry and minibatch_size
/// (KShapeOptions::minibatch_size documents the mini-batch schedule). The
/// equivalence suite in tests/minibatch_kshape_test.cc pins this contract.
///
/// Telemetry: on top of the driver's, ClusteringResult gains shards_loaded /
/// shard_evictions (deltas of the store's counters over the run).
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
