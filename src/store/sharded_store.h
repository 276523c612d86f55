#ifndef KSHAPE_STORE_SHARDED_STORE_H_
#define KSHAPE_STORE_SHARDED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tseries/time_series.h"

namespace kshape::store {

/// Geometry and residency budget of a sharded store.
struct ShardedStoreOptions {
  /// Rows per shard file (the last shard may hold fewer). Must be >= 1.
  std::size_t shard_rows = 4096;

  /// Maximum number of shards resident in memory at once. Acquire() evicts
  /// the least-recently-used resident shard when the budget is full, so peak
  /// resident sample memory is bounded by
  /// max_resident_shards * shard_rows * length * sizeof(double). Must be
  /// >= 1.
  std::size_t max_resident_shards = 4;
};

class ShardedSeriesStore;

/// A handle to one resident shard: the out-of-core analogue of a
/// SeriesBatch over a SeriesStore slice. The view is invalidated the moment
/// its shard is evicted (or reloaded) — batch() checks a per-shard
/// generation stamp and aborts on a stale view, so use-after-eviction is a
/// loud programmer error instead of a silent read of freed memory.
///
/// A ShardView is a trivially copyable value; the store must outlive it and
/// must not be moved while views exist.
class ShardView {
 public:
  ShardView() = default;

  /// Batch view over the shard's rows. Row r of the batch is global row
  /// `global_begin() + r` of the store. Aborts if the shard has been evicted
  /// or reloaded since this view was acquired.
  tseries::SeriesBatch batch() const;

  /// Number of rows in this shard.
  std::size_t rows() const { return rows_; }

  /// Global index of the shard's first row.
  std::size_t global_begin() const { return global_begin_; }

  /// The shard index.
  std::size_t shard() const { return shard_; }

  /// The shard generation this view was acquired at. Two views of one shard
  /// with equal generations see the same loaded bytes; callers caching
  /// derived per-shard state (e.g. an SbdEngine over the shard) key it by
  /// this stamp to detect reloads.
  std::uint64_t generation() const { return generation_; }

 private:
  friend class ShardedSeriesStore;
  ShardView(const ShardedSeriesStore* store, std::size_t shard,
            std::uint64_t generation, std::size_t rows,
            std::size_t global_begin)
      : store_(store), shard_(shard), generation_(generation), rows_(rows),
        global_begin_(global_begin) {}

  const ShardedSeriesStore* store_ = nullptr;
  std::size_t shard_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t rows_ = 0;
  std::size_t global_begin_ = 0;
};

/// An out-of-core extension of SeriesStore: the same contiguous row-major
/// pool semantics (length lock, non-empty rows), but the pool is split into
/// fixed-size shards persisted as raw files in a directory, and only a
/// bounded number of shards is resident in memory at a time.
///
/// Layout on disk: `meta.txt` (magic, row length, shard size, row count in
/// plain text) plus `shard_NNNNN.bin` files holding shard rows as row-major
/// native-endian doubles. The format is a cache/exchange format for one
/// machine, not an archival one.
///
/// Life cycle: Create() an empty store in a directory, Append() rows (full
/// shards spill to disk as they fill), Seal() to flush the trailing partial
/// shard and write the metadata — only a sealed store can be read. Open()
/// attaches to an existing sealed directory, Status-validating the metadata
/// against the shard files on disk (a ragged or truncated store is an error,
/// never an abort).
///
/// Residency: Acquire(s) loads shard s (if absent) and returns a ShardView;
/// when the resident count is at max_resident_shards the least-recently-used
/// shard is evicted first. Eviction invalidates that shard's outstanding
/// views (their batch() calls abort — see ShardView). Telemetry counters
/// (shards_loaded / shard_evictions) are cumulative over the store's
/// lifetime; clustering drivers report deltas per run.
///
/// Thread-safety: Append/Seal/Acquire/EvictAll mutate the store and must be
/// called from one coordinating thread at a time. Concurrent *reads* through
/// already-acquired batches (e.g. a ParallelFor over a shard's rows) are
/// safe as long as no Acquire/evict runs concurrently — the streaming
/// drivers acquire on the coordinating thread, fan out reads, and only then
/// acquire the next shard.
class ShardedSeriesStore {
 public:
  /// An empty, unusable store (so StatusOr and containers can hold one).
  ShardedSeriesStore() = default;

  ShardedSeriesStore(ShardedSeriesStore&&) = default;
  ShardedSeriesStore& operator=(ShardedSeriesStore&&) = default;
  ShardedSeriesStore(const ShardedSeriesStore&) = delete;
  ShardedSeriesStore& operator=(const ShardedSeriesStore&) = delete;

  /// Creates an empty store writing into `directory` (created if missing).
  /// Returns IoError when the directory cannot be created or is not
  /// writable. Aborts on a zero shard_rows / max_resident_shards budget
  /// (programmer error, like an empty SeriesStore row).
  static common::StatusOr<ShardedSeriesStore> Create(
      const std::string& directory, const ShardedStoreOptions& options);

  /// Attaches to a sealed store on disk. Validates the metadata and the
  /// shard files (existence and exact byte size) and returns
  /// InvalidArgument/NotFound/IoError on any mismatch — corrupt input is a
  /// Status, not an abort. `max_resident_shards` must be >= 1.
  static common::StatusOr<ShardedSeriesStore> Open(
      const std::string& directory, std::size_t max_resident_shards);

  /// Appends one row, copying it into the in-progress shard; a filled shard
  /// spills to disk immediately. The first Append fixes the row length
  /// (the length lock spans shard boundaries: a mismatched row aborts no
  /// matter how many shards were already spilled). Requires an unsealed
  /// store and a non-empty row.
  void Append(tseries::SeriesView row);

  /// Flushes the trailing partial shard and writes the metadata; the store
  /// becomes readable and further Appends abort. Sealing an empty store is
  /// an error. Idempotent on success.
  common::Status Seal();

  /// Re-validates the shard files on disk against the sealed metadata
  /// (existence and exact byte size). The Status-boundary guard for
  /// untrusted stores: TryCluster runs this before streaming so a store
  /// truncated or swapped behind a sealed handle is an error, not an abort
  /// mid-scan.
  common::Status Validate() const;

  bool sealed() const { return sealed_; }

  /// Total rows across all shards.
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Row length m shared by all rows (0 until the first Append).
  std::size_t length() const { return length_; }

  /// Number of shards (sealed stores only).
  std::size_t num_shards() const { return shard_count_; }

  /// Nominal rows per shard (the last shard may hold fewer).
  std::size_t shard_rows() const { return options_.shard_rows; }

  /// Rows in shard s.
  std::size_t ShardRowCount(std::size_t s) const;

  /// Global index of the first row of shard s.
  std::size_t ShardBegin(std::size_t s) const;

  /// The shard containing global row i.
  std::size_t ShardOfRow(std::size_t i) const;

  /// Loads shard s if not resident (evicting the least-recently-used shard
  /// when the budget is full), marks it most-recently-used, and returns a
  /// view. Requires a sealed store and s < num_shards().
  ShardView Acquire(std::size_t s);

  /// Evicts every resident shard (invalidating all views). Frees the
  /// residency budget without destroying the store.
  void EvictAll();

  /// Number of currently resident shards (always <= max_resident_shards).
  std::size_t resident_count() const { return resident_; }

  /// True when shard s is currently resident.
  bool ShardResident(std::size_t s) const {
    return s < shards_.size() && shards_[s].resident;
  }

  std::size_t max_resident_shards() const {
    return options_.max_resident_shards;
  }

  /// Cumulative telemetry: shard files read from disk / shards evicted.
  long long shards_loaded() const { return loaded_; }
  long long shard_evictions() const { return evictions_; }

  const std::string& directory() const { return directory_; }

 private:
  friend class ShardView;

  struct Shard {
    std::vector<double> data;       // resident samples; empty when evicted
    std::uint64_t generation = 0;   // bumped on every load and every evict
    std::uint64_t last_used = 0;    // LRU tick
    bool resident = false;
  };

  std::string ShardPath(std::size_t s) const;
  void SpillPending();
  void Evict(std::size_t s);

  std::string directory_;
  ShardedStoreOptions options_;
  std::size_t length_ = 0;
  std::size_t rows_ = 0;
  std::size_t shard_count_ = 0;
  bool sealed_ = false;

  std::vector<double> pending_;    // in-progress shard during Append
  std::size_t pending_rows_ = 0;
  std::size_t spilled_shards_ = 0;

  std::vector<Shard> shards_;      // sealed stores: one entry per shard
  std::size_t resident_ = 0;
  std::uint64_t tick_ = 0;
  long long loaded_ = 0;
  long long evictions_ = 0;
};

}  // namespace kshape::store

#endif  // KSHAPE_STORE_SHARDED_STORE_H_
