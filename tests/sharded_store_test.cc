// Contract tests for the out-of-core sharded series pool
// (store::ShardedSeriesStore + ShardView).
//
// Pinned here:
//  - the Create/Append/Seal/Open life cycle round-trips every row bit for
//    bit through the on-disk shard files, partial last shard included;
//  - the geometry helpers (num_shards, ShardRowCount, ShardBegin,
//    ShardOfRow) agree with each other and with the row layout;
//  - Acquire respects the residency budget with least-recently-used
//    eviction, refreshes recency on a hit, and keeps the loaded/evicted
//    telemetry counters truthful;
//  - eviction (LRU or EvictAll) invalidates outstanding ShardViews loudly:
//    batch() on a stale view aborts instead of reading freed memory, and a
//    reload mints a new generation so pre-eviction views stay dead;
//  - corrupt or missing on-disk state is a Status at the Open/Validate
//    boundary (NotFound / InvalidArgument), never an abort;
//  - misuse is a loud programmer error: the length lock spans shard
//    boundaries, empty rows / zero-row geometry / append-after-seal /
//    acquire-before-seal all abort.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "store/sharded_store.h"
#include "tseries/time_series.h"

namespace kshape {
namespace {

namespace fs = std::filesystem;
using common::StatusCode;
using store::ShardedSeriesStore;
using store::ShardedStoreOptions;
using store::ShardView;
using tseries::Series;

// A fresh directory per test so runs never see each other's files.
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/kshape_store_" + tag;
  fs::remove_all(dir);
  return dir;
}

// Row values encode (row, column) so a round-trip mismatch identifies the
// exact sample that went wrong.
double Cell(std::size_t row, std::size_t col) {
  return static_cast<double>(row) * 1000.0 + static_cast<double>(col) + 0.25;
}

Series MakeRow(std::size_t row, std::size_t m) {
  Series s(m);
  for (std::size_t c = 0; c < m; ++c) s[c] = Cell(row, c);
  return s;
}

ShardedSeriesStore BuildStore(const std::string& dir, std::size_t n,
                              std::size_t m, const ShardedStoreOptions& opt) {
  common::StatusOr<ShardedSeriesStore> created =
      ShardedSeriesStore::Create(dir, opt);
  EXPECT_TRUE(created.ok()) << created.status().message();
  ShardedSeriesStore store = std::move(created).value();
  for (std::size_t i = 0; i < n; ++i) store.Append(MakeRow(i, m));
  const common::Status sealed = store.Seal();
  EXPECT_TRUE(sealed.ok()) << sealed.message();
  return store;
}

void ExpectAllRowsRoundTrip(ShardedSeriesStore* store, std::size_t n,
                            std::size_t m) {
  ASSERT_EQ(store->size(), n);
  ASSERT_EQ(store->length(), m);
  for (std::size_t s = 0; s < store->num_shards(); ++s) {
    const ShardView view = store->Acquire(s);
    EXPECT_EQ(view.shard(), s);
    EXPECT_EQ(view.rows(), store->ShardRowCount(s));
    EXPECT_EQ(view.global_begin(), store->ShardBegin(s));
    const tseries::SeriesBatch batch = view.batch();
    ASSERT_EQ(batch.size(), view.rows());
    for (std::size_t r = 0; r < view.rows(); ++r) {
      const std::size_t i = view.global_begin() + r;
      for (std::size_t c = 0; c < m; ++c) {
        ASSERT_EQ(batch[r][c], Cell(i, c)) << "row " << i << " col " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Round trip and geometry.
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, RoundTripsRowsThroughDiskWithPartialLastShard) {
  const std::string dir = FreshDir("roundtrip");
  ShardedStoreOptions opt;
  opt.shard_rows = 4;
  opt.max_resident_shards = 2;
  // 10 rows at 4 per shard: shards of 4, 4, 2.
  ShardedSeriesStore store = BuildStore(dir, 10, 8, opt);

  EXPECT_TRUE(store.sealed());
  EXPECT_EQ(store.num_shards(), 3u);
  EXPECT_EQ(store.shard_rows(), 4u);
  EXPECT_EQ(store.ShardRowCount(0), 4u);
  EXPECT_EQ(store.ShardRowCount(1), 4u);
  EXPECT_EQ(store.ShardRowCount(2), 2u);
  EXPECT_EQ(store.ShardBegin(0), 0u);
  EXPECT_EQ(store.ShardBegin(1), 4u);
  EXPECT_EQ(store.ShardBegin(2), 8u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(store.ShardOfRow(i), i / 4);
  }
  ExpectAllRowsRoundTrip(&store, 10, 8);
  EXPECT_TRUE(store.Validate().ok());
}

TEST(ShardedStoreTest, ExactMultipleOfShardRowsHasNoPartialShard) {
  const std::string dir = FreshDir("exact_multiple");
  ShardedStoreOptions opt;
  opt.shard_rows = 3;
  opt.max_resident_shards = 4;
  ShardedSeriesStore store = BuildStore(dir, 9, 5, opt);
  EXPECT_EQ(store.num_shards(), 3u);
  EXPECT_EQ(store.ShardRowCount(2), 3u);
  ExpectAllRowsRoundTrip(&store, 9, 5);
}

TEST(ShardedStoreTest, SingleShardStore) {
  const std::string dir = FreshDir("single_shard");
  ShardedStoreOptions opt;
  opt.shard_rows = 64;
  opt.max_resident_shards = 1;
  ShardedSeriesStore store = BuildStore(dir, 5, 7, opt);
  EXPECT_EQ(store.num_shards(), 1u);
  EXPECT_EQ(store.ShardRowCount(0), 5u);
  ExpectAllRowsRoundTrip(&store, 5, 7);
}

TEST(ShardedStoreTest, OpenSeesTheSameRowsAsTheCreatingStore) {
  const std::string dir = FreshDir("open");
  ShardedStoreOptions opt;
  opt.shard_rows = 4;
  opt.max_resident_shards = 2;
  { BuildStore(dir, 11, 6, opt); }  // Create, seal, drop the handle.

  common::StatusOr<ShardedSeriesStore> opened =
      ShardedSeriesStore::Open(dir, /*max_resident_shards=*/2);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ShardedSeriesStore store = std::move(opened).value();
  EXPECT_TRUE(store.sealed());
  EXPECT_EQ(store.shard_rows(), 4u);
  EXPECT_EQ(store.max_resident_shards(), 2u);
  EXPECT_EQ(store.num_shards(), 3u);
  ExpectAllRowsRoundTrip(&store, 11, 6);
}

TEST(ShardedStoreTest, SealIsIdempotent) {
  const std::string dir = FreshDir("seal_twice");
  ShardedStoreOptions opt;
  opt.shard_rows = 4;
  ShardedSeriesStore store = BuildStore(dir, 6, 3, opt);
  EXPECT_TRUE(store.Seal().ok());  // Second seal is a no-op success.
  ExpectAllRowsRoundTrip(&store, 6, 3);
}

// ---------------------------------------------------------------------------
// Residency: LRU eviction, recency, telemetry.
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, AcquireEvictsLeastRecentlyUsedAtBudget) {
  const std::string dir = FreshDir("lru");
  ShardedStoreOptions opt;
  opt.shard_rows = 2;
  opt.max_resident_shards = 2;
  ShardedSeriesStore store = BuildStore(dir, 8, 4, opt);  // 4 shards.

  store.Acquire(0);
  store.Acquire(1);
  EXPECT_EQ(store.resident_count(), 2u);
  EXPECT_EQ(store.shards_loaded(), 2);
  EXPECT_EQ(store.shard_evictions(), 0);

  // Touch 0 so 1 becomes the LRU, then force an eviction.
  store.Acquire(0);
  EXPECT_EQ(store.shards_loaded(), 2);  // A hit loads nothing.
  store.Acquire(2);
  EXPECT_EQ(store.resident_count(), 2u);
  EXPECT_TRUE(store.ShardResident(0));
  EXPECT_FALSE(store.ShardResident(1));
  EXPECT_TRUE(store.ShardResident(2));
  EXPECT_EQ(store.shards_loaded(), 3);
  EXPECT_EQ(store.shard_evictions(), 1);

  // Next victim is 0 (2 is more recent).
  store.Acquire(3);
  EXPECT_FALSE(store.ShardResident(0));
  EXPECT_TRUE(store.ShardResident(2));
  EXPECT_TRUE(store.ShardResident(3));
  EXPECT_EQ(store.shards_loaded(), 4);
  EXPECT_EQ(store.shard_evictions(), 2);
}

TEST(ShardedStoreTest, ResidencyNeverExceedsBudgetUnderChurn) {
  const std::string dir = FreshDir("churn");
  ShardedStoreOptions opt;
  opt.shard_rows = 2;
  opt.max_resident_shards = 2;
  ShardedSeriesStore store = BuildStore(dir, 12, 4, opt);  // 6 shards.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
      const ShardView view = store.Acquire(s);
      EXPECT_LE(store.resident_count(), store.max_resident_shards());
      // The just-acquired shard is always readable.
      EXPECT_EQ(view.batch()[0][0], Cell(view.global_begin(), 0));
    }
  }
  // Sequential sweeps over 6 shards with budget 2 miss on every acquire
  // after the first two.
  EXPECT_EQ(store.shards_loaded(), 18);
  EXPECT_EQ(store.shard_evictions(), 16);
}

TEST(ShardedStoreTest, EvictAllFreesEverythingAndCountsEvictions) {
  const std::string dir = FreshDir("evict_all");
  ShardedStoreOptions opt;
  opt.shard_rows = 3;
  opt.max_resident_shards = 4;
  ShardedSeriesStore store = BuildStore(dir, 9, 4, opt);
  store.Acquire(0);
  store.Acquire(1);
  store.Acquire(2);
  EXPECT_EQ(store.resident_count(), 3u);
  store.EvictAll();
  EXPECT_EQ(store.resident_count(), 0u);
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_FALSE(store.ShardResident(s));
  }
  EXPECT_EQ(store.shard_evictions(), 3);
  store.EvictAll();  // Idempotent on an empty residency set.
  EXPECT_EQ(store.shard_evictions(), 3);
  // The store is still fully usable afterwards.
  ExpectAllRowsRoundTrip(&store, 9, 4);
}

TEST(ShardedStoreTest, GenerationDistinguishesReloadsFromHits) {
  const std::string dir = FreshDir("generation");
  ShardedStoreOptions opt;
  opt.shard_rows = 4;
  opt.max_resident_shards = 2;
  ShardedSeriesStore store = BuildStore(dir, 8, 4, opt);

  const ShardView first = store.Acquire(0);
  const ShardView hit = store.Acquire(0);
  EXPECT_EQ(hit.generation(), first.generation());  // Same loaded bytes.
  store.EvictAll();
  const ShardView reloaded = store.Acquire(0);
  EXPECT_NE(reloaded.generation(), first.generation());
  EXPECT_EQ(reloaded.batch()[0][0], Cell(0, 0));
}

// ---------------------------------------------------------------------------
// Status boundary: corrupt and missing on-disk state.
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, OpenMissingDirectoryIsNotFound) {
  common::StatusOr<ShardedSeriesStore> opened =
      ShardedSeriesStore::Open(FreshDir("nonexistent"), 2);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(ShardedStoreTest, OpenRejectsCorruptMagic) {
  const std::string dir = FreshDir("bad_magic");
  { BuildStore(dir, 6, 3, ShardedStoreOptions{.shard_rows = 4}); }
  {
    std::ofstream meta(dir + "/meta.txt", std::ios::trunc);
    meta << "not a kshape store\nlength 3\nshard_rows 4\nrows 6\n";
  }
  common::StatusOr<ShardedSeriesStore> opened =
      ShardedSeriesStore::Open(dir, 2);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

TEST(ShardedStoreTest, OpenRejectsMalformedMetadata) {
  const std::string dir = FreshDir("bad_meta");
  { BuildStore(dir, 6, 3, ShardedStoreOptions{.shard_rows = 4}); }
  // An empty first shard is what a wrapped byte count would expect.
  fs::resize_file(dir + "/shard_00000.bin", 0);
  const char* const kBadMeta[] = {
      "length 0\nshard_rows 4\nrows 6\n",
      // 2^61 * 8 bytes wraps to 0, matching the empty shard file.
      "length 2305843009213693952\nshard_rows 1\nrows 1\n",
      // 2^58 one-row shards: more per-shard slots than a vector can hold.
      "length 1\nshard_rows 1\nrows 288230376151711744\n",
      // rows + shard_rows - 1 wraps, which would give zero shards.
      "length 1\nshard_rows 2\nrows 18446744073709551615\n",
  };
  for (const char* body : kBadMeta) {
    SCOPED_TRACE(body);
    {
      std::ofstream meta(dir + "/meta.txt", std::ios::trunc);
      meta << "kshape-sharded-store v1\n" << body;
    }
    common::StatusOr<ShardedSeriesStore> opened =
        ShardedSeriesStore::Open(dir, 2);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardedStoreTest, OpenRejectsTruncatedShardFile) {
  const std::string dir = FreshDir("truncated");
  { BuildStore(dir, 6, 3, ShardedStoreOptions{.shard_rows = 4}); }
  fs::resize_file(dir + "/shard_00001.bin", 8);  // 2 rows * 3 doubles - rest.
  common::StatusOr<ShardedSeriesStore> opened =
      ShardedSeriesStore::Open(dir, 2);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("truncated"), std::string::npos);
}

TEST(ShardedStoreTest, OpenRejectsMissingShardFile) {
  const std::string dir = FreshDir("missing_shard");
  { BuildStore(dir, 6, 3, ShardedStoreOptions{.shard_rows = 4}); }
  fs::remove(dir + "/shard_00000.bin");
  common::StatusOr<ShardedSeriesStore> opened =
      ShardedSeriesStore::Open(dir, 2);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(ShardedStoreTest, ValidateCatchesRaggedStoreBehindSealedHandle) {
  const std::string dir = FreshDir("validate_ragged");
  ShardedSeriesStore store =
      BuildStore(dir, 6, 3, ShardedStoreOptions{.shard_rows = 4});
  EXPECT_TRUE(store.Validate().ok());
  // Truncate a shard file behind the handle's back — Validate is the guard
  // TryCluster runs so this becomes a Status, not an abort mid-scan.
  fs::resize_file(dir + "/shard_00000.bin", 40);
  const common::Status ragged = store.Validate();
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.code(), StatusCode::kInvalidArgument);
}

TEST(ShardedStoreTest, SealingAnEmptyStoreIsAnError) {
  const std::string dir = FreshDir("seal_empty");
  common::StatusOr<ShardedSeriesStore> created =
      ShardedSeriesStore::Create(dir, ShardedStoreOptions{});
  ASSERT_TRUE(created.ok());
  ShardedSeriesStore store = std::move(created).value();
  const common::Status sealed = store.Seal();
  ASSERT_FALSE(sealed.ok());
  EXPECT_EQ(sealed.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedStoreTest, SealingADefaultStoreIsAnError) {
  ShardedSeriesStore store;
  const common::Status sealed = store.Seal();
  ASSERT_FALSE(sealed.ok());
  EXPECT_EQ(sealed.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Misuse aborts (death tests).
// ---------------------------------------------------------------------------

TEST(ShardedStoreDeathTest, LengthLockSpansShardBoundaries) {
  const std::string dir = FreshDir("length_lock");
  common::StatusOr<ShardedSeriesStore> created = ShardedSeriesStore::Create(
      dir, ShardedStoreOptions{.shard_rows = 2});
  ASSERT_TRUE(created.ok());
  ShardedSeriesStore store = std::move(created).value();
  for (std::size_t i = 0; i < 5; ++i) store.Append(MakeRow(i, 4));
  // Two shards already spilled to disk; the lock still holds.
  EXPECT_DEATH(store.Append(MakeRow(5, 6)), "locks the length");
}

TEST(ShardedStoreDeathTest, AppendRejectsEmptyRow) {
  const std::string dir = FreshDir("empty_row");
  common::StatusOr<ShardedSeriesStore> created =
      ShardedSeriesStore::Create(dir, ShardedStoreOptions{});
  ASSERT_TRUE(created.ok());
  ShardedSeriesStore store = std::move(created).value();
  EXPECT_DEATH(store.Append(Series{}), "empty series");
}

TEST(ShardedStoreDeathTest, AppendAfterSealAborts) {
  const std::string dir = FreshDir("append_sealed");
  ShardedSeriesStore store =
      BuildStore(dir, 4, 3, ShardedStoreOptions{.shard_rows = 2});
  EXPECT_DEATH(store.Append(MakeRow(4, 3)), "sealed");
}

TEST(ShardedStoreDeathTest, AcquireBeforeSealAborts) {
  const std::string dir = FreshDir("acquire_unsealed");
  common::StatusOr<ShardedSeriesStore> created =
      ShardedSeriesStore::Create(dir, ShardedStoreOptions{});
  ASSERT_TRUE(created.ok());
  ShardedSeriesStore store = std::move(created).value();
  store.Append(MakeRow(0, 3));
  EXPECT_DEATH(store.Acquire(0), "unsealed");
}

TEST(ShardedStoreDeathTest, ZeroRowShardGeometryAborts) {
  EXPECT_DEATH(
      ShardedSeriesStore::Create(FreshDir("zero_rows"),
                                 ShardedStoreOptions{.shard_rows = 0}),
      "shard_rows");
}

TEST(ShardedStoreDeathTest, ZeroResidencyBudgetAborts) {
  EXPECT_DEATH(ShardedSeriesStore::Create(
                   FreshDir("zero_budget"),
                   ShardedStoreOptions{.shard_rows = 4,
                                       .max_resident_shards = 0}),
               "max_resident_shards");
}

TEST(ShardedStoreDeathTest, ViewUseAfterEvictionAborts) {
  const std::string dir = FreshDir("stale_view");
  ShardedStoreOptions opt;
  opt.shard_rows = 2;
  opt.max_resident_shards = 1;
  ShardedSeriesStore store = BuildStore(dir, 6, 4, opt);
  const ShardView view = store.Acquire(0);
  EXPECT_EQ(view.batch()[0][0], Cell(0, 0));  // Valid while resident.
  store.Acquire(1);                            // Budget 1: evicts shard 0.
  EXPECT_DEATH(view.batch(), "after its shard was evicted");
}

TEST(ShardedStoreDeathTest, ViewFromBeforeReloadStaysDead) {
  const std::string dir = FreshDir("reload_view");
  ShardedStoreOptions opt;
  opt.shard_rows = 2;
  opt.max_resident_shards = 1;
  ShardedSeriesStore store = BuildStore(dir, 6, 4, opt);
  const ShardView view = store.Acquire(0);
  store.Acquire(1);  // Evicts 0.
  store.Acquire(0);  // Reloads 0 under a new generation.
  EXPECT_DEATH(view.batch(), "after its shard was evicted");
}

TEST(ShardedStoreDeathTest, DefaultViewAborts) {
  const ShardView view;
  EXPECT_DEATH(view.batch(), "default ShardView");
}

TEST(ShardedStoreDeathTest, AppendOnDefaultStoreAborts) {
  ShardedSeriesStore store;
  EXPECT_DEATH(store.Append(MakeRow(0, 3)), "default-constructed");
}

}  // namespace
}  // namespace kshape
