// Tests for the contiguous row-major storage layer: SeriesStore invariants
// (length lock, row count), view aliasing and invalidation rules, SeriesBatch
// over both layouts, Dataset Subset/Append on flat storage, and the
// flat-vs-nested equivalence contract — k-Shape and k-means must produce
// bit-identical labels and telemetry whether the corpus reaches them as a
// contiguous SeriesStore batch or a nested vector-of-vectors batch, at every
// thread count.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/averaging.h"
#include "cluster/kmeans.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "data/generators.h"
#include "distance/euclidean.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace kshape {
namespace {

using tseries::Dataset;
using tseries::MutableSeriesView;
using tseries::Series;
using tseries::SeriesBatch;
using tseries::SeriesStore;
using tseries::SeriesView;

TEST(SeriesStoreTest, StartsEmptyWithZeroLength) {
  SeriesStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.length(), 0u);
}

TEST(SeriesStoreTest, FirstAppendLocksLength) {
  SeriesStore store;
  store.Append(Series{1.0, 2.0, 3.0});
  EXPECT_EQ(store.length(), 3u);
  EXPECT_EQ(store.size(), 1u);
  store.Append(Series{4.0, 5.0, 6.0});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.length(), 3u);
}

TEST(SeriesStoreDeathTest, MismatchedRowLengthAborts) {
  SeriesStore store;
  store.Append(Series{1.0, 2.0, 3.0});
  EXPECT_DEATH(store.Append(Series{1.0, 2.0}), "");
}

TEST(SeriesStoreDeathTest, EmptyRowAborts) {
  SeriesStore store;
  EXPECT_DEATH(store.Append(Series{}), "");
}

TEST(SeriesStoreTest, ReserveLocksLengthBeforeFirstAppend) {
  SeriesStore store;
  store.Reserve(10, 4);
  EXPECT_EQ(store.length(), 4u);
  EXPECT_EQ(store.size(), 0u);
  store.Append(Series{1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(store.size(), 1u);
}

TEST(SeriesStoreDeathTest, ReserveConflictingLengthAborts) {
  SeriesStore store;
  store.Append(Series{1.0, 2.0, 3.0});
  EXPECT_DEATH(store.Reserve(5, 4), "");
}

TEST(SeriesStoreTest, RowsAreContiguousInOneBuffer) {
  SeriesStore store;
  store.Append(Series{1.0, 2.0});
  store.Append(Series{3.0, 4.0});
  store.Append(Series{5.0, 6.0});
  const double* base = store.data();
  for (std::size_t i = 0; i < store.size(); ++i) {
    const SeriesView row = store.view(i);
    EXPECT_EQ(row.data(), base + i * store.length());
    EXPECT_EQ(row.size(), store.length());
  }
  EXPECT_DOUBLE_EQ(base[0], 1.0);
  EXPECT_DOUBLE_EQ(base[3], 4.0);
  EXPECT_DOUBLE_EQ(base[5], 6.0);
}

TEST(SeriesStoreTest, MutableViewAliasesReadView) {
  SeriesStore store;
  store.Append(Series{1.0, 2.0, 3.0});
  MutableSeriesView mut = store.MutableView(0);
  mut[1] = 42.0;
  const SeriesView row = store.view(0);
  EXPECT_DOUBLE_EQ(row[1], 42.0);
  // Same storage, not a copy.
  EXPECT_EQ(row.data(), mut.data());
}

TEST(SeriesStoreTest, ReservedStoreDoesNotReallocateAcrossAppends) {
  // Views are documented as invalidated by Append because the pool may
  // reallocate; after an up-front Reserve for the full row count the buffer
  // must stay put, so a fused dataset is built with exactly one allocation.
  SeriesStore store;
  store.Reserve(8, 16);
  store.Append(Series(16, 1.0));
  const double* base = store.data();
  for (int i = 1; i < 8; ++i) store.Append(Series(16, 1.0 + i));
  EXPECT_EQ(store.data(), base);
}

TEST(SeriesBatchTest, ContiguousBatchViewsStoreRows) {
  SeriesStore store;
  store.Append(Series{1.0, 2.0});
  store.Append(Series{3.0, 4.0});
  const SeriesBatch batch(store);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.length(), 2u);
  EXPECT_EQ(batch[0].data(), store.data());
  EXPECT_EQ(batch[1].data(), store.view(1).data());
  EXPECT_DOUBLE_EQ(batch[1][0], 3.0);
}

TEST(SeriesBatchTest, NestedBatchViewsVectorRows) {
  const std::vector<Series> rows = {{1.0, 2.0}, {3.0, 4.0}};
  const SeriesBatch batch(rows);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.length(), 2u);
  EXPECT_EQ(batch[0].data(), rows[0].data());
  EXPECT_DOUBLE_EQ(batch[1][1], 4.0);
}

TEST(SeriesBatchTest, EmptyNestedVectorGivesEmptyBatch) {
  const std::vector<Series> rows;
  const SeriesBatch batch(rows);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.length(), 0u);
}

TEST(SeriesBatchDeathTest, RaggedNestedVectorAborts) {
  const std::vector<Series> ragged = {{1.0, 2.0}, {3.0}};
  EXPECT_DEATH(SeriesBatch batch(ragged), "");
}

TEST(DatasetFlatStorageTest, AddCopiesIntoContiguousStore) {
  Dataset dataset("flat");
  dataset.Add({1.0, 2.0, 3.0}, 0);
  dataset.Add({4.0, 5.0, 6.0}, 1);
  EXPECT_EQ(dataset.store().size(), 2u);
  EXPECT_EQ(dataset.view(1).data(), dataset.store().data() + 3);
  EXPECT_EQ(dataset.label(1), 1);
  // The by-value shim copies; mutating the copy leaves the store untouched.
  Series copy = dataset.series(0);
  copy[0] = 99.0;
  EXPECT_DOUBLE_EQ(dataset.view(0)[0], 1.0);
}

TEST(DatasetFlatStorageTest, SubsetCopiesSelectedRowsIntoFreshStore) {
  Dataset dataset("parent");
  for (int i = 0; i < 5; ++i) {
    dataset.Add(Series(4, static_cast<double>(i)), i % 2);
  }
  const Dataset subset = dataset.Subset({4, 1, 3}, "child");
  ASSERT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset.length(), 4u);
  EXPECT_DOUBLE_EQ(subset.view(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(subset.view(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(subset.view(2)[0], 3.0);
  EXPECT_EQ(subset.labels(), (std::vector<int>{0, 1, 1}));
  // Fresh storage: the subset's buffer is not the parent's.
  EXPECT_NE(subset.store().data(), dataset.store().data());
}

TEST(DatasetFlatStorageTest, AppendConcatenatesStores) {
  Dataset a("a");
  a.Add({1.0, 2.0}, 0);
  Dataset b("b");
  b.Add({3.0, 4.0}, 1);
  b.Add({5.0, 6.0}, 2);
  a.Append(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.view(2)[1], 6.0);
  EXPECT_EQ(a.labels(), (std::vector<int>{0, 1, 2}));
}

TEST(DatasetFlatStorageTest, FusedReservesOnceForBothParts) {
  tseries::SplitDataset split;
  split.train = Dataset("t");
  split.test = Dataset("t");
  for (int i = 0; i < 3; ++i) split.train.Add(Series(8, 1.0 + i), i);
  for (int i = 0; i < 2; ++i) split.test.Add(Series(8, 10.0 + i), i);
  const Dataset fused = split.Fused();
  ASSERT_EQ(fused.size(), 5u);
  EXPECT_EQ(fused.length(), 8u);
  EXPECT_DOUBLE_EQ(fused.view(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(fused.view(3)[0], 10.0);
  // All five rows live in one buffer.
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.view(i).data(), fused.store().data() + i * 8);
  }
}

TEST(DatasetFlatStorageTest, ApplyInPlaceVisitsEveryRowInOrder) {
  Dataset dataset("apply");
  for (int i = 0; i < 4; ++i) dataset.Add(Series(3, 1.0), 0);
  std::size_t visited = 0;
  dataset.ApplyInPlace([&](MutableSeriesView row) {
    for (double& v : row) v += static_cast<double>(visited);
    ++visited;
  });
  EXPECT_EQ(visited, 4u);
  EXPECT_DOUBLE_EQ(dataset.view(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(dataset.view(3)[0], 4.0);
}

// --- Flat-vs-nested equivalence -------------------------------------------
//
// The refactor's core contract: a clustering algorithm fed the same samples
// through a contiguous SeriesStore batch and through a nested
// vector-of-vectors batch must produce bit-identical results — labels,
// centroids, and every telemetry counter — at every thread count.

Dataset MakeCorpus(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  Dataset dataset("equivalence");
  for (std::size_t i = 0; i < n; ++i) {
    const int klass = static_cast<int>(i % 3);
    dataset.Add(tseries::ZNormalized(data::MakeCbf(klass, m, &rng)), klass);
  }
  return dataset;
}

std::vector<Series> NestedCopy(const Dataset& dataset) {
  std::vector<Series> rows;
  rows.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    rows.push_back(dataset.series(i));
  }
  return rows;
}

void ExpectBitIdentical(const cluster::ClusteringResult& a,
                        const cluster::ClusteringResult& b) {
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.empty_cluster_reseeds, b.empty_cluster_reseeds);
  EXPECT_EQ(a.degenerate_centroids, b.degenerate_centroids);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (std::size_t j = 0; j < a.centroids.size(); ++j) {
    EXPECT_EQ(a.centroids[j], b.centroids[j]);  // Bitwise, not approximate.
  }
}

TEST(FlatVsNestedEquivalenceTest, KShapeBitIdenticalAcrossLayoutsAndThreads) {
  const Dataset dataset = MakeCorpus(24, 64, 101);
  const std::vector<Series> nested = NestedCopy(dataset);
  const core::KShape algorithm;
  for (const int threads : {1, 2, 8}) {
    common::SetThreadCount(threads);
    common::Rng flat_rng(7);
    common::Rng nested_rng(7);
    const cluster::ClusteringResult flat =
        algorithm.Cluster(dataset.batch(), 3, &flat_rng);
    const cluster::ClusteringResult from_nested =
        algorithm.Cluster(nested, 3, &nested_rng);
    ExpectBitIdentical(flat, from_nested);
  }
  common::SetThreadCount(1);
}

TEST(FlatVsNestedEquivalenceTest, KMeansBitIdenticalAcrossLayoutsAndThreads) {
  const Dataset dataset = MakeCorpus(30, 48, 202);
  const std::vector<Series> nested = NestedCopy(dataset);
  const distance::EuclideanDistance ed;
  const cluster::ArithmeticMeanAveraging mean;
  const cluster::KMeans algorithm(&ed, &mean, "k-means-ED");
  for (const int threads : {1, 2, 8}) {
    common::SetThreadCount(threads);
    common::Rng flat_rng(11);
    common::Rng nested_rng(11);
    const cluster::ClusteringResult flat =
        algorithm.Cluster(dataset.batch(), 3, &flat_rng);
    const cluster::ClusteringResult from_nested =
        algorithm.Cluster(nested, 3, &nested_rng);
    ExpectBitIdentical(flat, from_nested);
  }
  common::SetThreadCount(1);
}

}  // namespace
}  // namespace kshape
