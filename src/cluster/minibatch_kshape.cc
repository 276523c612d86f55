#include "cluster/minibatch_kshape.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/sbd_engine.h"
#include "fft/rfft.h"

namespace kshape::cluster {

namespace {

// The store as ClusterBlocks' block stream: block s is shard s, with a
// per-shard SbdEngine riding the store's residency layer. Block() acquires
// the shard (possibly evicting another), drops engines whose shards were
// evicted, and (re)builds the engine when the shard was (re)loaded — keyed
// by the shard's generation stamp. With the whole store resident the
// engines persist across iterations; under pressure they rebuild with the
// shard, so engine memory is bounded by the same residency budget as the
// samples. Coordinator-thread only (like Acquire itself).
class ShardBlocks : public core::SeriesBlocks {
 public:
  explicit ShardBlocks(store::ShardedSeriesStore* store)
      : store_(store), engines_(store->num_shards()),
        built_generation_(store->num_shards(), 0) {}

  std::size_t size() const override { return store_->size(); }
  std::size_t length() const override { return store_->length(); }
  std::size_t num_blocks() const override { return store_->num_shards(); }
  std::size_t BlockOfRow(std::size_t i) const override {
    return store_->ShardOfRow(i);
  }

  core::SeriesBlock Block(std::size_t s) override {
    const store::ShardView view = store_->Acquire(s);
    for (std::size_t c = 0; c < engines_.size(); ++c) {
      if (engines_[c].has_value() && !store_->ShardResident(c)) {
        engines_[c].reset();
      }
    }
    if (!engines_[s].has_value() || built_generation_[s] != view.generation()) {
      engines_[s].emplace(view.batch(), core::CrossCorrelationImpl::kFft,
                          fft::HalfSpectrumEnabled(), core::PruningEnabled());
      built_generation_[s] = view.generation();
    }
    return core::SeriesBlock{view.batch(), view.global_begin(),
                             &*engines_[s]};
  }

  // One Acquire; the copy owns its samples, so later evictions cannot
  // invalidate it.
  tseries::Series Row(std::size_t i) override {
    const store::ShardView view = store_->Acquire(store_->ShardOfRow(i));
    const tseries::SeriesView v = view.batch()[i - view.global_begin()];
    return tseries::Series(v.begin(), v.end());
  }

 private:
  store::ShardedSeriesStore* store_;
  std::vector<std::optional<core::SbdEngine>> engines_;
  std::vector<std::uint64_t> built_generation_;
};

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
  const long long loaded_before = store->shards_loaded();
  const long long evicted_before = store->shard_evictions();
  ShardBlocks blocks(store);
  ClusteringResult result =
      core::ClusterBlocks(options_, &blocks, k, rng, name_);
  result.shards_loaded = store->shards_loaded() - loaded_before;
  result.shard_evictions = store->shard_evictions() - evicted_before;
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
