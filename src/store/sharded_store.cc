#include "store/sharded_store.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>

#include "common/check.h"

namespace kshape::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMetaFile = "meta.txt";
constexpr const char* kMagic = "kshape-sharded-store v1";

std::string FileSizeError(const std::string& path, std::uintmax_t expected,
                          std::uintmax_t actual) {
  std::ostringstream oss;
  oss << "shard file " << path << " holds " << actual << " bytes, expected "
      << expected << " (ragged or truncated store)";
  return oss.str();
}

}  // namespace

tseries::SeriesBatch ShardView::batch() const {
  KSHAPE_CHECK_MSG(store_ != nullptr, "batch() on a default ShardView");
  const ShardedSeriesStore::Shard& shard = store_->shards_[shard_];
  KSHAPE_CHECK_MSG(shard.resident && shard.generation == generation_,
                   "ShardView used after its shard was evicted");
  return tseries::SeriesBatch(shard.data.data(), rows_, store_->length_);
}

std::string ShardedSeriesStore::ShardPath(std::size_t s) const {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%05zu.bin", s);
  return (fs::path(directory_) / name).string();
}

common::StatusOr<ShardedSeriesStore> ShardedSeriesStore::Create(
    const std::string& directory, const ShardedStoreOptions& options) {
  KSHAPE_CHECK_MSG(options.shard_rows >= 1,
                   "ShardedStoreOptions::shard_rows must be >= 1");
  KSHAPE_CHECK_MSG(options.max_resident_shards >= 1,
                   "ShardedStoreOptions::max_resident_shards must be >= 1");
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return common::Status::IoError("cannot create store directory " +
                                   directory + ": " + ec.message());
  }
  if (!fs::is_directory(directory, ec) || ec) {
    return common::Status::IoError(directory + " is not a directory");
  }
  ShardedSeriesStore store;
  store.directory_ = directory;
  store.options_ = options;
  return store;
}

void ShardedSeriesStore::Append(tseries::SeriesView row) {
  KSHAPE_CHECK_MSG(!sealed_, "Append on a sealed ShardedSeriesStore");
  KSHAPE_CHECK_MSG(!directory_.empty(),
                   "Append on a default-constructed ShardedSeriesStore");
  KSHAPE_CHECK_MSG(!row.empty(), "cannot append an empty series");
  if (length_ == 0) {
    length_ = row.size();
    pending_.reserve(options_.shard_rows * length_);
  }
  KSHAPE_CHECK_MSG(row.size() == length_,
                   "row length mismatch: the first Append locks the length "
                   "for every shard of the store");
  pending_.insert(pending_.end(), row.begin(), row.end());
  ++pending_rows_;
  ++rows_;
  if (pending_rows_ == options_.shard_rows) SpillPending();
}

void ShardedSeriesStore::SpillPending() {
  const std::string path = ShardPath(spilled_shards_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  KSHAPE_CHECK_MSG(out.good(), "cannot open shard file for writing");
  out.write(reinterpret_cast<const char*>(pending_.data()),
            static_cast<std::streamsize>(pending_.size() * sizeof(double)));
  out.close();
  KSHAPE_CHECK_MSG(out.good(), "short write spilling shard");
  ++spilled_shards_;
  pending_.clear();
  pending_rows_ = 0;
}

common::Status ShardedSeriesStore::Seal() {
  if (sealed_) return common::Status::OK();
  if (directory_.empty()) {
    return common::Status::FailedPrecondition(
        "Seal on a default-constructed ShardedSeriesStore");
  }
  if (rows_ == 0) {
    return common::Status::FailedPrecondition(
        "cannot seal an empty ShardedSeriesStore");
  }
  if (pending_rows_ > 0) SpillPending();
  shard_count_ = spilled_shards_;

  const std::string meta_path =
      (fs::path(directory_) / kMetaFile).string();
  std::ofstream meta(meta_path, std::ios::trunc);
  if (!meta.good()) {
    return common::Status::IoError("cannot write " + meta_path);
  }
  meta << kMagic << "\n"
       << "length " << length_ << "\n"
       << "shard_rows " << options_.shard_rows << "\n"
       << "rows " << rows_ << "\n";
  meta.close();
  if (!meta.good()) {
    return common::Status::IoError("short write on " + meta_path);
  }

  shards_.assign(shard_count_, Shard{});
  sealed_ = true;
  return common::Status::OK();
}

common::StatusOr<ShardedSeriesStore> ShardedSeriesStore::Open(
    const std::string& directory, std::size_t max_resident_shards) {
  KSHAPE_CHECK_MSG(max_resident_shards >= 1,
                   "max_resident_shards must be >= 1");
  const std::string meta_path = (fs::path(directory) / kMetaFile).string();
  std::ifstream meta(meta_path);
  if (!meta.good()) {
    return common::Status::NotFound("no sealed store at " + directory +
                                    " (missing " + std::string(kMetaFile) +
                                    ")");
  }
  std::string magic;
  std::getline(meta, magic);
  if (magic != kMagic) {
    return common::Status::InvalidArgument(
        meta_path + ": unrecognized magic line '" + magic + "'");
  }
  std::size_t length = 0, shard_rows = 0, rows = 0;
  std::string key;
  if (!(meta >> key >> length) || key != "length" || length == 0 ||
      !(meta >> key >> shard_rows) || key != "shard_rows" || shard_rows == 0 ||
      !(meta >> key >> rows) || key != "rows" || rows == 0) {
    return common::Status::InvalidArgument(meta_path +
                                           ": malformed metadata");
  }

  // The whole store's byte count must fit in size_t: every size later
  // derived from rows and length is bounded by it.
  std::size_t total_bytes = 0;
  if (__builtin_mul_overflow(rows, length, &total_bytes) ||
      __builtin_mul_overflow(total_bytes, sizeof(double), &total_bytes)) {
    return common::Status::InvalidArgument(
        meta_path + ": rows * length overflows the addressable size");
  }

  ShardedSeriesStore store;
  store.directory_ = directory;
  store.options_.shard_rows = shard_rows;
  store.options_.max_resident_shards = max_resident_shards;
  store.length_ = length;
  store.rows_ = rows;
  store.shard_count_ = rows / shard_rows + (rows % shard_rows != 0 ? 1 : 0);
  store.spilled_shards_ = store.shard_count_;
  store.sealed_ = true;

  // The shard files must back the metadata before the per-shard slots are
  // allocated: a crafted row count must not size an allocation.
  common::Status valid = store.Validate();
  if (!valid.ok()) return valid;
  store.shards_.assign(store.shard_count_, Shard{});
  return store;
}

common::Status ShardedSeriesStore::Validate() const {
  if (!sealed_) {
    return common::Status::FailedPrecondition(
        "Validate on an unsealed ShardedSeriesStore");
  }
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::string path = ShardPath(s);
    std::error_code ec;
    const std::uintmax_t actual = fs::file_size(path, ec);
    if (ec) {
      return common::Status::NotFound("missing shard file " + path + ": " +
                                      ec.message());
    }
    std::size_t expected = 0;
    if (__builtin_mul_overflow(ShardRowCount(s), length_, &expected) ||
        __builtin_mul_overflow(expected, sizeof(double), &expected)) {
      return common::Status::InvalidArgument(
          "shard file " + path + ": rows * length overflows the addressable "
          "size");
    }
    if (actual != expected) {
      return common::Status::InvalidArgument(
          FileSizeError(path, expected, actual));
    }
  }
  return common::Status::OK();
}

std::size_t ShardedSeriesStore::ShardRowCount(std::size_t s) const {
  KSHAPE_CHECK(s < shard_count_);
  if (s + 1 < shard_count_) return options_.shard_rows;
  const std::size_t tail = rows_ % options_.shard_rows;
  return tail == 0 ? options_.shard_rows : tail;
}

std::size_t ShardedSeriesStore::ShardBegin(std::size_t s) const {
  KSHAPE_CHECK(s < shard_count_);
  return s * options_.shard_rows;
}

std::size_t ShardedSeriesStore::ShardOfRow(std::size_t i) const {
  KSHAPE_CHECK(i < rows_);
  return i / options_.shard_rows;
}

ShardView ShardedSeriesStore::Acquire(std::size_t s) {
  KSHAPE_CHECK_MSG(sealed_, "Acquire on an unsealed ShardedSeriesStore");
  KSHAPE_CHECK(s < shard_count_);
  Shard& shard = shards_[s];
  if (!shard.resident) {
    if (resident_ == options_.max_resident_shards) {
      // Evict the least-recently-used resident shard. The scan is O(#shards)
      // but eviction already pays a disk read, so a heap would be noise.
      std::size_t victim = shard_count_;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t c = 0; c < shard_count_; ++c) {
        if (shards_[c].resident && shards_[c].last_used < oldest) {
          oldest = shards_[c].last_used;
          victim = c;
        }
      }
      KSHAPE_CHECK(victim < shard_count_);
      Evict(victim);
    }
    const std::size_t rows = ShardRowCount(s);
    shard.data.resize(rows * length_);
    std::ifstream in(ShardPath(s), std::ios::binary);
    KSHAPE_CHECK_MSG(in.good(), "cannot open shard file (Validate first?)");
    in.read(reinterpret_cast<char*>(shard.data.data()),
            static_cast<std::streamsize>(shard.data.size() * sizeof(double)));
    KSHAPE_CHECK_MSG(
        in.good() && static_cast<std::size_t>(in.gcount()) ==
                         shard.data.size() * sizeof(double),
        "short read loading shard (Validate first?)");
    shard.resident = true;
    ++shard.generation;
    ++resident_;
    ++loaded_;
  }
  shard.last_used = ++tick_;
  return ShardView(this, s, shard.generation, ShardRowCount(s),
                   ShardBegin(s));
}

void ShardedSeriesStore::Evict(std::size_t s) {
  Shard& shard = shards_[s];
  KSHAPE_CHECK(shard.resident);
  shard.data.clear();
  shard.data.shrink_to_fit();
  shard.resident = false;
  ++shard.generation;
  --resident_;
  ++evictions_;
}

void ShardedSeriesStore::EvictAll() {
  KSHAPE_CHECK_MSG(sealed_, "EvictAll on an unsealed ShardedSeriesStore");
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (shards_[s].resident) Evict(s);
  }
}

}  // namespace kshape::store
