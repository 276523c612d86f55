#ifndef KSHAPE_TSERIES_TIME_SERIES_H_
#define KSHAPE_TSERIES_TIME_SERIES_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>
#include <initializer_list>

#include "common/status.h"

namespace kshape::tseries {

/// A univariate time series of equally spaced observations.
///
/// Represented as a bare vector: every hot kernel in the library (FFT
/// cross-correlation, DTW dynamic programs) works on contiguous doubles, and a
/// wrapper class would only add friction at those boundaries. Owned values
/// (centroids, conditioned copies, test fixtures) stay `Series`; function
/// parameters take views.
using Series = std::vector<double>;

/// Read-only view of one series. Kernels take SeriesView instead of
/// `const Series&` so a series can live anywhere — inside a contiguous
/// SeriesStore row, an owned Series, or a scratch buffer — without a copy.
/// A `Series` converts implicitly, so call sites holding vectors are
/// unaffected. Views never own: the buffer behind a view must outlive it.
using SeriesView = std::span<const double>;

/// Mutable view of one series. The length is fixed by the owner; only the
/// sample values may change. Used by in-place transforms (z-normalization,
/// missing-value fill) that never resize.
using MutableSeriesView = std::span<double>;

/// A contiguous row-major pool owning all samples of an equal-length series
/// collection: row i occupies `data()[i*length() .. (i+1)*length())`. One
/// allocation for the whole dataset means pairwise kernels stream one buffer
/// instead of chasing a pointer per row — the layout production scan engines
/// use, and the prerequisite for SIMD kernels and zero-copy sharding.
///
/// Invariants: the first Append fixes the row length (length lock); every
/// later row must match it; rows are non-empty. Views returned by view() /
/// MutableView() are invalidated by Append/Reserve (the pool may reallocate),
/// never by reads.
class SeriesStore {
 public:
  SeriesStore() = default;

  /// Pre-allocates capacity for `rows` rows of length `length` and locks the
  /// row length (so a store fused from known parts allocates exactly once).
  /// Only the length of the first Reserve/Append sticks; later calls must
  /// agree with it.
  void Reserve(std::size_t rows, std::size_t length);

  /// Appends one row by copying its samples into the pool. The first
  /// Append/Reserve fixes the row length; later rows must match it.
  /// Invalidates all outstanding views into this store.
  void Append(SeriesView row);

  /// Number of rows.
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Row length m shared by all rows (0 until the first Reserve/Append).
  std::size_t length() const { return length_; }

  /// Read-only view of row i. Valid until the next Append/Reserve.
  SeriesView view(std::size_t i) const {
    return SeriesView(data_.data() + i * length_, length_);
  }
  SeriesView operator[](std::size_t i) const { return view(i); }

  /// Mutable view of row i (values only; the length is locked). Valid until
  /// the next Append/Reserve.
  MutableSeriesView MutableView(std::size_t i) {
    return MutableSeriesView(data_.data() + i * length_, length_);
  }

  /// The underlying row-major buffer (size() * length() doubles).
  const double* data() const { return data_.data(); }

 private:
  std::size_t length_ = 0;
  std::size_t rows_ = 0;
  std::vector<double> data_;
};

/// Non-owning view of n equal-length series — the batch analogue of
/// SeriesView, and the parameter type of every batch interface (clustering,
/// pairwise matrices, batch scanners, shape extraction).
///
/// Two representations share one type so both storage layouts flow through
/// the same interfaces without copying:
///  - contiguous: a row-major buffer (from a SeriesStore / Dataset) — the
///    hot path; kernels stream one allocation.
///  - nested: a `const std::vector<Series>*` fallback for ad-hoc
///    collections (centroid sets, test fixtures). Constructing this form
///    checks the equal-length invariant, so untrusted ragged input must go
///    through a Status boundary (ValidateClusteringInputs / conditioning)
///    first.
///
/// A batch is a trivially copyable view: pass it by value, and keep the
/// owner (store or vector) alive for the batch's lifetime. Mutating or
/// growing the owner invalidates the batch.
class SeriesBatch {
 public:
  /// Empty batch.
  SeriesBatch() = default;

  /// Views `n` rows of length `m` starting at `data` (row-major).
  SeriesBatch(const double* data, std::size_t n, std::size_t m)
      : data_(data), n_(n), m_(m) {}

  /// Views all rows of a contiguous store.
  SeriesBatch(const SeriesStore& store)  // NOLINT(runtime/explicit)
      : data_(store.data()), n_(store.size()), m_(store.length()) {}

  /// Views a nested vector-of-vectors. Checks that all rows share one
  /// length (the batch invariant); validate untrusted input before this.
  SeriesBatch(const std::vector<Series>& rows);  // NOLINT(runtime/explicit)

  /// Number of series.
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Length m shared by all series (0 when empty).
  std::size_t length() const { return m_; }

  /// View of series i.
  SeriesView operator[](std::size_t i) const {
    if (nested_ != nullptr) return SeriesView((*nested_)[i]);
    return SeriesView(data_ + i * m_, m_);
  }

 private:
  const double* data_ = nullptr;
  const std::vector<Series>* nested_ = nullptr;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
};

/// A collection of equal-length, class-labeled time series.
///
/// Mirrors a dataset of the UCR archive: `label(i)` is the (gold) class of
/// row i, interpreted in clustering experiments as the cluster the sequence
/// belongs to. Backed by a contiguous SeriesStore; the class invariant is
/// that all series share one length and sizes agree, enforced on every
/// mutation.
class Dataset {
 public:
  /// Creates an empty dataset with the given name.
  explicit Dataset(std::string name = "") : name_(std::move(name)) {}

  /// Appends a labeled series (copied into the contiguous store). The first
  /// Add fixes the series length; later calls must match it. Invalidates all
  /// outstanding views and batches over this dataset.
  void Add(SeriesView series, int label);
  void Add(std::initializer_list<double> series, int label) {
    Add(SeriesView(series.begin(), series.size()), label);
  }

  /// Pre-allocates the store for `rows` series of length `length` (one
  /// allocation up front instead of growth doubling).
  void Reserve(std::size_t rows, std::size_t length);

  /// Dataset name (e.g. "CBF").
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Number of series.
  std::size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  /// Length m shared by all series (0 when empty).
  std::size_t length() const { return store_.length(); }

  /// The contiguous row-major pool backing this dataset.
  const SeriesStore& store() const { return store_; }

  /// Batch view over all rows — what clustering / pairwise / scanner
  /// interfaces take. Valid until the next Add/Append/Reserve.
  SeriesBatch batch() const { return SeriesBatch(store_); }

  const std::vector<int>& labels() const { return labels_; }

  /// Read-only view of series i. Valid until the next Add/Append/Reserve.
  SeriesView view(std::size_t i) const { return store_.view(i); }

  /// Compatibility shim: series i copied into an owned vector. Prefer
  /// view(i); use this only where an owned Series is genuinely needed.
  Series series(std::size_t i) const {
    const SeriesView v = store_.view(i);
    return Series(v.begin(), v.end());
  }

  int label(std::size_t i) const { return labels_[i]; }

  /// Mutable view of series i (values only; the length is locked; intended
  /// for in-place normalization). Valid until the next Add/Append/Reserve —
  /// unlike the raw pointer it replaces, a view's extent also documents that
  /// resizing is impossible.
  MutableSeriesView MutableView(std::size_t i) {
    return store_.MutableView(i);
  }

  /// Applies `fn(MutableSeriesView)` to every row in index order — the
  /// bulk in-place transform API (z-normalize a dataset, fill missing
  /// values) that replaces handing out raw pointers.
  template <typename Fn>
  void ApplyInPlace(Fn&& fn) {
    for (std::size_t i = 0; i < store_.size(); ++i) fn(store_.MutableView(i));
  }

  /// Number of distinct labels.
  int NumClasses() const;

  /// The distinct labels in sorted order.
  std::vector<int> DistinctLabels() const;

  /// Returns a new dataset holding the rows with the given indices.
  Dataset Subset(const std::vector<std::size_t>& indices,
                 std::string name) const;

  /// Concatenates `other` onto this dataset (used to fuse train + test for
  /// the clustering experiments, as in §4 of the paper). Lengths must match.
  void Append(const Dataset& other);

 private:
  std::string name_;
  SeriesStore store_;
  std::vector<int> labels_;
};

/// A dataset split into train and test parts, following the UCR layout used
/// for the 1-NN distance-measure evaluation (§4 of the paper).
struct SplitDataset {
  Dataset train;
  Dataset test;

  /// The train and test parts fused into one dataset (used for clustering).
  /// Reserves the fused store up front: one allocation, no per-series
  /// reallocation churn.
  Dataset Fused() const;

  const std::string& name() const { return train.name(); }
};

}  // namespace kshape::tseries

#endif  // KSHAPE_TSERIES_TIME_SERIES_H_
