#include "linalg/row_pool.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "simd/dispatch.h"

namespace kshape::linalg {

namespace {

// Upper bound on the number of row blocks. Fixed (not derived from the
// thread count) so the block boundaries — and with them the reduction
// order — are identical at any parallelism level. 64 blocks saturate the
// pool on any machine this targets while keeping the partial-vector scratch
// at 64·m doubles.
constexpr std::size_t kMaxChunks = 64;

// Rows below which a block is not worth a chunk of its own: the per-chunk
// dispatch cost would rival the dot+axpy work at small m.
constexpr std::size_t kMinGrain = 4;

}  // namespace

RowPoolMatVec::RowPoolMatVec(const double* rows, std::size_t num_rows,
                             std::size_t m)
    : rows_(rows), num_rows_(num_rows), m_(m) {
  KSHAPE_CHECK(m >= 1);
  KSHAPE_CHECK(rows != nullptr || num_rows == 0);
  grain_ = std::max(kMinGrain, (num_rows + kMaxChunks - 1) / kMaxChunks);
  num_chunks_ = (num_rows + grain_ - 1) / grain_;
  partials_.assign(num_chunks_ * m_, 0.0);
}

void RowPoolMatVec::Apply(std::span<const double> u, std::span<double> out) {
  KSHAPE_CHECK(u.size() == m_ && out.size() == m_);
  const simd::KernelTable& kt = simd::Active();

  std::fill(partials_.begin(), partials_.end(), 0.0);
  // Each chunk writes only its own partial block — disjoint writes, any
  // schedule. Grain 1 over chunks: the chunks themselves are the grain.
  common::ParallelFor(0, num_chunks_, 1,
                      [&](std::size_t chunk_begin, std::size_t chunk_end) {
    for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
      const std::size_t row_begin = c * grain_;
      const std::size_t row_end = std::min(num_rows_, row_begin + grain_);
      kt.dot_axpy_rows(rows_ + row_begin * m_, row_end - row_begin, m_,
                       u.data(), partials_.data() + c * m_);
    }
  });

  // Sequential fixed-order reduction: chunk 0, 1, 2, ... on the calling
  // thread. One rounded add per (chunk, element); the multiply by 1.0 in
  // axpy is exact.
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    kt.axpy(1.0, partials_.data() + c * m_, out.data(), m_);
  }
}

}  // namespace kshape::linalg
