#ifndef KSHAPE_LINALG_ROW_POOL_H_
#define KSHAPE_LINALG_ROW_POOL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace kshape::linalg {

/// Deterministic parallel matvec against a contiguous row-major pool of
/// equal-length rows: Apply(u, out) computes
///
///   out = Σ_r (x_r · u) · x_r        (x_r = row r of the pool)
///
/// i.e. S·u for S = Σ_r x_r x_rᵀ without ever forming S — O(num_rows·m) per
/// application instead of the O(m²) dense product (and O(num_rows·m²) dense
/// accumulation). This is the engine of matrix-free shape extraction (where
/// the rows are the aligned z-normalized members and S is the Gram matrix)
/// and of the matrix-free KSC centroid (rows pre-scaled by 1/||b_r||).
///
/// Determinism contract: the rows are split into contiguous blocks whose
/// boundaries are a pure function of the row count alone — never the thread
/// count. Each block is reduced by the fused simd dot_axpy_rows kernel into
/// its own partial vector (disjoint writes on the pool), and the partials are
/// combined sequentially in block order on the calling thread. Results are
/// therefore bit-identical at any thread count and across SIMD backends, the
/// same contract every kernel and ParallelFor pattern in this codebase obeys.
class RowPoolMatVec {
 public:
  /// Views `rows` (num_rows rows of length m, row r at rows + r*m). The
  /// buffer must outlive the object and stay unchanged across Apply calls.
  /// num_rows == 0 is allowed (Apply then writes the zero vector).
  RowPoolMatVec(const double* rows, std::size_t num_rows, std::size_t m);

  /// Overwrites `out` with Σ_r (x_r·u) x_r. `u` and `out` must have length
  /// m and may not alias the pool. Not thread-safe (the partial buffers are
  /// reused); call from the coordinating thread — the fan-out over blocks
  /// happens inside.
  void Apply(std::span<const double> u, std::span<double> out);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t m() const { return m_; }

 private:
  const double* rows_;
  std::size_t num_rows_;
  std::size_t m_;
  std::size_t grain_;
  std::size_t num_chunks_;
  std::vector<double> partials_;  // num_chunks_ blocks of length m_.
};

}  // namespace kshape::linalg

#endif  // KSHAPE_LINALG_ROW_POOL_H_
