#include "core/shape_extraction.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/sbd.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/row_pool.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"

namespace kshape::core {

namespace {

// Centers M = Q S Q for Q = I - (1/m) * ones in O(m^2) using
// M_ij = S_ij - rowmean_i - colmean_j + grandmean, instead of two O(m^3)
// matrix products. In place: the means are computed up front, so each entry
// is read once and overwritten — no second m×m buffer (the historical
// implementation allocated one, doubling peak Gram-path memory).
void CenterGramInPlace(linalg::Matrix* s_ptr) {
  linalg::Matrix& s = *s_ptr;
  const std::size_t m = s.rows();
  std::vector<double> row_mean(m, 0.0);
  std::vector<double> col_mean(m, 0.0);
  // One kernel pass per row: the row sum reduces the row, the axpy folds it
  // into the running column sums; the grand sum is the reduction of the row
  // sums. All three stay within the epsilon contract of the fused legacy
  // triple accumulation.
  for (std::size_t i = 0; i < m; ++i) {
    row_mean[i] = simd::Active().sum(s.Row(i), m);
    simd::Active().axpy(1.0, s.Row(i), col_mean.data(), m);
  }
  double grand = simd::Sum(row_mean);
  const double inv_m = 1.0 / static_cast<double>(m);
  simd::Scale(row_mean, inv_m);
  simd::Scale(col_mean, inv_m);
  grand *= inv_m * inv_m;

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      s(i, j) = s(i, j) - row_mean[i] - col_mean[j] + grand;
    }
  }
}

}  // namespace

ShapeAccumulator::ShapeAccumulator(tseries::SeriesView reference,
                                   const ShapeExtractionOptions& /*options*/,
                                   std::optional<bool> align)
    : reference_(reference.begin(), reference.end()),
      align_(align.value_or(linalg::Norm(reference) > 0.0)),
      mean_(reference.size(), 0.0) {
  KSHAPE_CHECK_MSG(!reference_.empty(), "empty shape-extraction reference");
}

void ShapeAccumulator::Reserve(std::size_t members) {
  pool_.Reserve(members, reference_.size());
}

void ShapeAccumulator::Add(tseries::SeriesView member) {
  KSHAPE_CHECK_MSG(member.size() == reference_.size(),
                   "member length mismatch");
  Pool(align_ ? Sbd(reference_, member).aligned_y
              : tseries::Series(member.begin(), member.end()));
}

void ShapeAccumulator::Add(tseries::SeriesView member, int shift) {
  KSHAPE_CHECK_MSG(member.size() == reference_.size(),
                   "member length mismatch");
  // The row Sbd(reference, member) would align, read off the shift alone.
  Pool(align_ ? tseries::ShiftWithZeroFill(member, shift)
              : tseries::Series(member.begin(), member.end()));
}

void ShapeAccumulator::Pool(tseries::Series aligned) {
  ++added_;
  // Pool the aligned, z-normalized members y_i; S = sum_i y_i y_i^T is
  // applied from the pool (or folded from it for a dense solve) in Finish.
  // Members that z-normalize to the zero series (constant after alignment)
  // contribute nothing to S or the mean; they are skipped so a fully
  // degenerate member set can be detected instead of feeding the zero matrix
  // to the eigensolver, which would return an arbitrary start vector.
  tseries::ZNormalizeInPlace(&aligned);
  if (linalg::Norm(aligned) == 0.0) return;
  pool_.Append(aligned);
  linalg::Axpy(1.0, aligned, &mean_);
  ++used_;
}

linalg::Matrix ShapeAccumulator::MirroredGram() const {
  // Upper triangle only (S is symmetric), mirrored once at half the
  // accumulation cost — bit-identical to the full outer products.
  const std::size_t m = reference_.size();
  linalg::Matrix s(m, m);
  for (std::size_t r = 0; r < pool_.size(); ++r) {
    s.AddSymmetricOuterProduct(pool_.view(r));
  }
  s.MirrorUpperToLower();
  return s;
}

ExtractedShape ShapeAccumulator::Finish(
    common::Rng* rng, const ShapeExtractionOptions& options) const {
  KSHAPE_CHECK(rng != nullptr);
  const std::size_t m = reference_.size();
  if (used_ == 0) {
    ExtractedShape result;
    result.centroid = tseries::Series(m, 0.0);
    result.degenerate = true;
    return result;
  }
  // Crossover: tiny clusters pay more in per-step fan-out than the small
  // Gram costs, so they fold the pool into the dense path.
  if (options.use_power_iteration &&
      used_ >= options.matrix_free_min_members) {
    return FinishMatrixFree(rng, options);
  }
  return FinishDense(rng, options);
}

ExtractedShape ShapeAccumulator::FinishDense(
    common::Rng* rng, const ShapeExtractionOptions& options) const {
  const std::size_t m = reference_.size();
  linalg::Matrix centered = MirroredGram();
  CenterGramInPlace(&centered);

  std::vector<double> centroid;
  if (options.use_power_iteration) {
    // Warm start: the alignment reference (the previous centroid) is close
    // to the new dominant eigenvector once the clustering begins to settle,
    // so seeding with it saves most of the power-iteration steps. A zero
    // reference (a zero channel aligned with its centroid) gives the
    // eigensolver a zero seed, which it replaces with the random start.
    std::vector<double> seed;
    if (options.warm_start && align_) {
      seed.assign(reference_.begin(), reference_.end());
    }
    centroid = linalg::DominantEigenvector(
        centered, rng, /*max_iters=*/200, /*tol=*/1e-10,
        /*eigenvalue=*/nullptr, seed.empty() ? nullptr : &seed);
  } else {
    const linalg::EigenDecomposition decomp = linalg::SymmetricEigen(centered);
    centroid = decomp.eigenvectors.ColVector(m - 1);  // Largest eigenvalue.
  }

  // An eigenvector's sign is arbitrary; pick the orientation that correlates
  // positively with the cluster mean so centroids look like the data.
  if (linalg::Dot(centroid, mean_) < 0.0) {
    linalg::Scale(&centroid, -1.0);
  }
  tseries::ZNormalizeInPlace(&centroid);
  ExtractedShape result;
  result.centroid = std::move(centroid);
  return result;
}

ExtractedShape ShapeAccumulator::FinishMatrixFree(
    common::Rng* rng, const ShapeExtractionOptions& options) const {
  const std::size_t m = reference_.size();
  // M·v = Q(S(Qv)) with Qv = v − mean(v)·1 (rank-one centering) and
  // S(u) = Σ yᵢ(yᵢ·u) applied row-wise over the pooled members: O(n_c·m)
  // per power step, the Gram never formed. S here is the same sum the dense
  // solve folds from the pool, up to summation order — the epsilon-level
  // difference the matrix-free-vs-dense tests allow for.
  linalg::RowPoolMatVec pool_op(pool_.data(), pool_.size(), m);
  std::vector<double> centered(m);
  const linalg::MatVecFn matvec = [&](const std::vector<double>& v,
                                      std::vector<double>* out) {
    const double v_mean = simd::Sum(v) / static_cast<double>(m);
    for (std::size_t j = 0; j < m; ++j) centered[j] = v[j] - v_mean;
    pool_op.Apply(centered, *out);
    const double w_mean = simd::Sum(*out) / static_cast<double>(m);
    for (double& x : *out) x -= w_mean;
  };
  // The O(m³) stall fallback needs the dense centered matrix; materialize it
  // lazily from the pool — at most once per cold extraction (warm starts
  // never reach it, per the eigensolver's stall contract).
  const linalg::MaterializeFn materialize = [&]() {
    linalg::Matrix s = MirroredGram();
    CenterGramInPlace(&s);
    return s;
  };

  std::vector<double> seed;
  if (options.warm_start && align_) {
    seed.assign(reference_.begin(), reference_.end());
  }
  std::vector<double> centroid = linalg::DominantEigenvectorOp(
      m, matvec, materialize, rng, /*max_iters=*/200, /*tol=*/1e-10,
      /*eigenvalue=*/nullptr, seed.empty() ? nullptr : &seed);

  if (linalg::Dot(centroid, mean_) < 0.0) {
    linalg::Scale(&centroid, -1.0);
  }
  tseries::ZNormalizeInPlace(&centroid);
  ExtractedShape result;
  result.centroid = std::move(centroid);
  return result;
}

tseries::Series ExtractShape(const tseries::SeriesBatch& members,
                             tseries::SeriesView reference,
                             common::Rng* rng,
                             const ShapeExtractionOptions& options) {
  return ExtractShapeFlagged(members, reference, rng, options).centroid;
}

ExtractedShape ExtractShapeFlagged(const tseries::SeriesBatch& members,
                                   tseries::SeriesView reference,
                                   common::Rng* rng,
                                   const ShapeExtractionOptions& options) {
  KSHAPE_CHECK(rng != nullptr);
  if (members.empty()) {
    ExtractedShape result;
    result.centroid = tseries::Series(reference.size(), 0.0);
    result.degenerate = true;
    return result;
  }
  ShapeAccumulator accumulator(reference, options);
  for (std::size_t i = 0; i < members.size(); ++i) accumulator.Add(members[i]);
  return accumulator.Finish(rng, options);
}

}  // namespace kshape::core
