#ifndef KSHAPE_CORE_SHAPE_EXTRACTION_H_
#define KSHAPE_CORE_SHAPE_EXTRACTION_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/random.h"
#include "linalg/matrix.h"
#include "tseries/time_series.h"

namespace kshape::core {

/// Options for ExtractShape.
struct ShapeExtractionOptions {
  /// When true, use O(n^2)-per-step power iteration for the dominant
  /// eigenvector (with a deterministic full-decomposition fallback); when
  /// false, always run the full symmetric eigendecomposition. The ablation
  /// bench compares the two.
  bool use_power_iteration = true;

  /// When true (default), seed the power iteration with the (z-normalized)
  /// reference series — the previous centroid in the k-Shape loop, which
  /// changes little between refinement iterations, so the iteration starts
  /// near its fixed point and converges in a handful of matrix-vector
  /// products instead of tens. A zero-norm reference (the first iteration)
  /// falls back to the usual random start, as does `warm_start = false` —
  /// kept for the warm-vs-cold ablation (ablation_eigensolver). Only affects
  /// the power-iteration path; the centroid still converges to the same
  /// dominant eigenvector (the SymmetricEigen stall fallback is unchanged),
  /// but the start-point change can shift the result within the
  /// eigensolver's tolerance.
  bool warm_start = true;

  /// Crossover: clusters with at least this many contributing members solve
  /// the eigenproblem matrix-free — each power-iteration step applies
  /// M·v = Q(Σ yᵢ(yᵢ·(Qv))) over the pooled aligned z-normalized rows, with
  /// the rank-one centering Qv = v − mean(v)·1, in O(n_c·m) instead of
  /// O(n_c·m²) to accumulate the m×m Gram S plus O(m²) per step. Smaller
  /// clusters build the dense Gram from the same rows, because for them the
  /// per-step fan-out costs more than the small Gram it avoids. The
  /// matrix-free win grows with the cluster: a Gram-vs-matrix-free sweep
  /// measured 3.2x warm at n_c = 500, m = 512, and up to 15x at n_c = 50,
  /// m = 1024, where accumulating the Gram is pure overhead; 8 keeps only
  /// clusters far below those sizes dense. The two solves agree to
  /// epsilon (different summation order), not bitwise; SIZE_MAX forces the
  /// dense solve everywhere, the reference the equivalence tests compare
  /// against. Only the power-iteration path is matrix-free: the
  /// full-eigensolver ablation always needs the dense matrix.
  std::size_t matrix_free_min_members = 8;
};

/// Shape extraction, Algorithm 2 of the paper.
///
/// Computes the cluster centroid that maximizes the summed squared NCCc to
/// the cluster members (Equation 13), reduced to a Rayleigh-quotient
/// maximization (Equation 15): the dominant eigenvector of
/// M = Q^T (X'^T X') Q with Q = I - (1/m) * ones.
///
/// `members` are the (z-normalized) series of the cluster; `reference` is the
/// previous centroid toward which members are SBD-aligned before the
/// eigenproblem. A zero-norm reference (the all-zero initial centroid of
/// Algorithm 3) skips alignment, matching the reference implementation.
/// The eigenvector's sign is chosen to correlate positively with the cluster
/// mean, and the result is z-normalized.
///
/// Returns the all-zero series when `members` is empty. `rng` seeds the power
/// iteration start vector. The batch is read, never retained.
tseries::Series ExtractShape(const tseries::SeriesBatch& members,
                             tseries::SeriesView reference,
                             common::Rng* rng,
                             const ShapeExtractionOptions& options = {});

/// The result of a flagged shape extraction: the centroid plus an explicit
/// repair signal for degenerate member sets.
struct ExtractedShape {
  tseries::Series centroid;

  /// True when no member contributed to the eigenproblem: the member set was
  /// empty, or every member z-normalized to the zero series (all-constant
  /// data). The centroid is then the all-zero series — a deliberate, flagged
  /// value rather than a silent one: under SBD the zero-norm centroid is at
  /// the documented fallback distance 1 from everything, so callers can
  /// either keep it (all-constant clusters are legitimately represented by
  /// it) or re-seed.
  bool degenerate = false;
};

/// ExtractShape with the degenerate-member-set repair signal. Non-degenerate
/// inputs produce bit-identical centroids to ExtractShape; degenerate inputs
/// skip the eigenproblem entirely (the previous behavior ran power iteration
/// on the zero matrix and returned a z-normalized random start vector) and
/// return the flagged zero centroid instead.
ExtractedShape ExtractShapeFlagged(const tseries::SeriesBatch& members,
                                   tseries::SeriesView reference,
                                   common::Rng* rng,
                                   const ShapeExtractionOptions& options = {});

/// Streaming shape extraction: the member loop of Algorithm 2 decoupled from
/// member storage, so a caller that cannot hold (or even view) all members at
/// once — the sharded out-of-core driver streaming one shard at a time — can
/// feed them incrementally and Finish() into the same eigenproblem.
///
/// The batch entry points above are implemented on this class, so streaming
/// members in the same order they'd appear in a batch produces bit-identical
/// centroids to ExtractShapeFlagged — the equivalence the sharded-vs-
/// contiguous clustering tests rely on.
///
/// The accumulator stores the aligned z-normalized members in a contiguous
/// row-major pool (O(n_c·m) memory; the m×m Gram is never accumulated).
/// Finish power-iterates through linalg::DominantEigenvectorOp with a
/// deterministic fan-out over member blocks (linalg::RowPoolMatVec) —
/// bit-identical at any thread count and across SIMD backends. Wherever a
/// dense solve runs instead (clusters below matrix_free_min_members,
/// use_power_iteration = false, the eigensolver's stall fallback) the Gram is
/// built from the pool in Add order, bit-identical to accumulating it member
/// by member.
///
/// Usage: construct with the alignment reference (the previous centroid; the
/// reference is copied, so the view may die immediately), optionally
/// Reserve() the member count, Add() each member in a deterministic order,
/// then Finish(). Not thread-safe; one accumulator per cluster, fed from the
/// coordinating thread (Finish's matrix-free path fans out internally).
class ShapeAccumulator {
 public:
  /// `reference` must be non-empty; its length fixes the member length. A
  /// zero-norm reference (the all-zero initial centroid) disables alignment,
  /// as in ExtractShape, unless `align` says otherwise: a channel of a
  /// multichannel centroid aligns whenever the whole centroid is nonzero.
  /// Only a nonzero reference warm-starts. `options` is accepted for
  /// symmetry with Finish, which is where it takes effect.
  explicit ShapeAccumulator(tseries::SeriesView reference,
                            const ShapeExtractionOptions& options = {},
                            std::optional<bool> align = std::nullopt);

  /// Pre-sizes the pool for `members` more Add() calls, so it is allocated
  /// once instead of growing row by row. Changes no result.
  void Reserve(std::size_t members);

  /// Folds one member into the running state (pooled row plus the mean),
  /// aligned to the reference by a per-pair Sbd(reference, member).
  /// Members that z-normalize to the zero series after alignment are counted
  /// but contribute nothing (the degenerate-set rule of ExtractShapeFlagged).
  void Add(tseries::SeriesView member);

  /// Add() with the alignment already known: `shift` is the NCC peak shift
  /// of `member` against the reference (Sbd(reference, member).shift, or
  /// SbdEngine::MaxNcc against the reference's query), and the member is
  /// aligned by tseries::ShiftWithZeroFill alone — no transform. The aligned
  /// row depends only on the integer shift, so this pools exactly the row
  /// Add(member) would for the same shift. Ignored when the reference has
  /// zero norm (alignment is off); otherwise must lie in (-m, m).
  void Add(tseries::SeriesView member, int shift);

  /// True when members are aligned to the reference (its norm is nonzero).
  bool aligns() const { return align_; }

  /// Number of Add() calls so far (including degenerate members).
  std::size_t members_added() const { return added_; }

  /// Solves the eigenproblem over everything added so far. Leaves the
  /// accumulator intact (Finish is const: mirroring/centering work on
  /// copies, the matrix-free path only reads the pool), matching
  /// ExtractShapeFlagged on the same member sequence bit for bit — including
  /// the degenerate zero-centroid result when nothing contributed, and the
  /// rng draw only on cold starts.
  ExtractedShape Finish(common::Rng* rng,
                        const ShapeExtractionOptions& options = {}) const;

 private:
  // Counts one member and pools its aligned row unless it z-normalizes to
  // zero.
  void Pool(tseries::Series aligned);

  // The symmetric Gram S = Σ yᵢyᵢᵀ folded from the pool in Add order and
  // mirrored to both triangles, for the dense solves.
  linalg::Matrix MirroredGram() const;

  ExtractedShape FinishDense(common::Rng* rng,
                             const ShapeExtractionOptions& options) const;
  ExtractedShape FinishMatrixFree(common::Rng* rng,
                                  const ShapeExtractionOptions& options) const;

  tseries::Series reference_;
  bool align_ = false;
  tseries::SeriesStore pool_;  // Aligned z-normalized members.
  std::vector<double> mean_;
  std::size_t used_ = 0;
  std::size_t added_ = 0;
};

}  // namespace kshape::core

#endif  // KSHAPE_CORE_SHAPE_EXTRACTION_H_
