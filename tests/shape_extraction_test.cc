#include "core/shape_extraction.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "fft/rfft.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"

namespace kshape::core {
namespace {

using tseries::Series;

constexpr double kPi = 3.14159265358979323846;

Series Sine(std::size_t m, double cycles, double phase) {
  Series x(m);
  for (std::size_t t = 0; t < m; ++t) {
    x[t] = std::sin(2.0 * kPi * cycles * t / static_cast<double>(m) + phase);
  }
  return x;
}

TEST(ShapeExtractionTest, EmptyClusterGivesZeroCentroid) {
  common::Rng rng(1);
  const Series reference(32, 0.0);
  const Series centroid = ExtractShape({}, reference, &rng);
  ASSERT_EQ(centroid.size(), 32u);
  for (double v : centroid) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ShapeExtractionTest, CentroidOfIdenticalCopiesIsTheShape) {
  common::Rng rng(2);
  const Series base = tseries::ZNormalized(Sine(64, 2.0, 0.3));
  const std::vector<Series> members = {base, base, base};
  const Series centroid = ExtractShape(members, Series(64, 0.0), &rng);
  // The centroid is z-normalized and sign-fixed toward the cluster mean, so
  // it must match the base shape up to numerical error.
  const double d = Sbd(base, centroid).distance;
  EXPECT_NEAR(d, 0.0, 1e-6);
}

TEST(ShapeExtractionTest, CentroidIsZNormalized) {
  common::Rng rng(3);
  std::vector<Series> members;
  for (int i = 0; i < 5; ++i) {
    Series s = Sine(48, 1.0, 0.1 * i);
    for (double& v : s) v += rng.Gaussian(0.0, 0.1);
    members.push_back(tseries::ZNormalized(s));
  }
  const Series centroid = ExtractShape(members, Series(48, 0.0), &rng);
  EXPECT_NEAR(tseries::Mean(centroid), 0.0, 1e-9);
  EXPECT_NEAR(tseries::StdDev(centroid), 1.0, 1e-9);
}

TEST(ShapeExtractionTest, AlignsShiftedCopiesBeforeAveraging) {
  // Members are shifted copies of one bump; with a non-zero reference the
  // extraction must align them and recover a single sharp bump rather than a
  // smeared average.
  const std::size_t m = 96;
  Series bump(m, 0.0);
  for (std::size_t t = 40; t < 50; ++t) bump[t] = 1.0;
  const Series base = tseries::ZNormalized(bump);

  common::Rng rng(4);
  std::vector<Series> members;
  for (int shift : {-8, -4, 0, 4, 8}) {
    members.push_back(
        tseries::ZNormalized(tseries::ShiftWithZeroFill(base, shift)));
  }
  const Series centroid = ExtractShape(members, base, &rng);
  EXPECT_LT(Sbd(base, centroid).distance, 0.05);
}

TEST(ShapeExtractionTest, SignIsOrientedTowardClusterMean) {
  common::Rng rng(5);
  const Series base = tseries::ZNormalized(Sine(40, 1.0, 0.0));
  const std::vector<Series> members = {base, base};
  const Series centroid = ExtractShape(members, Series(40, 0.0), &rng);
  EXPECT_GT(linalg::Dot(centroid, base), 0.0);
}

TEST(ShapeExtractionTest, PowerIterationMatchesFullEigensolver) {
  common::Rng rng(6);
  std::vector<Series> members;
  for (int i = 0; i < 8; ++i) {
    Series s = Sine(32, 2.0, 0.0);
    for (double& v : s) v += rng.Gaussian(0.0, 0.3);
    members.push_back(tseries::ZNormalized(s));
  }
  ShapeExtractionOptions power;
  power.use_power_iteration = true;
  ShapeExtractionOptions full;
  full.use_power_iteration = false;

  common::Rng rng_a(7);
  common::Rng rng_b(7);
  const Series via_power =
      ExtractShape(members, Series(32, 0.0), &rng_a, power);
  const Series via_full = ExtractShape(members, Series(32, 0.0), &rng_b, full);
  for (std::size_t t = 0; t < 32; ++t) {
    EXPECT_NEAR(via_power[t], via_full[t], 1e-5);
  }
}

TEST(ShapeExtractionTest, BetterRepresentativeThanArithmeticMeanOnShifts) {
  // The motivating example of Figure 4: for out-of-phase members, the
  // arithmetic mean smears the shape while shape extraction keeps it sharp.
  const std::size_t m = 128;
  Series bump(m, 0.0);
  for (std::size_t t = 50; t < 62; ++t) bump[t] = 1.0;
  const Series base = tseries::ZNormalized(bump);

  common::Rng rng(10);
  std::vector<Series> members;
  for (int shift : {-20, -10, 0, 10, 20}) {
    members.push_back(
        tseries::ZNormalized(tseries::ShiftWithZeroFill(base, shift)));
  }

  Series mean(m, 0.0);
  for (const Series& s : members) linalg::Axpy(1.0, s, &mean);
  linalg::Scale(&mean, 1.0 / members.size());
  const Series extracted = ExtractShape(members, base, &rng);

  // Sum of squared SBDs to members: extraction must beat the mean.
  double mean_cost = 0.0;
  double extract_cost = 0.0;
  for (const Series& s : members) {
    const double dm = Sbd(mean, s).distance;
    const double de = Sbd(extracted, s).distance;
    mean_cost += dm * dm;
    extract_cost += de * de;
  }
  EXPECT_LT(extract_cost, mean_cost);
}

// ---------------------------------------------------------------------------
// Dominant-eigenvector stall handling (ROADMAP: the power iteration used to
// punt straight to the O(m^3) full decomposition when the top eigenvalues
// were near-degenerate).
// ---------------------------------------------------------------------------

// The acceptance tolerance of the power iteration in linalg/eigen.cc: an
// iterate whose eigen-residual is within this much of max(|lambda|, 1) is
// taken as an eigenvector of the dominant eigenvalue.
constexpr double kResidualAcceptTol = 1e-8;

struct RayleighFit {
  double value;     // v'Mv / v'v
  double residual;  // ||Mv - value·v|| / ||v||
};

// Rayleigh quotient and relative eigen-residual of `v` under Equation 15's
// M = Q (Σ yᵢyᵢᵀ) Q for unaligned members (the first extraction's zero
// reference skips alignment).
RayleighFit CenteredGramRayleigh(const Series& v,
                                 const std::vector<Series>& members) {
  const std::size_t m = v.size();
  const auto center = [m](Series x) {
    double mean = 0.0;
    for (double t : x) mean += t;
    mean /= static_cast<double>(m);
    for (double& t : x) t -= mean;
    return x;
  };
  const Series qv = center(v);
  Series w(m, 0.0);
  for (const Series& y : members) {
    linalg::Axpy(linalg::Dot(y, qv), y, &w);
  }
  w = center(w);
  const double vv = linalg::Dot(v, v);
  const double value = linalg::Dot(v, w) / vv;
  double r2 = 0.0;
  for (std::size_t t = 0; t < m; ++t) {
    r2 += (w[t] - value * v[t]) * (w[t] - value * v[t]);
  }
  return {value, std::sqrt(r2 / vv)};
}

TEST(ShapeExtractionTest, NoExpensiveFallbackOnUniformlyPhaseShiftedCorpus) {
  // Uniformly phase-shifted copies of one sine make the centered Gram matrix
  // (nearly) circulant: its top eigenvalue is a degenerate sin/cos pair, the
  // historical worst case for power-iteration convergence. The stall fix
  // must resolve it with the residual check / cheap shifted restarts — the
  // full-decomposition fallback counter has to stay at zero — while reaching
  // the full decomposition's Rayleigh quotient.
  const std::size_t m = 64;
  const int n = 32;
  std::vector<Series> members;
  for (int i = 0; i < n; ++i) {
    members.push_back(tseries::ZNormalized(
        Sine(m, 1.0, 2.0 * kPi * i / static_cast<double>(n))));
  }

  linalg::ResetDominantEigenvectorFallbackCountForTesting();
  common::Rng rng_power(77);
  const Series power =
      ExtractShape(members, Series(m, 0.0), &rng_power);
  EXPECT_EQ(linalg::DominantEigenvectorFallbackCountForTesting(), 0);

  ShapeExtractionOptions full_options;
  full_options.use_power_iteration = false;
  common::Rng rng_full(77);
  const Series full =
      ExtractShape(members, Series(m, 0.0), &rng_full, full_options);

  // Any vector in the degenerate top eigenspace is an equally good centroid
  // for Equation 15. Summed squared SBD is not constant across that
  // eigenspace, so the contract is the Rayleigh quotient: the power centroid
  // reaches the full decomposition's value, and is an eigenvector, within
  // the solver's own acceptance tolerance.
  const RayleighFit from_power = CenteredGramRayleigh(power, members);
  const RayleighFit from_full = CenteredGramRayleigh(full, members);
  const double tol =
      kResidualAcceptTol * std::max(std::fabs(from_full.value), 1.0);
  EXPECT_GE(from_power.value, from_full.value - tol)
      << "full decomposition " << from_full.value;
  EXPECT_LE(from_power.residual, tol) << "Rayleigh " << from_power.value;
}

TEST(ShapeExtractionTest, FallbackIsCappedOnNoisyNearDegenerateSweep) {
  // With noise the top pair splits into two CLOSE but distinct eigenvalues —
  // the genuinely hard case where power iteration converges too slowly and
  // the full decomposition is the right answer. The fix caps the damage:
  // at most ONE full solve per extraction (no unbounded restart stall), and
  // warm-started extractions — every refinement iteration after the first in
  // the k-Shape loop — start near the fixed point and never fall back.
  common::Rng rng(91);
  for (const std::size_t m : {std::size_t{31}, std::size_t{48}}) {
    std::vector<Series> members;
    for (int i = 0; i < 20; ++i) {
      Series s = Sine(m, 1.0, 2.0 * kPi * i / 20.0);
      for (double& v : s) v += rng.Gaussian(0.0, 0.05);
      members.push_back(tseries::ZNormalized(s));
    }
    linalg::ResetDominantEigenvectorFallbackCountForTesting();
    const Series cold = ExtractShape(members, Series(m, 0.0), &rng);
    EXPECT_LE(linalg::DominantEigenvectorFallbackCountForTesting(), 1)
        << "m=" << m;
    // Warm-started from the previous centroid, as the k-Shape refinement
    // loop does on every iteration after the first.
    linalg::ResetDominantEigenvectorFallbackCountForTesting();
    const Series warm = ExtractShape(members, cold, &rng);
    EXPECT_EQ(linalg::DominantEigenvectorFallbackCountForTesting(), 0)
        << "m=" << m;
    EXPECT_EQ(warm.size(), m);
  }
}

// ---------------------------------------------------------------------------
// Streaming extraction (ShapeAccumulator) — the out-of-core driver's path.
// ---------------------------------------------------------------------------

TEST(ShapeExtractionTest, AccumulatorMatchesBatchExtractionBitwise) {
  common::Rng corpus_rng(12);
  std::vector<Series> members;
  for (int i = 0; i < 9; ++i) {
    Series s = Sine(40, 1.0 + (i % 3), 0.2 * i);
    for (double& v : s) v += corpus_rng.Gaussian(0.0, 0.1);
    members.push_back(tseries::ZNormalized(s));
  }
  for (const Series& reference :
       {Series(40, 0.0), tseries::ZNormalized(Sine(40, 2.0, 0.5))}) {
    common::Rng rng_batch(13);
    common::Rng rng_stream(13);
    const ExtractedShape batch =
        ExtractShapeFlagged(members, reference, &rng_batch);

    ShapeAccumulator accumulator(reference);
    for (const Series& s : members) accumulator.Add(s);
    EXPECT_EQ(accumulator.members_added(), members.size());
    const ExtractedShape streamed = accumulator.Finish(&rng_stream);

    EXPECT_EQ(streamed.degenerate, batch.degenerate);
    ASSERT_EQ(streamed.centroid.size(), batch.centroid.size());
    for (std::size_t t = 0; t < batch.centroid.size(); ++t) {
      EXPECT_EQ(streamed.centroid[t], batch.centroid[t]) << "sample " << t;
    }
  }
}

TEST(ShapeExtractionTest, AccumulatorWithNoMembersIsDegenerate) {
  const ShapeAccumulator accumulator(Series(24, 0.0));
  EXPECT_EQ(accumulator.members_added(), 0u);
  common::Rng rng(14);
  const ExtractedShape extracted = accumulator.Finish(&rng);
  EXPECT_TRUE(extracted.degenerate);
  ASSERT_EQ(extracted.centroid.size(), 24u);
  for (double v : extracted.centroid) EXPECT_EQ(v, 0.0);
}

TEST(ShapeExtractionTest, AccumulatorCountsConstantMembersButDropsThem) {
  ShapeAccumulator accumulator(Series(16, 0.0));
  accumulator.Add(Series(16, 3.5));  // Z-normalizes to zero: no contribution.
  accumulator.Add(Series(16, -1.0));
  EXPECT_EQ(accumulator.members_added(), 2u);
  common::Rng rng(15);
  const ExtractedShape extracted = accumulator.Finish(&rng);
  EXPECT_TRUE(extracted.degenerate);
}

TEST(ShapeExtractionTest, AccumulatorFinishIsRepeatable) {
  // Finish is const (it works on copies), so interleaving Finish with more
  // Adds — the sampled-iteration pattern of the mini-batch driver — must
  // leave earlier results unchanged.
  std::vector<Series> members;
  for (int i = 0; i < 6; ++i) {
    members.push_back(tseries::ZNormalized(Sine(32, 2.0, 0.3 * i)));
  }
  ShapeAccumulator accumulator(Series(32, 0.0));
  for (int i = 0; i < 4; ++i) accumulator.Add(members[i]);
  common::Rng rng_a(16);
  common::Rng rng_b(16);
  const ExtractedShape first = accumulator.Finish(&rng_a);
  const ExtractedShape again = accumulator.Finish(&rng_b);
  ASSERT_EQ(first.centroid.size(), again.centroid.size());
  for (std::size_t t = 0; t < first.centroid.size(); ++t) {
    EXPECT_EQ(first.centroid[t], again.centroid[t]);
  }
  accumulator.Add(members[4]);
  accumulator.Add(members[5]);
  EXPECT_EQ(accumulator.members_added(), 6u);
  common::Rng rng_c(16);
  const ExtractedShape extended = accumulator.Finish(&rng_c);
  EXPECT_EQ(extended.centroid.size(), first.centroid.size());
}

// ---------------------------------------------------------------------------
// Matrix-free extraction (ROADMAP: power iteration in O(n·m) per step with
// the m×m Gram never formed) — equivalence, determinism, and crossover.
// ---------------------------------------------------------------------------

class HalfSpectrumGateGuard {
 public:
  HalfSpectrumGateGuard() : saved_(fft::HalfSpectrumEnabled()) {}
  ~HalfSpectrumGateGuard() { fft::SetHalfSpectrumEnabledForTesting(saved_); }

 private:
  bool saved_;
};

class SimdBackendGuard {
 public:
  SimdBackendGuard() : saved_(simd::ActiveBackend()) {}
  ~SimdBackendGuard() {
    simd::SetBackendForTesting(saved_);
    common::SetThreadCount(1);
  }

 private:
  simd::Backend saved_;
};

// A well-conditioned extraction corpus: one dominant shape plus mild noise,
// so the top eigenvalue is isolated and both eigensolver paths converge to
// the same eigenvector (the epsilon comparisons below are then meaningful).
std::vector<Series> NoisySineCorpus(std::size_t n, std::size_t m,
                                    uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Series s = Sine(m, 2.0, 0.05 * static_cast<double>(i % 5));
    for (double& v : s) v += rng.Gaussian(0.0, 0.1);
    members.push_back(tseries::ZNormalized(s));
  }
  return members;
}

Series ExtractWith(const std::vector<Series>& members, const Series& reference,
                   uint64_t seed, const ShapeExtractionOptions& options) {
  common::Rng rng(seed);
  return ExtractShape(members, reference, &rng, options);
}

// The dense reference: the Gram is folded from the pool for every cluster
// size, never applied matrix-free.
ShapeExtractionOptions DenseOptions(ShapeExtractionOptions options = {}) {
  options.matrix_free_min_members = SIZE_MAX;
  return options;
}

// Test-local dense pipeline: align, z-normalize and skip zero rows as Add
// does, accumulate the Gram upper triangle, mirror it, and center it as
// M_ij = S_ij - rowmean_i - colmean_j + grand into a fresh matrix. `mean`
// receives the sum of the contributing rows (for the sign choice).
linalg::Matrix CenteredGramReference(const std::vector<Series>& members,
                                     const Series& reference,
                                     std::vector<double>* mean) {
  const std::size_t m = reference.size();
  linalg::Matrix s(m, m);
  mean->assign(m, 0.0);
  for (const Series& member : members) {
    Series aligned = Sbd(reference, member).aligned_y;
    tseries::ZNormalizeInPlace(&aligned);
    if (linalg::Norm(aligned) == 0.0) continue;
    s.AddSymmetricOuterProduct(aligned);
    linalg::Axpy(1.0, aligned, mean);
  }
  s.MirrorUpperToLower();
  std::vector<double> row_mean(m, 0.0);
  std::vector<double> col_mean(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    row_mean[i] = simd::Active().sum(s.Row(i), m);
    simd::Active().axpy(1.0, s.Row(i), col_mean.data(), m);
  }
  double grand = simd::Sum(row_mean);
  const double inv_m = 1.0 / static_cast<double>(m);
  simd::Scale(row_mean, inv_m);
  simd::Scale(col_mean, inv_m);
  grand *= inv_m * inv_m;
  linalg::Matrix centered(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      centered(i, j) = s(i, j) - row_mean[i] - col_mean[j] + grand;
    }
  }
  return centered;
}

// The sign choice and z-normalization Finish applies to every eigenvector.
Series OrientAndNormalize(std::vector<double> centroid,
                          const std::vector<double>& mean) {
  if (linalg::Dot(centroid, mean) < 0.0) linalg::Scale(&centroid, -1.0);
  tseries::ZNormalizeInPlace(&centroid);
  return centroid;
}

TEST(MatrixFreeExtractionTest, MatchesGramPathAcrossConfigs) {
  // The tentpole equivalence statement: matrix-free and Gram extraction
  // agree to epsilon (different summation order, not bitwise) under every
  // combination of thread count x SIMD backend x warm/cold start x spectrum
  // layout. Both paths are given identical RNG seeds; warm starts draw
  // nothing, cold starts draw the same start vector.
  HalfSpectrumGateGuard spectrum_guard;
  SimdBackendGuard backend_guard;

  const std::size_t m = 64;
  const std::vector<Series> members = NoisySineCorpus(24, m, 41);
  const Series warm_reference = tseries::ZNormalized(Sine(m, 2.0, 0.1));

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);

  for (const simd::Backend backend : backends) {
    simd::SetBackendForTesting(backend);
    for (const int threads : {1, 2, 8}) {
      common::SetThreadCount(threads);
      for (const bool half_spectrum : {false, true}) {
        fft::SetHalfSpectrumEnabledForTesting(half_spectrum);
        for (const bool warm : {false, true}) {
          const Series& reference = warm ? warm_reference : Series(m, 0.0);
          ShapeExtractionOptions matfree;
          matfree.warm_start = warm;
          ASSERT_GE(members.size(), matfree.matrix_free_min_members);
          const ShapeExtractionOptions gram = DenseOptions(matfree);

          const Series via_pool = ExtractWith(members, reference, 43, matfree);
          const Series via_gram = ExtractWith(members, reference, 43, gram);
          ASSERT_EQ(via_pool.size(), m);
          for (std::size_t t = 0; t < m; ++t) {
            EXPECT_NEAR(via_pool[t], via_gram[t], 1e-6)
                << "backend=" << simd::Kernels(backend).name
                << " threads=" << threads << " half=" << half_spectrum
                << " warm=" << warm << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(MatrixFreeExtractionTest, BitIdenticalAcrossThreadCountsAndBackends) {
  // The determinism half of the contract: the matrix-free matvec fans out
  // over fixed row blocks whose boundaries never depend on the thread count,
  // and the block partials reduce in a fixed order with no-FMA fixed-lane
  // kernels — so the centroid is bit-for-bit identical at any parallelism
  // level and across SIMD backends.
  SimdBackendGuard backend_guard;

  const std::size_t m = 96;
  const std::vector<Series> members = NoisySineCorpus(40, m, 47);
  const Series reference = tseries::ZNormalized(Sine(m, 2.0, 0.2));

  simd::SetBackendForTesting(simd::Backend::kScalar);
  common::SetThreadCount(1);
  const Series baseline = ExtractWith(members, reference, 53, {});

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (const simd::Backend backend : backends) {
    simd::SetBackendForTesting(backend);
    for (const int threads : {1, 2, 8}) {
      common::SetThreadCount(threads);
      const Series other = ExtractWith(members, reference, 53, {});
      ASSERT_EQ(other.size(), baseline.size());
      for (std::size_t t = 0; t < m; ++t) {
        EXPECT_EQ(baseline[t], other[t])
            << "backend=" << simd::Kernels(backend).name
            << " threads=" << threads << " t=" << t;
      }
    }
  }
}

TEST(MatrixFreeExtractionTest, FullEigensolverReadsThePoolBitwise) {
  // use_power_iteration = false folds the Gram from the pooled rows in Add
  // order: bit-identical to a Gram accumulated member by member, then
  // mirrored, centered and fully decomposed.
  const std::size_t m = 48;
  const std::vector<Series> members = NoisySineCorpus(16, m, 59);
  const Series reference = tseries::ZNormalized(Sine(m, 2.0, 0.3));

  ShapeExtractionOptions full;
  full.use_power_iteration = false;
  const Series production = ExtractWith(members, reference, 61, full);

  std::vector<double> mean;
  const linalg::Matrix centered =
      CenteredGramReference(members, reference, &mean);
  const linalg::EigenDecomposition decomp = linalg::SymmetricEigen(centered);
  const Series expected =
      OrientAndNormalize(decomp.eigenvectors.ColVector(m - 1), mean);

  ASSERT_EQ(production.size(), expected.size());
  for (std::size_t t = 0; t < m; ++t) {
    EXPECT_EQ(production[t], expected[t]) << "t=" << t;
  }
}

TEST(MatrixFreeExtractionTest, CrossoverBelowMinMembersMatchesGramBitwise) {
  // Small clusters pool their members but Finish crosses over to the dense
  // path: bit for bit the forced-dense result, not an epsilon-close
  // matrix-free one.
  const std::size_t m = 40;
  const std::vector<Series> members = NoisySineCorpus(5, m, 67);
  const Series reference = tseries::ZNormalized(Sine(m, 2.0, 0.4));

  ShapeExtractionOptions pooled;  // Default min_members = 8 > 5 members.
  ASSERT_LT(members.size(), pooled.matrix_free_min_members);

  const Series via_pool = ExtractWith(members, reference, 71, pooled);
  const Series via_gram = ExtractWith(members, reference, 71, DenseOptions());
  for (std::size_t t = 0; t < m; ++t) {
    EXPECT_EQ(via_pool[t], via_gram[t]) << "t=" << t;
  }
}

TEST(MatrixFreeExtractionTest, DegenerateMembersAndZeroReferenceParity) {
  // Constant members (z-normalize to zero) are dropped by both solves; a
  // fully degenerate set yields the flagged zero centroid in both.
  const std::size_t m = 32;

  // Fully degenerate: every member is constant.
  for (const bool matrix_free : {false, true}) {
    ShapeExtractionOptions options;
    options.matrix_free_min_members = matrix_free ? 1 : SIZE_MAX;
    common::Rng rng(83);
    const std::vector<Series> constants = {Series(m, 2.0), Series(m, -1.0)};
    const ExtractedShape extracted = ExtractShapeFlagged(
        constants, Series(m, 0.0), &rng, options);
    EXPECT_TRUE(extracted.degenerate) << "matrix_free=" << matrix_free;
    for (double v : extracted.centroid) EXPECT_EQ(v, 0.0);
  }

  // Mixed: constant members drop out of both solves, leaving the same
  // effective member set — results agree to epsilon, with a zero-norm
  // reference (no alignment, cold start) and a warm one.
  std::vector<Series> members = NoisySineCorpus(10, m, 89);
  members.insert(members.begin() + 3, Series(m, 5.0));
  members.push_back(Series(m, 0.0));
  for (const Series& reference :
       {Series(m, 0.0), tseries::ZNormalized(Sine(m, 2.0, 0.6))}) {
    ShapeExtractionOptions pooled;
    pooled.matrix_free_min_members = 1;
    const Series via_pool = ExtractWith(members, reference, 97, pooled);
    const Series via_gram =
        ExtractWith(members, reference, 97, DenseOptions());
    for (std::size_t t = 0; t < m; ++t) {
      EXPECT_NEAR(via_pool[t], via_gram[t], 1e-6) << "t=" << t;
    }
  }
}

TEST(MatrixFreeExtractionTest, InPlaceCenteringMatchesTwoBufferReference) {
  // Pins the in-place Gram centering (one m×m buffer) against a test-local
  // reimplementation of the historical two-buffer pipeline: accumulate S,
  // mirror, write M_ij = S_ij - rowmean_i - colmean_j + grand into a FRESH
  // matrix, then solve. Same reads, same arithmetic, different destination —
  // the centroids must agree bit for bit.
  const std::size_t m = 36;
  const std::vector<Series> members = NoisySineCorpus(9, m, 101);
  const Series reference = tseries::ZNormalized(Sine(m, 2.0, 0.7));

  // Production dense path.
  const Series production =
      ExtractWith(members, reference, 103, DenseOptions());

  // Historical pipeline, with the explicit second buffer.
  std::vector<double> mean;
  const linalg::Matrix centered =
      CenteredGramReference(members, reference, &mean);
  common::Rng rng(103);
  std::vector<double> seed(reference.begin(), reference.end());
  const Series centroid = OrientAndNormalize(
      linalg::DominantEigenvector(centered, &rng, /*max_iters=*/200,
                                  /*tol=*/1e-10, /*eigenvalue=*/nullptr,
                                  &seed),
      mean);

  ASSERT_EQ(production.size(), centroid.size());
  for (std::size_t t = 0; t < m; ++t) {
    EXPECT_EQ(production[t], centroid[t]) << "t=" << t;
  }
}

TEST(MatrixFreeExtractionTest, KShapeLabelParityAcrossGateSeedSweep) {
  // End-to-end acceptance: over a sweep of clustering seeds, k-Shape with
  // matrix-free extraction produces EXACTLY the labels (and iteration
  // counts) of the dense path — the epsilon-level centroid differences never
  // flip an assignment argmin on this corpus, so ARI between the two runs
  // is identically 1.
  const std::size_t m = 64;
  std::vector<Series> series;
  common::Rng corpus_rng(107);
  for (int i = 0; i < 36; ++i) {
    Series s = Sine(m, 1.0 + (i % 3), 0.1 * (i % 4));
    for (double& v : s) v += corpus_rng.Gaussian(0.0, 0.2);
    series.push_back(tseries::ZNormalized(s));
  }

  const KShape algorithm;
  KShapeOptions dense_options;
  dense_options.shape_options = DenseOptions();
  const KShape dense(dense_options);
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    common::Rng rng_on(seed);
    const cluster::ClusteringResult on = algorithm.Cluster(series, 3, &rng_on);

    common::Rng rng_off(seed);
    const cluster::ClusteringResult off = dense.Cluster(series, 3, &rng_off);

    EXPECT_EQ(on.assignments, off.assignments) << "seed=" << seed;
    EXPECT_EQ(on.iterations, off.iterations) << "seed=" << seed;
    EXPECT_EQ(on.empty_cluster_reseeds, off.empty_cluster_reseeds)
        << "seed=" << seed;
    // Phase telemetry (monotonic clock) is populated on both paths.
    EXPECT_GE(on.assignment_seconds, 0.0);
    EXPECT_GE(on.extraction_seconds, 0.0);
  }
}


// ---------------------------------------------------------------------------
// Alignment by a given shift (ShapeAccumulator::Add(member, shift)) — the
// path k-Shape refinement takes with the shift its assignment recorded.
// ---------------------------------------------------------------------------

// Feeds `members` to a fresh accumulator, each with its per-pair
// Sbd(reference, member) shift when `with_shift`, after Reserve(size) when
// `reserve`, and finishes with a fixed rng seed.
ExtractedShape AccumulateWith(const std::vector<Series>& members,
                              const Series& reference, bool with_shift,
                              bool reserve,
                              const ShapeExtractionOptions& options) {
  ShapeAccumulator accumulator(reference, options);
  if (reserve) accumulator.Reserve(members.size());
  for (const Series& member : members) {
    if (with_shift) {
      accumulator.Add(member, Sbd(reference, member).shift);
    } else {
      accumulator.Add(member);
    }
  }
  EXPECT_EQ(accumulator.members_added(), members.size());
  common::Rng rng(131);
  return accumulator.Finish(&rng, options);
}

TEST(ShiftedAddTest, GivenShiftMatchesPerPairAlignmentBitwise) {
  // The aligned row depends only on the integer shift, so feeding the
  // per-pair shift must reproduce Add(member) bit for bit — with or without
  // a reserved pool, on the dense and the matrix-free solve.
  const std::size_t m = 48;
  std::vector<Series> members;
  common::Rng corpus_rng(127);
  for (int i = 0; i < 20; ++i) {
    Series s = Sine(m, 2.0, 0.4 * (i % 7));
    for (double& v : s) v += corpus_rng.Gaussian(0.0, 0.15);
    members.push_back(tseries::ZNormalized(s));
  }
  members.insert(members.begin() + 5, Series(m, 0.0));  // Zero norm.
  const Series reference = tseries::ZNormalized(Sine(m, 2.0, 1.1));
  for (const bool matrix_free : {false, true}) {
    ShapeExtractionOptions options;
    options.matrix_free_min_members = matrix_free ? 1 : SIZE_MAX;
    const ExtractedShape per_pair =
        AccumulateWith(members, reference, false, false, options);
    for (const bool reserve : {false, true}) {
      const ExtractedShape shifted =
          AccumulateWith(members, reference, true, reserve, options);
      EXPECT_EQ(shifted.degenerate, per_pair.degenerate);
      EXPECT_EQ(shifted.centroid, per_pair.centroid)
          << "matrix_free=" << matrix_free << " reserve=" << reserve;
    }
  }
}

TEST(ShiftedAddTest, ZeroNormReferenceIgnoresTheShift) {
  // Alignment is off against the all-zero reference, so any shift — even
  // one outside (-m, m) — pools the member unshifted, as Add(member) does.
  const std::size_t m = 32;
  const std::vector<Series> members = NoisySineCorpus(12, m, 137);
  const Series zero(m, 0.0);
  for (const int shift : {0, 7, -(static_cast<int>(m) - 1),
                          std::numeric_limits<int>::min()}) {
    ShapeAccumulator shifted(zero);
    shifted.Reserve(members.size());
    ShapeAccumulator plain(zero);
    for (const Series& member : members) {
      shifted.Add(member, shift);
      plain.Add(member);
    }
    common::Rng rng_a(139);
    common::Rng rng_b(139);
    EXPECT_FALSE(shifted.aligns());
    EXPECT_EQ(shifted.Finish(&rng_a).centroid, plain.Finish(&rng_b).centroid)
        << "shift=" << shift;
  }
}

TEST(ShiftedAddTest, ForcedAlignmentShiftsAgainstAZeroReferenceAndStartsCold) {
  // The zero channel of a nonzero multichannel centroid: alignment is on by
  // the caller's word, so the shift applies, but the zero reference offers
  // no warm start. The result is a cold extraction of the shifted members.
  const std::size_t m = 32;
  const std::vector<Series> members = NoisySineCorpus(12, m, 151);
  const Series zero(m, 0.0);
  for (const bool matrix_free : {false, true}) {
    ShapeExtractionOptions options;
    options.matrix_free_min_members = matrix_free ? 1 : SIZE_MAX;
    ShapeAccumulator forced(zero, options, /*align=*/true);
    ShapeAccumulator preshifted(zero, options);
    ASSERT_TRUE(forced.aligns());
    for (const Series& member : members) {
      forced.Add(member, 5);
      preshifted.Add(tseries::ShiftWithZeroFill(member, 5));
    }
    common::Rng rng_a(157);
    common::Rng rng_b(157);
    const ExtractedShape a = forced.Finish(&rng_a, options);
    const ExtractedShape b = preshifted.Finish(&rng_b, options);
    EXPECT_FALSE(a.degenerate);
    EXPECT_EQ(a.centroid, b.centroid) << "matrix_free=" << matrix_free;
  }
}

TEST(ShiftedAddTest, ZeroNormMembersAreCountedThenDropped) {
  // A zero member stays zero under any shift: it is counted, contributes
  // nothing, and a set of only such members is the flagged zero centroid.
  const std::size_t m = 24;
  const Series reference = tseries::ZNormalized(Sine(m, 1.0, 0.3));
  ShapeAccumulator accumulator(reference);
  accumulator.Reserve(3);
  ASSERT_TRUE(accumulator.aligns());
  accumulator.Add(Series(m, 0.0), 0);
  accumulator.Add(Series(m, 0.0), -(static_cast<int>(m) - 1));
  accumulator.Add(Series(m, 0.0), 5);
  EXPECT_EQ(accumulator.members_added(), 3u);
  common::Rng rng(149);
  const ExtractedShape extracted = accumulator.Finish(&rng);
  EXPECT_TRUE(extracted.degenerate);
  EXPECT_EQ(extracted.centroid, Series(m, 0.0));
}

}  // namespace
}  // namespace kshape::core
