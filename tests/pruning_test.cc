// Contract tests for bound-driven assignment pruning (the KSHAPE_PRUNE
// gate) and the spectral early-abandon NCC bound underneath it
// (SbdEngine::{NccUpperBound, DistanceWithAbandon, Nearest}).
//
// The load-bearing claims, each pinned here:
//  - the spectral bound is a true upper bound on the NCC peak (lower bound
//    on SBD) on power-of-two and Bluestein transform lengths alike;
//  - abandoning never changes an argmin: Nearest() returns the identical
//    index/distance the exhaustive scan finds;
//  - pruned k-Shape produces the same labels and centroids as the exact
//    scan at the default margin, on CBF (k = 3) and phase-jittered sines
//    (k = 24), across seeds, thread counts, spectrum layouts, and SIMD
//    backends;
//  - the spectral abandon layer alone (movement bounds off, gate on) is
//    bit-identical to the exact scan: labels, distances and shifts;
//  - the telemetry partition computed + pruned + abandoned == n*k holds for
//    every assignment iteration, and the exact path reports the full n*k as
//    computed;
//  - the KSHAPE_PRUNE gate behaves as documented;
//  - the Assigner's shift record holds the owner's NCC peak shift for every
//    row it computed an owner distance for, kNoShift for rows the bounds
//    pruned whole, and nothing outside a sampled pass's sample — without
//    changing labels or telemetry;
//  - pruned ++ seeding (the triangle test and the spectral abandon over the
//    seed-to-series pairs) picks the exhaustive scan's seeds: one-iteration
//    and full fits are bitwise equal with the gate on and off, and its own
//    telemetry partitions the n·k seeding pairs;
//  - the one scan body agrees with its engine-free entry point
//    (AssignBlockWith, which computes all n·k pairs), and "pruning off" is
//    "no bound planes": DistanceWithAbandon without planes is the exact
//    distance, and planes on one side only abort.

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "linalg/matrix.h"
#include "model/assigner.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"

namespace kshape {
namespace {

using tseries::Series;

std::vector<Series> MakeSeries(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(tseries::ZNormalized(
        data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
  }
  return series;
}

// k classes of noisy sines at spaced odd frequencies (2c+1 cycles) with a
// phase jitter bounded by 0.15*pi: real clusters that need SBD alignment and
// several refinement iterations, the large-k regime where the movement
// bounds prune most. Uniform phase would instead put every class on a
// degenerate sin/cos eigenpair and stall extraction, not assignment.
std::vector<Series> MakeJitterSines(std::size_t n, std::size_t m, int k,
                                    uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double freq = static_cast<double>(2 * (i % k) + 1);
    const double phase = rng.Uniform() * 0.15 * M_PI;
    Series s(m);
    for (std::size_t t = 0; t < m; ++t) {
      s[t] = std::sin(2.0 * M_PI * freq * static_cast<double>(t) /
                          static_cast<double>(m) +
                      phase) +
             0.5 * rng.Gaussian();
    }
    series.push_back(tseries::ZNormalized(s));
  }
  return series;
}

// Restores the process-wide pruning and spectrum-layout gates on exit.
class GateGuard {
 public:
  GateGuard()
      : prune_(core::PruningEnabled()), half_(fft::HalfSpectrumEnabled()) {}
  ~GateGuard() {
    core::SetPruningEnabledForTesting(prune_);
    fft::SetHalfSpectrumEnabledForTesting(half_);
  }

 private:
  bool prune_;
  bool half_;
};

cluster::ClusteringResult RunKShape(const core::KShapeOptions& options,
                                    const std::vector<Series>& series, int k,
                                    uint64_t seed) {
  const core::KShape kshape(options);
  common::Rng rng(seed);
  return kshape.Cluster(series, k, &rng);
}

void ExpectTelemetryPartition(const cluster::ClusteringResult& result,
                              std::size_t n, int k) {
  ASSERT_EQ(result.assignment_stats.size(),
            static_cast<std::size_t>(result.iterations));
  long long computed = 0, pruned = 0, abandoned = 0;
  for (const cluster::AssignmentIterationStats& s : result.assignment_stats) {
    EXPECT_EQ(s.computed + s.pruned_bounds + s.abandoned_partial,
              static_cast<long long>(n) * k);
    EXPECT_GE(s.computed, 0);
    EXPECT_GE(s.pruned_bounds, 0);
    EXPECT_GE(s.abandoned_partial, 0);
    computed += s.computed;
    pruned += s.pruned_bounds;
    abandoned += s.abandoned_partial;
  }
  EXPECT_EQ(result.distances_computed, computed);
  EXPECT_EQ(result.distances_pruned_bounds, pruned);
  EXPECT_EQ(result.distances_abandoned_partial, abandoned);
}

// ---------------------------------------------------------------------------
// Spectral bound validity (SbdEngine layer).
// ---------------------------------------------------------------------------

void ExpectSpectralBoundValid(std::size_t m, core::CrossCorrelationImpl impl,
                              bool half) {
  const std::vector<Series> series = MakeSeries(14, m, m + 31);
  const core::SbdEngine engine(series, impl, half,
                               /*build_bound_planes=*/true);
  ASSERT_TRUE(engine.has_bound_planes());
  common::Rng rng(m + 57);
  const Series query = tseries::ZNormalized(
      data::MakeCbf(1, m, &rng));
  const core::SbdEngine::Query q = engine.MakeQuery(query);
  ASSERT_FALSE(q.mag.empty());

  for (std::size_t i = 0; i < series.size(); ++i) {
    const double peak = engine.MaxNcc(q, i).value;
    const double bound = engine.NccUpperBound(q, i);
    // A theorem up to rounding; the engine's slack constant covers the ulps.
    EXPECT_GE(bound + core::SbdEngine::kDefaultBoundSlack, peak)
        << "m=" << m << " half=" << half << " i=" << i;

    const double exact = engine.Distance(q, i);
    // A cutoff below the true distance must abandon (or the partial sums
    // never certified it — also legal); when it abandons, the returned
    // value is a valid lower bound that clears the cutoff.
    for (double cutoff : {exact - 0.05, exact + 0.05,
                          std::numeric_limits<double>::infinity()}) {
      bool abandoned = false;
      const double v = engine.DistanceWithAbandon(q, i, cutoff, &abandoned);
      if (abandoned) {
        EXPECT_LE(v, exact + core::SbdEngine::kDefaultBoundSlack);
        EXPECT_GT(v, cutoff);
      } else {
        EXPECT_EQ(v, exact);  // Bitwise: the same cached-distance path.
      }
    }
    // +infinity can never abandon.
    bool abandoned = false;
    engine.DistanceWithAbandon(
        q, i, std::numeric_limits<double>::infinity(), &abandoned);
    EXPECT_FALSE(abandoned);
  }
}

TEST(PruningTest, SpectralBoundValidPowerOfTwoLengths) {
  for (std::size_t m : {16, 64, 128}) {
    ExpectSpectralBoundValid(m, core::CrossCorrelationImpl::kFft, true);
    ExpectSpectralBoundValid(m, core::CrossCorrelationImpl::kFft, false);
  }
}

TEST(PruningTest, SpectralBoundValidBluesteinLengths) {
  // kFftNoPow2 transforms at exactly 2m-1 (odd, Bluestein): the bound plane
  // has no Nyquist bin and the suffix checkpoints cover a ragged tail.
  for (std::size_t m : {24, 50, 80}) {
    ExpectSpectralBoundValid(m, core::CrossCorrelationImpl::kFftNoPow2, true);
    ExpectSpectralBoundValid(m, core::CrossCorrelationImpl::kFftNoPow2,
                             false);
  }
}

TEST(PruningTest, NearestMatchesExhaustiveScan) {
  for (std::size_t m : {48, 64}) {
    const std::vector<Series> series = MakeSeries(40, m, m + 3);
    const core::SbdEngine engine(series, core::CrossCorrelationImpl::kFft,
                                 fft::HalfSpectrumEnabled(),
                                 /*build_bound_planes=*/true);
    common::Rng rng(m + 5);
    for (int t = 0; t < 6; ++t) {
      const Series query = tseries::ZNormalized(
          data::MakeCbf(t % 3, m, &rng));
      const core::SbdEngine::Query q = engine.MakeQuery(query);
      const model::NearestResult r = model::Assigner::NearestSeries(engine, q);
      EXPECT_EQ(r.computed + r.abandoned,
                static_cast<long long>(engine.size()));

      std::vector<double> all;
      engine.DistanceToAll(q, &all);
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i] < best_d) {
          best_d = all[i];
          best = i;
        }
      }
      EXPECT_EQ(r.index, best);
      EXPECT_EQ(r.distance, best_d);  // Bitwise.
    }
  }
}

TEST(PruningTest, BoundPlanesOffByDefault) {
  const std::vector<Series> series = MakeSeries(6, 32, 7);
  const core::SbdEngine engine(series);
  EXPECT_FALSE(engine.has_bound_planes());
  const core::SbdEngine::Query q = engine.MakeQuery(series[0]);
  EXPECT_TRUE(q.mag.empty());
  // No planes means no pruning: DistanceWithAbandon is the exact distance
  // with its shift, bitwise, and never abandons — not even at a cutoff
  // below every distance.
  for (std::size_t i = 0; i < engine.size(); ++i) {
    int exact_shift = 0;
    const double exact = engine.Distance(q, i, &exact_shift);
    for (const double cutoff :
         {-1.0, 0.0, std::numeric_limits<double>::infinity()}) {
      bool abandoned = true;
      int shift = model::Assigner::kNoShift;
      const double v =
          engine.DistanceWithAbandon(q, i, cutoff, &abandoned, &shift);
      EXPECT_FALSE(abandoned) << "i=" << i << " cutoff=" << cutoff;
      EXPECT_EQ(v, exact) << "i=" << i;  // Bitwise.
      EXPECT_EQ(shift, exact_shift) << "i=" << i;
    }
  }
  // NearestSeries runs its one loop as the plain scan: exact result, zero
  // abandoned.
  const model::NearestResult r = model::Assigner::NearestSeries(engine, q);
  EXPECT_EQ(r.abandoned, 0);
  EXPECT_EQ(r.computed, static_cast<long long>(engine.size()));
  EXPECT_EQ(r.index, 0u);
}

TEST(PruningDeathTest, BoundPlanesOnOneSideOnlyAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Series> series = MakeSeries(6, 32, 7);
  const core::SbdEngine plain(series);
  const core::SbdEngine planed(series, core::CrossCorrelationImpl::kFft,
                               fft::HalfSpectrumEnabled(),
                               /*build_bound_planes=*/true);
  const core::SbdEngine::Query plain_q = plain.MakeQuery(series[0]);
  const core::SbdEngine::Query planed_q = planed.MakeQuery(series[0]);
  bool abandoned = false;
  EXPECT_DEATH(planed.DistanceWithAbandon(plain_q, 1, 0.5, &abandoned),
               "one of engine and query");
  EXPECT_DEATH(plain.DistanceWithAbandon(planed_q, 1, 0.5, &abandoned),
               "one of engine and query");
  EXPECT_DEATH(model::Assigner::NearestSeries(planed, plain_q),
               "one of engine and query");
}

// ---------------------------------------------------------------------------
// The Assigner's shift record (the lag refinement aligns members by).
// ---------------------------------------------------------------------------

// A value no scan writes, so untouched cells are told apart from kNoShift.
constexpr int kUnwritten = 1 << 20;

// The layout and pruning gates come from the process gates the Assigner
// reads at construction; `engine` must have been built under them.
model::AssignerOptions ShiftTestOptions(const core::SbdEngine& engine, int k,
                                        bool bounds) {
  model::AssignerOptions options;
  options.k = k;
  options.num_series = engine.size();
  options.m = engine.series_length();
  options.fft_len = engine.fft_length();
  options.use_movement_bounds = bounds;
  return options;
}

// The engine-free twin of an engine scan: an fft_len = 0 Assigner whose
// AssignBlockWith reads the same cached distances, against `queries`,
// through a callback. It never abandons and records no shift.
model::Assigner CallbackTwin(const core::SbdEngine& engine, int k) {
  model::AssignerOptions options;
  options.k = k;
  options.num_series = engine.size();
  options.m = engine.series_length();
  model::Assigner twin(options);
  EXPECT_FALSE(twin.pruning());
  return twin;
}

void AssignWithCallback(model::Assigner* twin, const core::SbdEngine& engine,
                        const std::vector<core::SbdEngine::Query>& queries,
                        const std::vector<Series>& centroids,
                        std::vector<int>* labels) {
  twin->BeginIteration(centroids);
  twin->AssignBlockWith(
      [&](int j, std::size_t i) { return engine.Distance(queries[j], i); }, 0,
      engine.size(), labels);
  const model::AssignmentIterationStats& stats = twin->iteration_stats();
  EXPECT_EQ(stats.computed,
            static_cast<long long>(engine.size()) *
                static_cast<long long>(centroids.size()));
  EXPECT_EQ(stats.pruned_bounds, 0);
  EXPECT_EQ(stats.abandoned_partial, 0);
}

void ExpectSameStats(const model::AssignmentIterationStats& a,
                     const model::AssignmentIterationStats& b) {
  EXPECT_EQ(a.computed, b.computed);
  EXPECT_EQ(a.pruned_bounds, b.pruned_bounds);
  EXPECT_EQ(a.abandoned_partial, b.abandoned_partial);
}

// Four full passes of a shift-recording Assigner beside a twin that records
// nothing and an engine-free callback twin, with every centroid nudged
// between passes so the movement bounds (when on) prune. Every row is
// written each pass: a row with a computed owner distance holds
// engine.MaxNcc(queries()[label], row).shift, a row the bounds pruned whole
// holds kNoShift and keeps its label. Labels and telemetry match the
// recording-free twin exactly; labels match the callback twin, which
// computes all n·k pairs.
void ExpectShiftRecordFaithful(bool pruning, bool bounds) {
  GateGuard gate_guard;
  core::SetPruningEnabledForTesting(pruning);
  const int k = 6;
  const std::vector<Series> series = MakeJitterSines(72, 64, k, 611);
  const std::size_t n = series.size();
  const core::SbdEngine engine(series, core::CrossCorrelationImpl::kFft,
                               fft::HalfSpectrumEnabled(), pruning);
  const model::AssignerOptions options = ShiftTestOptions(engine, k, bounds);
  model::Assigner recording(options);
  model::Assigner plain(options);
  ASSERT_EQ(recording.pruning(), pruning);
  ASSERT_EQ(recording.half_spectrum(), engine.half_spectrum());
  model::Assigner callback = CallbackTwin(engine, k);
  std::vector<int> labels(n), plain_labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 4);
  plain_labels = labels;
  std::vector<int> callback_labels = labels;
  std::vector<Series> centroids(series.begin(), series.begin() + k);
  long long pruned_whole = 0;
  for (int pass = 0; pass < 4; ++pass) {
    recording.SnapshotCentroids(centroids);
    plain.SnapshotCentroids(centroids);
    if (pass > 0) {
      for (int j = 0; j < k; ++j) {
        Series moved = centroids[j];
        linalg::Axpy(0.05, series[j + k * pass], &moved);
        centroids[j] = tseries::ZNormalized(moved);
      }
    }
    recording.BeginIteration(centroids);
    plain.BeginIteration(centroids);
    const std::vector<int> before = labels;
    std::vector<int> shifts(n, kUnwritten);
    recording.AssignBlock(engine, 0, &labels, /*distances=*/nullptr, &shifts);
    plain.AssignBlock(engine, 0, &plain_labels);
    ASSERT_EQ(labels, plain_labels) << "pass " << pass;
    ExpectSameStats(recording.iteration_stats(), plain.iteration_stats());
    AssignWithCallback(&callback, engine, recording.queries(), centroids,
                       &callback_labels);
    ASSERT_EQ(labels, callback_labels) << "pass " << pass;

    long long whole = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NE(shifts[i], kUnwritten) << "row " << i;
      if (shifts[i] == model::Assigner::kNoShift) {
        ++whole;
        EXPECT_EQ(labels[i], before[i]) << "row " << i;
        continue;
      }
      EXPECT_EQ(shifts[i],
                engine.MaxNcc(recording.queries()[labels[i]], i).shift)
          << "pass " << pass << " row " << i;
    }
    EXPECT_LE(whole * k, recording.iteration_stats().pruned_bounds);
    if (!bounds || pass == 0) {
      EXPECT_EQ(whole, 0) << "pass " << pass;
    }
    pruned_whole += whole;
    recording.FinishIteration(0);
    plain.FinishIteration(0);
  }
  if (bounds) {
    EXPECT_GT(pruned_whole, 0) << "the bounds never pruned a row";
  }
}

TEST(PruningTest, ShiftRecordMatchesOwnerPeakWithMovementBounds) {
  ExpectShiftRecordFaithful(/*pruning=*/true, /*bounds=*/true);
}

TEST(PruningTest, ShiftRecordMatchesOwnerPeakWithSpectralAbandonOnly) {
  ExpectShiftRecordFaithful(/*pruning=*/true, /*bounds=*/false);
}

TEST(PruningTest, ShiftRecordMatchesOwnerPeakWithPruneGateOff) {
  ExpectShiftRecordFaithful(/*pruning=*/false, /*bounds=*/false);
}

TEST(PruningTest, SampledPassRecordsShiftsOfTheSampleOnly) {
  const int k = 5;
  const std::vector<Series> series = MakeJitterSines(60, 48, k, 613);
  const std::size_t n = series.size();
  std::vector<std::size_t> sample;
  for (std::size_t i = 1; i < n; i += 3) sample.push_back(i);
  for (const bool pruning : {true, false}) {
    GateGuard gate_guard;
    core::SetPruningEnabledForTesting(pruning);
    const core::SbdEngine engine(series, core::CrossCorrelationImpl::kFft,
                                 fft::HalfSpectrumEnabled(), pruning);
    const model::AssignerOptions options =
        ShiftTestOptions(engine, k, /*bounds=*/false);
    model::Assigner recording(options);
    model::Assigner plain(options);
    ASSERT_EQ(recording.pruning(), pruning);
    const std::vector<Series> centroids(series.begin() + k,
                                        series.begin() + 2 * k);
    recording.BeginIteration(centroids);
    plain.BeginIteration(centroids);
    std::vector<int> labels(n, 0), plain_labels(n, 0);
    std::vector<int> shifts(n, kUnwritten);
    recording.AssignSample(engine, 0, sample, 0, sample.size(), &labels,
                           &shifts);
    plain.AssignSample(engine, 0, sample, 0, sample.size(), &plain_labels);
    EXPECT_EQ(labels, plain_labels);
    ExpectSameStats(recording.iteration_stats(), plain.iteration_stats());
    // The engine-free twin scans every row; on the sample it agrees.
    model::Assigner callback = CallbackTwin(engine, k);
    std::vector<int> callback_labels(n, 0);
    AssignWithCallback(&callback, engine, recording.queries(), centroids,
                       &callback_labels);
    for (const std::size_t i : sample) {
      EXPECT_EQ(labels[i], callback_labels[i])
          << "pruning=" << pruning << " row " << i;
    }
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (next < sample.size() && sample[next] == i) {
        ++next;
        EXPECT_EQ(shifts[i],
                  engine.MaxNcc(recording.queries()[labels[i]], i).shift)
            << "pruning=" << pruning << " row " << i;
      } else {
        EXPECT_EQ(shifts[i], kUnwritten)
            << "pruning=" << pruning << " row " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// k-Shape label equality and telemetry.
// ---------------------------------------------------------------------------

TEST(PruningTest, LabelsMatchExactAcrossSeedsThreadsLayoutsBackends) {
  const int saved_threads = common::ThreadCount();
  const simd::Backend saved_backend = simd::ActiveBackend();
  GateGuard gate_guard;

  // CBF at k = 3 with random init, and k = 24 jittered sines with ++
  // seeding. m = 128 keeps the highest class frequency (47 cycles) below
  // Nyquist, so no two classes alias onto one frequency. Three more CBF
  // draws widen the k = 3 coverage. Equal centroids below mean every
  // iteration's pruned labels matched the exact scan, not just the last.
  struct Corpus {
    const char* name;
    std::vector<Series> series;
    int k;
    core::KShapeInit init;
    std::vector<uint64_t> seeds;
  };
  const Corpus corpora[] = {
      {"cbf", MakeSeries(60, 64, 101), 3, core::KShapeInit::kRandomAssignment,
       {11, 12}},
      {"jitter-sines", MakeJitterSines(96, 128, 24, 102), 24,
       core::KShapeInit::kPlusPlusSeeding, {11, 12}},
      {"cbf-621", MakeSeries(60, 64, 621), 3,
       core::KShapeInit::kRandomAssignment, {21}},
      {"cbf-622", MakeSeries(60, 64, 622), 3,
       core::KShapeInit::kRandomAssignment, {22}},
      {"cbf-623", MakeSeries(60, 64, 623), 3,
       core::KShapeInit::kRandomAssignment, {23}},
  };

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);

  for (const Corpus& corpus : corpora) {
    long long skipped = 0;
    for (uint64_t seed : corpus.seeds) {
      for (bool half : {true, false}) {
        fft::SetHalfSpectrumEnabledForTesting(half);
        core::KShapeOptions options;
        options.init = corpus.init;

        for (simd::Backend backend : backends) {
          simd::SetBackendForTesting(backend);
          std::vector<int> reference_assignments;
          for (int threads : {1, 2, 8}) {
            common::SetThreadCount(threads);
            core::SetPruningEnabledForTesting(true);
            const cluster::ClusteringResult pruned =
                RunKShape(options, corpus.series, corpus.k, seed);
            core::SetPruningEnabledForTesting(false);
            const cluster::ClusteringResult exact =
                RunKShape(options, corpus.series, corpus.k, seed);
            EXPECT_EQ(pruned.assignments, exact.assignments)
                << corpus.name << " seed=" << seed << " half=" << half
                << " threads=" << threads;
            EXPECT_EQ(pruned.centroids, exact.centroids)
                << corpus.name << " seed=" << seed << " half=" << half
                << " threads=" << threads;
            EXPECT_EQ(pruned.iterations, exact.iterations);
            EXPECT_EQ(pruned.converged, exact.converged);
            ExpectTelemetryPartition(pruned, corpus.series.size(), corpus.k);
            skipped += pruned.distances_pruned_bounds +
                       pruned.distances_abandoned_partial;
            // The pruned path itself is thread-count-invariant.
            if (reference_assignments.empty()) {
              reference_assignments = pruned.assignments;
            } else {
              EXPECT_EQ(pruned.assignments, reference_assignments)
                  << corpus.name << " thread-count variance at threads="
                  << threads;
            }
          }
        }
      }
    }
    // Parity means little if nothing was pruned.
    EXPECT_GT(skipped, 0) << corpus.name;
  }
  common::SetThreadCount(saved_threads);
  simd::SetBackendForTesting(saved_backend);
}

TEST(PruningTest, PrunedPathBitIdenticalAcrossBackends) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 backend not available";
  const simd::Backend saved_backend = simd::ActiveBackend();
  const std::vector<Series> series = MakeSeries(50, 64, 202);
  core::KShapeOptions options;

  simd::SetBackendForTesting(simd::Backend::kScalar);
  const cluster::ClusteringResult scalar = RunKShape(options, series, 3, 7);
  simd::SetBackendForTesting(simd::Backend::kAvx2);
  const cluster::ClusteringResult avx2 = RunKShape(options, series, 3, 7);
  simd::SetBackendForTesting(saved_backend);

  EXPECT_EQ(scalar.assignments, avx2.assignments);
  EXPECT_EQ(scalar.iterations, avx2.iterations);
  // The abandon decisions come from the bit-identical partial-sums kernel,
  // so even the telemetry must agree counter for counter.
  ASSERT_EQ(scalar.assignment_stats.size(), avx2.assignment_stats.size());
  for (std::size_t it = 0; it < scalar.assignment_stats.size(); ++it) {
    EXPECT_EQ(scalar.assignment_stats[it].computed,
              avx2.assignment_stats[it].computed);
    EXPECT_EQ(scalar.assignment_stats[it].pruned_bounds,
              avx2.assignment_stats[it].pruned_bounds);
    EXPECT_EQ(scalar.assignment_stats[it].abandoned_partial,
              avx2.assignment_stats[it].abandoned_partial);
  }
}

// The spectral abandon layer is exact on its own: with the movement bounds
// off, a gate-on Assigner (bound planes on engine and queries) labels every
// row as the gate-off exhaustive scan does, with bitwise equal winning
// distances and shifts, over passes whose centroids move.
TEST(PruningTest, SpectralAbandonAloneBitIdenticalToExactScan) {
  GateGuard gate_guard;
  const int k = 6;
  const std::vector<Series> series = MakeJitterSines(72, 64, k, 303);
  const std::size_t n = series.size();
  core::SetPruningEnabledForTesting(true);
  const core::SbdEngine planes(series, core::CrossCorrelationImpl::kFft,
                               fft::HalfSpectrumEnabled(), true);
  model::Assigner abandoning(ShiftTestOptions(planes, k, /*bounds=*/false));
  core::SetPruningEnabledForTesting(false);
  const core::SbdEngine plain(series, core::CrossCorrelationImpl::kFft,
                              fft::HalfSpectrumEnabled(), false);
  model::Assigner exact(ShiftTestOptions(plain, k, /*bounds=*/false));
  ASSERT_TRUE(abandoning.pruning());
  ASSERT_FALSE(exact.pruning());

  std::vector<int> labels(n), exact_labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 4);
  exact_labels = labels;
  std::vector<Series> centroids(series.begin(), series.begin() + k);
  long long abandoned = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (int j = 0; pass > 0 && j < k; ++j) {
      Series moved = centroids[j];
      linalg::Axpy(0.05, series[j + k * pass], &moved);
      centroids[j] = tseries::ZNormalized(moved);
    }
    abandoning.BeginIteration(centroids);
    exact.BeginIteration(centroids);
    std::vector<double> distances(n), exact_distances(n);
    std::vector<int> shifts(n), exact_shifts(n);
    abandoning.AssignBlock(planes, 0, &labels, &distances, &shifts);
    exact.AssignBlock(plain, 0, &exact_labels, &exact_distances,
                      &exact_shifts);
    EXPECT_EQ(labels, exact_labels) << "pass " << pass;
    EXPECT_EQ(distances, exact_distances) << "pass " << pass;  // Bitwise.
    EXPECT_EQ(shifts, exact_shifts) << "pass " << pass;
    const model::AssignmentIterationStats& a = abandoning.iteration_stats();
    const model::AssignmentIterationStats& e = exact.iteration_stats();
    EXPECT_EQ(a.pruned_bounds, 0);
    EXPECT_EQ(a.computed + a.abandoned_partial,
              static_cast<long long>(n) * k);
    EXPECT_EQ(e.computed, static_cast<long long>(n) * k);
    abandoned += a.abandoned_partial;
    abandoning.FinishIteration(0);
    exact.FinishIteration(0);
  }
  // Parity means little if nothing abandoned.
  EXPECT_GT(abandoned, 0);
}

// ---------------------------------------------------------------------------
// Pruned ++ seeding.
// ---------------------------------------------------------------------------

// Shifted sines (k classes, uniformly random phase, light noise): clusters
// tight enough that a new seed is often twice as far from a row's nearest
// seed as the row itself, so the triangle test fires.
std::vector<Series> MakeShiftedSines(std::size_t n, std::size_t m, int k,
                                     uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(tseries::ZNormalized(
        data::MakeShiftedSine(static_cast<int>(i % k), m, &rng)));
  }
  return series;
}

std::vector<Series> MakeRandomWalks(std::size_t n, std::size_t m,
                                    uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Series> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(tseries::ZNormalized(data::MakeRandomWalk(m, &rng)));
  }
  return series;
}

void ExpectSeedingPartition(const cluster::ClusteringResult& result,
                            std::size_t n, int k, const std::string& what) {
  const cluster::AssignmentIterationStats& s = result.seeding_stats;
  EXPECT_EQ(s.computed + s.pruned_bounds + s.abandoned_partial,
            static_cast<long long>(n) * k)
      << what;
  EXPECT_GE(s.computed, static_cast<long long>(n)) << what;  // First seed.
  EXPECT_GE(s.pruned_bounds, 0) << what;
  EXPECT_GE(s.abandoned_partial, 0) << what;
}

// The seeding triangle test and abandon drop only pairs that cannot lower a
// row's nearest-seed distance, so the pruned scan picks the exhaustive
// scan's seeds and initial labels bit for bit: one-iteration fits (whose
// centroids are extracted from the seeding labels) and full fits agree with
// the gate off in assignments, centroids and iterations, at every thread
// count, spectrum layout and SIMD backend, on one and two channels.
TEST(PruningTest, PrunedPlusPlusSeedingBitIdenticalToExhaustive) {
  const int saved_threads = common::ThreadCount();
  const simd::Backend saved_backend = simd::ActiveBackend();
  GateGuard gate_guard;

  struct Corpus {
    const char* name;
    std::vector<Series> rows;
    std::size_t channels;
    int k;
    bool clustered;
  };
  std::vector<Corpus> corpora;
  corpora.push_back({"shifted-sines", MakeShiftedSines(96, 64, 6, 811), 1, 6,
                     true});
  corpora.push_back({"random-walks", MakeRandomWalks(80, 64, 812), 1, 6,
                     false});
  // Two channels of the same class per row: channel-summed distances.
  {
    const std::vector<Series> first = MakeShiftedSines(72, 48, 4, 813);
    const std::vector<Series> second = MakeShiftedSines(72, 48, 4, 814);
    std::vector<Series> rows;
    for (std::size_t i = 0; i < first.size(); ++i) {
      Series row = first[i];
      row.insert(row.end(), second[i].begin(), second[i].end());
      rows.push_back(row);
    }
    corpora.push_back({"two-channel-sines", rows, 2, 4, true});
  }

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);

  for (const Corpus& corpus : corpora) {
    const std::size_t n = corpus.rows.size();
    long long pruned_pairs = 0, abandoned_pairs = 0;
    for (int max_iterations : {1, 100}) {
      core::KShapeOptions options;
      options.init = core::KShapeInit::kPlusPlusSeeding;
      options.max_iterations = max_iterations;
      const auto run = [&](bool prune) {
        core::SetPruningEnabledForTesting(prune);
        common::Rng rng(31);
        return core::ClusterBatch(options, corpus.rows, corpus.channels,
                                  corpus.k, &rng, "k-Shape");
      };
      for (bool half : {true, false}) {
        fft::SetHalfSpectrumEnabledForTesting(half);
        for (simd::Backend backend : backends) {
          simd::SetBackendForTesting(backend);
          std::vector<int> reference_assignments;
          for (int threads : {1, 2, 8}) {
            common::SetThreadCount(threads);
            const std::string what =
                std::string(corpus.name) +
                " max_iterations=" + std::to_string(max_iterations) +
                " half=" + std::to_string(half) +
                " backend=" + std::to_string(static_cast<int>(backend)) +
                " threads=" + std::to_string(threads);
            const cluster::ClusteringResult pruned = run(true);
            const cluster::ClusteringResult exact = run(false);
            EXPECT_EQ(pruned.assignments, exact.assignments) << what;
            EXPECT_EQ(pruned.centroids, exact.centroids) << what;  // Bitwise.
            EXPECT_EQ(pruned.iterations, exact.iterations) << what;
            ExpectSeedingPartition(pruned, n, corpus.k, what);
            ExpectSeedingPartition(exact, n, corpus.k, what);
            EXPECT_EQ(exact.seeding_stats.pruned_bounds, 0) << what;
            EXPECT_EQ(exact.seeding_stats.abandoned_partial, 0) << what;
            pruned_pairs += pruned.seeding_stats.pruned_bounds;
            abandoned_pairs += pruned.seeding_stats.abandoned_partial;
            if (reference_assignments.empty()) {
              reference_assignments = pruned.assignments;
            } else {
              EXPECT_EQ(pruned.assignments, reference_assignments) << what;
            }
          }
        }
      }
    }
    // Parity means little if nothing was skipped; on clusters the triangle
    // test itself must fire.
    if (corpus.clustered) {
      EXPECT_GT(pruned_pairs, 0) << corpus.name;
      EXPECT_GT(abandoned_pairs, 0) << corpus.name;
    }
  }
  common::SetThreadCount(saved_threads);
  simd::SetBackendForTesting(saved_backend);
}

TEST(PruningTest, ExactPathReportsFullScanTelemetry) {
  const std::vector<Series> series = MakeSeries(30, 48, 404);
  GateGuard gate_guard;
  core::SetPruningEnabledForTesting(false);
  const cluster::ClusteringResult r =
      RunKShape(core::KShapeOptions{}, series, 3, 13);
  ASSERT_EQ(r.assignment_stats.size(),
            static_cast<std::size_t>(r.iterations));
  for (const cluster::AssignmentIterationStats& s : r.assignment_stats) {
    EXPECT_EQ(s.computed, static_cast<long long>(series.size()) * 3);
    EXPECT_EQ(s.pruned_bounds, 0);
    EXPECT_EQ(s.abandoned_partial, 0);
  }
  EXPECT_EQ(r.distances_computed,
            static_cast<long long>(r.iterations) * series.size() * 3);
  // Random initialization runs no seeding scan.
  EXPECT_EQ(r.seeding_stats.computed, 0);
  EXPECT_EQ(r.seeding_stats.pruned_bounds, 0);
  EXPECT_EQ(r.seeding_stats.abandoned_partial, 0);
}

TEST(PruningTest, PruneGateOffForcesExactScan) {
  const std::vector<Series> series = MakeSeries(30, 48, 505);
  core::KShapeOptions options;
  GateGuard gate_guard;
  core::SetPruningEnabledForTesting(false);
  const cluster::ClusteringResult gated = RunKShape(options, series, 3, 17);
  core::SetPruningEnabledForTesting(true);
  const cluster::ClusteringResult pruned = RunKShape(options, series, 3, 17);

  EXPECT_EQ(gated.distances_pruned_bounds, 0);
  EXPECT_EQ(gated.distances_abandoned_partial, 0);
  EXPECT_EQ(gated.distances_computed,
            static_cast<long long>(gated.iterations) * series.size() * 3);
  EXPECT_EQ(gated.assignments, pruned.assignments);
}

TEST(PruningTest, PruningActuallySkipsWorkOnceSettled) {
  // Not a hard performance bound — just a guard that the machinery engages:
  // on well-separated clusters some later iteration must skip a nonzero
  // share of the n*k candidate pairs.
  const std::vector<Series> series = MakeSeries(120, 128, 707);
  GateGuard gate_guard;
  core::SetPruningEnabledForTesting(true);
  const cluster::ClusteringResult r =
      RunKShape(core::KShapeOptions{}, series, 3, 29);
  ASSERT_GE(r.iterations, 2);
  long long skipped_after_first = 0;
  for (std::size_t it = 1; it < r.assignment_stats.size(); ++it) {
    skipped_after_first += r.assignment_stats[it].pruned_bounds +
                           r.assignment_stats[it].abandoned_partial;
  }
  EXPECT_GT(skipped_after_first, 0);
}

}  // namespace
}  // namespace kshape
