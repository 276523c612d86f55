// Exact vs bound-driven-pruned k-Shape assignment (KShapeOptions::
// use_pruning): the end-to-end Cluster() workload across corpus sizes and
// lengths, plus the per-iteration share of the n*k candidate pairs the
// bounds skipped. The corpus is k = 24 classes of noisy sines at spaced
// odd frequencies with a *bounded* phase jitter (<= 0.15 pi), so clusters
// are real, need SBD alignment, and take several refinement iterations —
// the regime the Hamerly-style bounds are built for.
//
// The jitter bound matters: with uniformly random phase (MakeShiftedSine)
// a class spans the degenerate sin/cos eigenpair, the first refinement —
// which runs unaligned because the initial reference is the zero series —
// stalls power iteration on a near-tied top eigenspace, and every cluster
// pays the O(m^3) SymmetricEigen fallback. That fixed cost is identical
// in the exact and pruned runs, so the bench would be measuring the
// eigensolver, not the assignment path it exists to measure.
//
// One BENCH JSON line per (n, m):
//
//   BENCH {"bench":"pruning","workload":"kshape_cluster","n":1000,"m":512,
//          "k":24,"backend":"avx2","exact_seconds":1.24,"pruned_seconds":0.74,
//          "speedup":1.69,"iterations":4,"skipped_pct_after_iter2":65.7,
//          "labels_match":true}
//
// Records also land in BENCH_pruning.json (a JSON array) for CI. Label
// equality at the default margin is asserted, not just reported: the bench
// aborts if the pruned run diverges from the exact run on any config. The
// acceptance bar: >= 1.5x end-to-end at n = 1000, m = 512 with >= 50% of
// candidate pairs skipped after iteration 2.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/kshape.h"
#include "harness/table.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace {

using kshape::tseries::SeriesBatch;
using kshape::tseries::SeriesStore;

constexpr int kClusters = 24;
constexpr double kNoiseSigma = 0.5;
constexpr double kPhaseJitter = 0.15 * M_PI;

bool g_smoke = false;
kshape::bench::BenchJson g_records;

void Record(std::size_t n, std::size_t m, double exact_seconds,
            double pruned_seconds, int iterations,
            double skipped_pct_after_iter2, bool labels_match) {
  const double speedup =
      pruned_seconds > 0.0 ? exact_seconds / pruned_seconds : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"pruning\",\"workload\":\"kshape_cluster\",\"n\":%zu,"
      "\"m\":%zu,\"k\":%d,\"backend\":\"%s\",\"exact_seconds\":%.6f,"
      "\"pruned_seconds\":%.6f,\"speedup\":%.3f,\"iterations\":%d,"
      "\"skipped_pct_after_iter2\":%.1f,\"labels_match\":%s}",
      n, m, kClusters, kshape::simd::ActiveBackendName(), exact_seconds,
      pruned_seconds, speedup, iterations, skipped_pct_after_iter2,
      labels_match ? "true" : "false");
  g_records.Add(buffer);
}

// Minimum of repetitions — the same estimator as the other benches; Cluster
// is deterministic for a fixed seed, so repetitions only shed scheduling
// noise. The big configs get fewer reps to keep the full run bounded.
double TimeSeconds(int reps, const std::function<void()>& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    kshape::common::Stopwatch timer;
    run();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Noisy sine at an odd class frequency (2c+1 cycles keeps neighbouring
// classes spectrally separated) with phase jitter bounded by kPhaseJitter —
// see the header comment for why the jitter must stay well below pi.
kshape::tseries::Series JitterSine(int klass, std::size_t m,
                                   kshape::common::Rng* rng) {
  const double freq = static_cast<double>(2 * klass + 1);
  const double phase = rng->Uniform() * kPhaseJitter;
  kshape::tseries::Series s(m);
  for (std::size_t t = 0; t < m; ++t) {
    const double x = 2.0 * M_PI * freq * static_cast<double>(t) /
                         static_cast<double>(m) +
                     phase;
    s[t] = std::sin(x) + kNoiseSigma * rng->Gaussian();
  }
  return s;
}

SeriesBatch MakeCorpus(SeriesStore* store, std::size_t n, std::size_t m,
                       uint64_t seed) {
  kshape::common::Rng rng(seed);
  store->Reserve(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    store->Append(kshape::tseries::ZNormalized(
        JitterSine(static_cast<int>(i % kClusters), m, &rng)));
  }
  return SeriesBatch(*store);
}

void BenchConfig(std::size_t n, std::size_t m) {
  using namespace kshape;
  SeriesStore store;
  const SeriesBatch batch = MakeCorpus(&store, n, m, n * 31 + m);

  core::KShapeOptions pruned_options;
  pruned_options.init = core::KShapeInit::kPlusPlusSeeding;
  core::KShapeOptions exact_options = pruned_options;
  exact_options.use_pruning = false;
  const core::KShape pruned_kshape(pruned_options);
  const core::KShape exact_kshape(exact_options);
  const uint64_t seed = 97;

  // Correctness first: the pruned run must land on the exact labels at the
  // default margin on every benched config.
  common::Rng rng_p(seed);
  const cluster::ClusteringResult pruned =
      pruned_kshape.Cluster(batch, kClusters, &rng_p);
  common::Rng rng_e(seed);
  const cluster::ClusteringResult exact =
      exact_kshape.Cluster(batch, kClusters, &rng_e);
  const bool labels_match = pruned.assignments == exact.assignments &&
                            pruned.iterations == exact.iterations;
  KSHAPE_CHECK_MSG(labels_match,
                   "pruned k-Shape diverged from the exact scan");

  // Per-iteration share of candidate pairs skipped by either layer.
  const double pairs =
      static_cast<double>(n) * static_cast<double>(kClusters);
  double skipped_after_iter2 = 0.0;
  int tail_iters = 0;
  std::printf("n=%zu m=%zu: per-iteration %% of n*k pairs skipped:", n, m);
  for (std::size_t it = 0; it < pruned.assignment_stats.size(); ++it) {
    const cluster::AssignmentIterationStats& s = pruned.assignment_stats[it];
    const double pct =
        100.0 *
        static_cast<double>(s.pruned_bounds + s.abandoned_partial) / pairs;
    std::printf(" %.0f", pct);
    if (it >= 2) {
      skipped_after_iter2 += pct;
      ++tail_iters;
    }
  }
  std::printf("\n");
  if (tail_iters > 0) skipped_after_iter2 /= tail_iters;

  const int reps = g_smoke ? 1 : (n >= 5000 ? 1 : 3);
  const double exact_seconds = TimeSeconds(reps, [&] {
    common::Rng rng(seed);
    exact_kshape.Cluster(batch, kClusters, &rng);
  });
  const double pruned_seconds = TimeSeconds(reps, [&] {
    common::Rng rng(seed);
    pruned_kshape.Cluster(batch, kClusters, &rng);
  });

  Record(n, m, exact_seconds, pruned_seconds, pruned.iterations,
         skipped_after_iter2, labels_match);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kshape;
  g_smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  std::printf(
      "assignment_pruning: dispatched backend = %s (avx2 available: %s)\n",
      simd::ActiveBackendName(), simd::Avx2Available() ? "yes" : "no");

  harness::PrintSection(std::cout,
                        "k-Shape end-to-end: exact vs bound-driven pruned "
                        "assignment");
  const std::vector<std::size_t> sizes =
      g_smoke ? std::vector<std::size_t>{200}
              : std::vector<std::size_t>{200, 1000, 5000};
  const std::vector<std::size_t> lengths = g_smoke
                                               ? std::vector<std::size_t>{128}
                                               : std::vector<std::size_t>{
                                                     128, 512};
  for (const std::size_t n : sizes) {
    for (const std::size_t m : lengths) {
      BenchConfig(n, m);
    }
  }

  g_records.Write("BENCH_pruning.json");
  return 0;
}
