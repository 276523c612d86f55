// Full-complex vs half-spectrum transform pipelines, and the batched-SoA
// forward pool. Three sections:
//
//   1. forward transforms — fft::Spectrum (full complex) vs fft::RfftForward
//      (packed half spectrum) vs fft::BatchSpectra (packed, one amortized
//      plan, contiguous SoA pool);
//   2. product + inverse — the per-pair hot path of the spectrum cache:
//      fft::CrossCorrelationFromSpectra vs fft::CrossCorrelationFromRfft;
//   3. end-to-end — SbdEngine::PairwiseFlat with the full-complex cache vs
//      the half-spectrum cache (the PR acceptance workload,
//      "sbd_pairwise_flat").
//
// One BENCH JSON line per (workload, length):
//
//   BENCH {"bench":"rfft","workload":"sbd_pairwise_flat","n":250,"m":512,
//          "backend":"avx2","full_seconds":0.80,"half_seconds":0.45,
//          "speedup":1.78}
//
// "full" is always the PR 5 full-complex path, "half" the packed path (for
// the batched-forward row, the batch pool). Records are also written to
// BENCH_rfft.json (a JSON array) in the working directory for CI. Before
// each timing pair the two paths are cross-checked to the documented epsilon
// equivalence — the benchmark binary enforces the contract too, not just the
// test suite. The acceptance bar: >= 1.5x end-to-end on sbd_pairwise_flat at
// m >= 512.

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
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "harness/table.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace {

using kshape::fft::Complex;
using kshape::tseries::SeriesBatch;
using kshape::tseries::SeriesStore;

constexpr int kRepetitions = 5;
constexpr std::size_t kLengths[] = {128, 512, 2048};

bool g_smoke = false;
kshape::bench::BenchJson g_records;
double g_sink = 0.0;

void Record(const char* workload, std::size_t n, std::size_t m,
            double full_seconds, double half_seconds) {
  const double speedup =
      half_seconds > 0.0 ? full_seconds / half_seconds : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"rfft\",\"workload\":\"%s\",\"n\":%zu,\"m\":%zu,"
      "\"backend\":\"%s\",\"full_seconds\":%.6f,\"half_seconds\":%.6f,"
      "\"speedup\":%.3f}",
      workload, n, m, kshape::simd::ActiveBackendName(), full_seconds,
      half_seconds, speedup);
  g_records.Add(buffer);
}

// Minimum of kRepetitions timings — same estimator as the simd_kernels and
// storage_layout benches.
double TimeSeconds(const std::function<void()>& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kRepetitions; ++rep) {
    kshape::common::Stopwatch timer;
    run();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Iterations per timing rep, budgeted by transform length like the kernel
// bench budgets by buffer length (transforms are O(m log m), so the per-rep
// work grows mildly with m; that is fine for a ratio benchmark).
std::size_t IterationsFor(std::size_t m) {
  const std::size_t budget = g_smoke ? (1u << 14) : (1u << 19);
  return std::max<std::size_t>(1, budget / m);
}

std::vector<double> RandomSeries(std::size_t m, kshape::common::Rng* rng) {
  std::vector<double> x(m);
  for (double& v : x) v = rng->Gaussian();
  return x;
}

SeriesBatch MakeCorpus(SeriesStore* store, std::size_t n, std::size_t m,
                       uint64_t seed) {
  kshape::common::Rng rng(seed);
  store->Reserve(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    store->Append(kshape::tseries::ZNormalized(
        kshape::data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
  }
  return SeriesBatch(*store);
}

// Section 1: one forward transform per iteration, full vs packed vs pooled.
void BenchForward(std::size_t m) {
  using namespace kshape;
  common::Rng rng(61);
  const std::size_t fft_len = fft::NextPowerOfTwo(2 * m - 1);
  const std::size_t iters = IterationsFor(m);
  // A small rotating corpus so the transforms do not degenerate into one
  // cache-hot input.
  constexpr std::size_t kCorpus = 16;
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < kCorpus; ++i) {
    series.push_back(RandomSeries(m, &rng));
  }

  // Epsilon cross-check: packed bins must match the full spectrum.
  {
    const std::vector<Complex> full = fft::Spectrum(series[0], fft_len);
    const fft::RfftSpectrum half = fft::RfftForward(series[0], fft_len);
    for (std::size_t k = 0; k < half.bins(); ++k) {
      KSHAPE_CHECK_MSG(
          std::fabs(half.re[k] - full[k].real()) <= 1e-8 &&
              std::fabs(half.im[k] - full[k].imag()) <= 1e-8,
          "half-spectrum forward disagrees with full spectrum");
    }
  }

  const double full_seconds = TimeSeconds([&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += fft::Spectrum(series[i % kCorpus], fft_len)[1].real();
    }
    g_sink += acc;
  });
  const double half_seconds = TimeSeconds([&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += fft::RfftForward(series[i % kCorpus], fft_len).re[1];
    }
    g_sink += acc;
  });
  // The batched pool amortizes the plan lookup and reuses one allocation
  // across all slots; timed per `iters` transforms like the rows above.
  fft::BatchSpectra batch(kCorpus, fft_len);
  const double batch_seconds = TimeSeconds([&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      batch.Transform(i % kCorpus, series[i % kCorpus]);
      acc += batch.view(i % kCorpus).re[1];
    }
    g_sink += acc;
  });

  Record("forward_full_vs_half", 0, m, full_seconds, half_seconds);
  Record("forward_full_vs_batch", 0, m, full_seconds, batch_seconds);
}

// Section 2: the per-pair hot path — multiply-conjugate + one inverse.
void BenchProductInverse(std::size_t m) {
  using namespace kshape;
  common::Rng rng(62);
  const std::size_t fft_len = fft::NextPowerOfTwo(2 * m - 1);
  const std::size_t iters = IterationsFor(m);
  const std::vector<double> x = RandomSeries(m, &rng);
  const std::vector<double> y = RandomSeries(m, &rng);

  const std::vector<Complex> fx = fft::Spectrum(x, fft_len);
  const std::vector<Complex> fy = fft::Spectrum(y, fft_len);
  const fft::RfftSpectrum hx = fft::RfftForward(x, fft_len);
  const fft::RfftSpectrum hy = fft::RfftForward(y, fft_len);
  const fft::RfftPlan& plan = fft::GetRfftPlan(fft_len);

  // Epsilon cross-check: the two cached paths agree lag by lag.
  std::vector<double> full_cc, half_cc;
  fft::CrossCorrelationFromSpectra(fx, fy, m, &full_cc);
  fft::CrossCorrelationFromRfft(plan, hx.view(), hy.view(), m, &half_cc);
  KSHAPE_CHECK(full_cc.size() == half_cc.size());
  for (std::size_t i = 0; i < full_cc.size(); ++i) {
    KSHAPE_CHECK_MSG(std::fabs(full_cc[i] - half_cc[i]) <= 1e-7,
                     "half-spectrum cross-correlation disagrees with full");
  }

  const double full_seconds = TimeSeconds([&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      fft::CrossCorrelationFromSpectra(fx, fy, m, &full_cc);
      acc += full_cc[m - 1];
    }
    g_sink += acc;
  });
  const double half_seconds = TimeSeconds([&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      fft::CrossCorrelationFromRfft(plan, hx.view(), hy.view(), m, &half_cc);
      acc += half_cc[m - 1];
    }
    g_sink += acc;
  });

  Record("product_inverse", 0, m, full_seconds, half_seconds);
}

// Section 3: the acceptance workload — SbdEngine::PairwiseFlat, full-complex
// cache vs half-spectrum cache, single thread (the same configuration as the
// simd_kernels end-to-end row this PR is measured against).
void BenchSbdPairwiseEndToEnd(std::size_t n, std::size_t m) {
  using namespace kshape;
  SeriesStore store;
  const SeriesBatch batch = MakeCorpus(&store, n, m, 63);
  common::SetThreadCount(1);

  const core::SbdEngine full_engine(batch, core::CrossCorrelationImpl::kFft,
                                    /*use_half_spectrum=*/false);
  const core::SbdEngine half_engine(batch, core::CrossCorrelationImpl::kFft,
                                    /*use_half_spectrum=*/true);
  KSHAPE_CHECK(!full_engine.half_spectrum());
  KSHAPE_CHECK(half_engine.half_spectrum());

  std::vector<double> full_flat, half_flat;
  full_engine.PairwiseFlat(&full_flat);
  half_engine.PairwiseFlat(&half_flat);
  KSHAPE_CHECK(full_flat.size() == half_flat.size());
  for (std::size_t i = 0; i < full_flat.size(); ++i) {
    KSHAPE_CHECK_MSG(std::fabs(full_flat[i] - half_flat[i]) <= 1e-8,
                     "half-spectrum pairwise SBD disagrees with full");
  }

  std::vector<double> scratch;
  const double full_seconds =
      TimeSeconds([&] { full_engine.PairwiseFlat(&scratch); });
  const double half_seconds =
      TimeSeconds([&] { half_engine.PairwiseFlat(&scratch); });
  Record("sbd_pairwise_flat", n, m, full_seconds, half_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kshape;
  g_smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  std::printf("rfft_batch: dispatched backend = %s (avx2 available: %s)\n",
              simd::ActiveBackendName(), simd::Avx2Available() ? "yes" : "no");

  harness::PrintSection(std::cout, "forward transforms (full vs half vs batch)");
  for (const std::size_t m : kLengths) BenchForward(m);

  harness::PrintSection(std::cout, "product + inverse (per-pair hot path)");
  for (const std::size_t m : kLengths) BenchProductInverse(m);

  harness::PrintSection(std::cout, "end-to-end SBD pairwise (acceptance)");
  const std::size_t scale = g_smoke ? 5 : 1;
  BenchSbdPairwiseEndToEnd(250 / scale, 512);

  g_records.Write("BENCH_rfft.json");
  // Defeat whole-program DCE of the timing loops.
  std::printf("checksum %.3g\n", g_sink);
  return 0;
}
