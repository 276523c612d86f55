// Scalar-vs-dispatched throughput for every kernel in the SIMD layer
// (src/simd/), plus two end-to-end workloads that run whole pipelines under
// each backend. One BENCH JSON line per (kernel, length) and per end-to-end
// workload:
//
//   BENCH {"bench":"simd_kernels","workload":"squared_ed","n":0,"m":512,
//          "backend":"avx2","scalar_seconds":0.021,"simd_seconds":0.006,
//          "speedup":3.5}
//
// The records are also written to BENCH_simd_kernels.json (a JSON array) in
// the working directory for CI consumption. The acceptance bar: >= 2x over
// the true scalar baseline on the squared-ED and z-norm kernels at m >= 512
// on AVX2 hardware. Before each timing pair the two backends are checked for
// bit-identical outputs — the determinism contract holds in the benchmark
// binary too, not just in the test suite.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cluster/kmedoids.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/sbd_engine.h"
#include "data/generators.h"
#include "distance/euclidean.h"
#include "harness/table.h"
#include "linalg/matrix.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace {

using kshape::simd::Backend;
using kshape::simd::KernelTable;
using kshape::tseries::Series;
using kshape::tseries::SeriesBatch;
using kshape::tseries::SeriesStore;

constexpr int kRepetitions = 5;
constexpr std::size_t kLengths[] = {128, 512, 2048};

bool g_smoke = false;
kshape::bench::BenchJson g_records;

void Record(const char* workload, std::size_t n, std::size_t m,
            double scalar_seconds, double simd_seconds) {
  const double speedup =
      simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"simd_kernels\",\"workload\":\"%s\",\"n\":%zu,"
      "\"m\":%zu,\"backend\":\"%s\",\"scalar_seconds\":%.6f,"
      "\"simd_seconds\":%.6f,\"speedup\":%.3f}",
      workload, n, m, kshape::simd::ActiveBackendName(), scalar_seconds,
      simd_seconds, speedup);
  g_records.Add(buffer);
}

// Minimum of kRepetitions timings — the robust estimator for cache-resident
// microkernels (same policy as the storage_layout bench).
double TimeSeconds(const std::function<void()>& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kRepetitions; ++rep) {
    kshape::common::Stopwatch timer;
    run();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

std::vector<double> RandomBuffer(std::size_t n, kshape::common::Rng* rng,
                                 double lo = -2.0, double hi = 2.0) {
  std::vector<double> x(n);
  for (double& v : x) v = rng->Uniform(lo, hi);
  return x;
}

// Iterations per timing rep, sized so every length does a comparable amount
// of arithmetic per measurement.
std::size_t IterationsFor(std::size_t m) {
  const std::size_t budget = g_smoke ? (1u << 18) : (1u << 23);
  return std::max<std::size_t>(1, budget / m);
}

// Keeps reduction results alive across the timing loop without a volatile
// in the hot path.
double g_sink = 0.0;

struct KernelTimings {
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
};

// Times `body(table)` once per backend: the scalar reference table first,
// then whatever table dispatch resolved to.
KernelTimings TimeBothBackends(
    const std::function<void(const KernelTable&)>& body) {
  const KernelTable& scalar = kshape::simd::Kernels(Backend::kScalar);
  const KernelTable& active = kshape::simd::Active();
  KernelTimings t;
  t.scalar_seconds = TimeSeconds([&] { body(scalar); });
  t.simd_seconds = TimeSeconds([&] { body(active); });
  return t;
}

void BenchReductionKernels(std::size_t m) {
  kshape::common::Rng rng(11);
  const std::vector<double> x = RandomBuffer(m, &rng);
  const std::vector<double> y = RandomBuffer(m, &rng);
  const std::size_t iters = IterationsFor(m);

  const KernelTable& scalar = kshape::simd::Kernels(Backend::kScalar);
  const KernelTable& active = kshape::simd::Active();
  KSHAPE_CHECK_MSG(
      scalar.squared_ed(x.data(), y.data(), m) ==
          active.squared_ed(x.data(), y.data(), m),
      "squared_ed backends disagree bitwise");
  KSHAPE_CHECK_MSG(scalar.sum(x.data(), m) == active.sum(x.data(), m),
                   "sum backends disagree bitwise");

  const auto run_sum = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) acc += kt.sum(x.data(), m);
    g_sink += acc;
  };
  const auto run_sumsq = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) acc += kt.sum_squares(x.data(), m);
    g_sink += acc;
  };
  const auto run_meanvar = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      const kshape::simd::MeanVar mv = kt.mean_var(x.data(), m);
      acc += mv.mean + mv.variance;
    }
    g_sink += acc;
  };
  const auto run_dot = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += kt.dot(x.data(), y.data(), m);
    }
    g_sink += acc;
  };
  const auto run_ed = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += kt.squared_ed(x.data(), y.data(), m);
    }
    g_sink += acc;
  };
  const auto run_ed_abandon = [&](const KernelTable& kt) {
    // Threshold above the full sum: the kernel pays for every checkpoint but
    // never abandons, the worst case for the cadence overhead.
    const double threshold = std::numeric_limits<double>::infinity();
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += kt.squared_ed_abandon(x.data(), y.data(), m, threshold);
    }
    g_sink += acc;
  };

  KernelTimings t = TimeBothBackends(run_sum);
  Record("sum", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_sumsq);
  Record("sum_squares", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_meanvar);
  Record("mean_var", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_dot);
  Record("dot", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_ed);
  Record("squared_ed", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_ed_abandon);
  Record("squared_ed_abandon", 0, m, t.scalar_seconds, t.simd_seconds);
}

void BenchEnvelopeAndPeakKernels(std::size_t m) {
  kshape::common::Rng rng(12);
  const std::vector<double> c = RandomBuffer(m, &rng);
  std::vector<double> lower = RandomBuffer(m, &rng, -1.0, 0.0);
  std::vector<double> upper(m);
  for (std::size_t i = 0; i < m; ++i) upper[i] = lower[i] + 0.8;
  const std::vector<double> a = RandomBuffer(2 * m, &rng);
  const std::vector<double> b = RandomBuffer(2 * m, &rng);
  std::vector<double> out(2 * m, 0.0);
  const std::size_t iters = IterationsFor(m);

  const auto run_lb = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += kt.lb_keogh_squared(c.data(), lower.data(), upper.data(), m);
    }
    g_sink += acc;
  };
  const auto run_cmul = [&](const KernelTable& kt) {
    for (std::size_t i = 0; i < iters; ++i) {
      kt.complex_mul_conj(a.data(), b.data(), out.data(), m);
    }
    g_sink += out[0];
  };
  // SoA variant over split planes: the first halves of a/b are the real
  // planes, the second halves imaginary — same element count as the
  // interleaved kernel above, so the two rows are directly comparable.
  const auto run_cmul_soa = [&](const KernelTable& kt) {
    for (std::size_t i = 0; i < iters; ++i) {
      kt.complex_mul_conj_soa(a.data(), a.data() + m, b.data(), b.data() + m,
                              out.data(), out.data() + m, m);
    }
    g_sink += out[0];
  };
  const auto run_peak = [&](const KernelTable& kt) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      const kshape::simd::Peak p = kt.peak_scan(c.data(), m);
      acc += p.value + static_cast<double>(p.index);
    }
    g_sink += acc;
  };

  KernelTimings t = TimeBothBackends(run_lb);
  Record("lb_keogh_squared", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_cmul);
  Record("complex_mul_conj", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_cmul_soa);
  Record("complex_mul_conj_soa", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_peak);
  Record("peak_scan", 0, m, t.scalar_seconds, t.simd_seconds);
}

void BenchElementwiseKernels(std::size_t m) {
  kshape::common::Rng rng(13);
  const std::vector<double> x = RandomBuffer(m, &rng);
  std::vector<double> y = RandomBuffer(m, &rng);
  const std::size_t iters = IterationsFor(m);

  const auto run_axpy = [&](const KernelTable& kt) {
    for (std::size_t i = 0; i < iters; ++i) {
      kt.axpy(1e-9, x.data(), y.data(), m);
    }
    g_sink += y[0];
  };
  const auto run_scale = [&](const KernelTable& kt) {
    // Alternating reciprocal factors keep the buffer magnitude stable over
    // millions of iterations.
    for (std::size_t i = 0; i < iters; ++i) {
      kt.scale(y.data(), (i & 1) ? 2.0 : 0.5, m);
    }
    g_sink += y[0];
  };
  const auto run_znorm = [&](const KernelTable& kt) {
    for (std::size_t i = 0; i < iters; ++i) {
      kt.apply_znorm(y.data(), m, 0.0, (i & 1) ? 2.0 : 0.5);
    }
    g_sink += y[0];
  };

  KernelTimings t = TimeBothBackends(run_axpy);
  Record("axpy", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_scale);
  Record("scale", 0, m, t.scalar_seconds, t.simd_seconds);
  t = TimeBothBackends(run_znorm);
  Record("apply_znorm", 0, m, t.scalar_seconds, t.simd_seconds);
}

void BenchDtwRowKernel(std::size_t m) {
  kshape::common::Rng rng(14);
  std::vector<double> prev = RandomBuffer(m + 1, &rng, 0.0, 4.0);
  prev[0] = std::numeric_limits<double>::infinity();
  const std::vector<double> y = RandomBuffer(m + 1, &rng);
  std::vector<double> cur(m, 0.0);
  const std::size_t iters = IterationsFor(m);

  const auto run = [&](const KernelTable& kt) {
    for (std::size_t i = 0; i < iters; ++i) {
      kt.dtw_row(prev.data(), y.data(), 0.25,
                 std::numeric_limits<double>::infinity(), cur.data(), m);
    }
    g_sink += cur[m - 1];
  };
  const KernelTimings t = TimeBothBackends(run);
  Record("dtw_row", 0, m, t.scalar_seconds, t.simd_seconds);
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

// End-to-end workload 1: the full ED pairwise distance matrix, single
// thread, under the scalar backend and then the dispatched backend.
void BenchEdPairwiseEndToEnd(std::size_t n, std::size_t m) {
  using namespace kshape;
  SeriesStore store;
  const SeriesBatch batch = MakeCorpus(&store, n, m, 21);
  const distance::EuclideanDistance ed;
  common::SetThreadCount(1);

  const Backend original = simd::ActiveBackend();
  simd::SetBackendForTesting(Backend::kScalar);
  const linalg::Matrix reference = cluster::PairwiseDistanceMatrix(batch, ed);
  const double scalar_seconds =
      TimeSeconds([&] { cluster::PairwiseDistanceMatrix(batch, ed); });
  simd::SetBackendForTesting(original);
  const linalg::Matrix dispatched = cluster::PairwiseDistanceMatrix(batch, ed);
  const double simd_seconds =
      TimeSeconds([&] { cluster::PairwiseDistanceMatrix(batch, ed); });

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      KSHAPE_CHECK_MSG(reference(i, j) == dispatched(i, j),
                       "ED pairwise matrix differs across backends");
    }
  }
  Record("ed_pairwise_matrix", n, m, scalar_seconds, simd_seconds);
}

// End-to-end workload 2: SbdEngine::PairwiseFlat — spectrum products, peak
// scans, and norms all route through the kernel layer.
void BenchSbdPairwiseEndToEnd(std::size_t n, std::size_t m) {
  using namespace kshape;
  SeriesStore store;
  const SeriesBatch batch = MakeCorpus(&store, n, m, 22);
  common::SetThreadCount(1);

  const Backend original = simd::ActiveBackend();
  simd::SetBackendForTesting(Backend::kScalar);
  const core::SbdEngine engine(batch);
  std::vector<double> reference;
  engine.PairwiseFlat(&reference);
  std::vector<double> scratch;
  const double scalar_seconds =
      TimeSeconds([&] { engine.PairwiseFlat(&scratch); });
  simd::SetBackendForTesting(original);
  std::vector<double> dispatched;
  engine.PairwiseFlat(&dispatched);
  const double simd_seconds =
      TimeSeconds([&] { engine.PairwiseFlat(&scratch); });

  KSHAPE_CHECK_MSG(reference == dispatched,
                   "SBD pairwise flat differs across backends");
  Record("sbd_pairwise_flat", n, m, scalar_seconds, simd_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kshape;
  g_smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  std::printf("simd_kernels: dispatched backend = %s (avx2 available: %s)\n",
              simd::ActiveBackendName(), simd::Avx2Available() ? "yes" : "no");

  harness::PrintSection(std::cout, "per-kernel throughput");
  for (const std::size_t m : kLengths) {
    BenchReductionKernels(m);
    BenchEnvelopeAndPeakKernels(m);
    BenchElementwiseKernels(m);
    BenchDtwRowKernel(m);
  }

  harness::PrintSection(std::cout, "end-to-end pipelines");
  const std::size_t scale = g_smoke ? 5 : 1;
  BenchEdPairwiseEndToEnd(400 / scale, 512);
  BenchSbdPairwiseEndToEnd(250 / scale, 512);

  g_records.Write("BENCH_simd_kernels.json");
  // Defeat whole-program DCE of the timing loops.
  std::printf("checksum %.3g\n", g_sink);
  return 0;
}
