// Microbenchmarks of the library's computational kernels, backing the
// complexity claims of §3.1 and §3.3 of the paper:
//   - FFT cost vs transform size (O(m log m), power-of-two vs Bluestein);
//   - SBD vs its ablations (padded FFT vs exact-length FFT vs naive O(m^2)),
//     the runtime column of Table 2, plus the spectrum-cached pair distance;
//   - ED vs cDTW vs DTW distance kernels;
//   - shape extraction via power iteration vs full eigendecomposition.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "core/sbd.h"
#include "core/sbd_engine.h"
#include "core/shape_extraction.h"
#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "fft/fft.h"
#include "fft/rfft.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tseries/normalization.h"

namespace {

using kshape::tseries::Series;

Series RandomSeries(std::size_t m, kshape::common::Rng* rng) {
  Series x(m);
  for (double& v : x) v = rng->Gaussian();
  return kshape::tseries::ZNormalized(x);
}

void BM_FftPowerOfTwo(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(1);
  std::vector<kshape::fft::Complex> data(n);
  for (auto& v : data) v = {rng.Gaussian(), rng.Gaussian()};
  for (auto _ : state) {
    std::vector<kshape::fft::Complex> copy = data;
    kshape::fft::Forward(&copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPowerOfTwo)->RangeMultiplier(4)->Range(64, 4096)
    ->Complexity(benchmark::oNLogN);

void BM_FftBluestein(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(2);
  std::vector<kshape::fft::Complex> data(n);
  for (auto& v : data) v = {rng.Gaussian(), rng.Gaussian()};
  for (auto _ : state) {
    std::vector<kshape::fft::Complex> copy = data;
    kshape::fft::Forward(&copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_FftBluestein)->Arg(63)->Arg(255)->Arg(1023)->Arg(4095);

template <kshape::core::CrossCorrelationImpl impl>
void BM_Sbd(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(3);
  const Series x = RandomSeries(m, &rng);
  const Series y = RandomSeries(m, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kshape::core::Sbd(x, y, impl).distance);
  }
}
BENCHMARK(BM_Sbd<kshape::core::CrossCorrelationImpl::kFft>)
    ->Name("BM_Sbd_Fft")->Arg(128)->Arg(512)->Arg(1024);
BENCHMARK(BM_Sbd<kshape::core::CrossCorrelationImpl::kFftNoPow2>)
    ->Name("BM_Sbd_NoPow2")->Arg(128)->Arg(512)->Arg(1024);
BENCHMARK(BM_Sbd<kshape::core::CrossCorrelationImpl::kNaive>)
    ->Name("BM_Sbd_NoFFT")->Arg(128)->Arg(512)->Arg(1024);

// One cached pair: the distance every k-Shape assignment, seeding and
// Predict call pays once the spectra exist — the fused product-unpack, one
// half-size inverse transform and the peak scan, no forward transforms.
void BM_SbdCached(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(3);
  const std::vector<Series> pair = {RandomSeries(m, &rng),
                                    RandomSeries(m, &rng)};
  const kshape::core::SbdEngine engine(pair);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Distance(0, 1));
  }
}
BENCHMARK(BM_SbdCached)->Arg(128)->Arg(512)->Arg(1024);

void BM_Euclidean(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(4);
  const Series x = RandomSeries(m, &rng);
  const Series y = RandomSeries(m, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kshape::distance::EuclideanDistanceValue(x, y));
  }
}
BENCHMARK(BM_Euclidean)->Arg(128)->Arg(512)->Arg(1024);

void BM_DtwFull(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(5);
  const Series x = RandomSeries(m, &rng);
  const Series y = RandomSeries(m, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kshape::dtw::DtwDistance(x, y));
  }
}
BENCHMARK(BM_DtwFull)->Arg(128)->Arg(512);

void BM_CdtwFivePercent(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(6);
  const Series x = RandomSeries(m, &rng);
  const Series y = RandomSeries(m, &rng);
  const int window = kshape::dtw::WindowFromFraction(0.05, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kshape::dtw::ConstrainedDtwDistance(x, y, window));
  }
}
BENCHMARK(BM_CdtwFivePercent)->Arg(128)->Arg(512)->Arg(1024);

void BM_LbKeogh(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(7);
  const Series x = RandomSeries(m, &rng);
  const Series y = RandomSeries(m, &rng);
  Series lower, upper;
  kshape::dtw::LowerUpperEnvelope(x, kshape::dtw::WindowFromFraction(0.05, m),
                                  &lower, &upper);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kshape::dtw::LbKeogh(y, lower, upper));
  }
}
BENCHMARK(BM_LbKeogh)->Arg(128)->Arg(512)->Arg(1024);

// SIMD kernel layer: the same kernel driven through the scalar reference
// table and the runtime-dispatched table, alongside the distance benchmarks
// above for quick comparison runs. Bit-identity across backends is pinned by
// tests/simd_kernels_test.cc; perfbench's simd.* metrics track kernel speed.
template <kshape::simd::Backend kBackend>
void BM_SimdSquaredEd(benchmark::State& state) {
  if (kBackend == kshape::simd::Backend::kAvx2 &&
      !kshape::simd::Avx2Available()) {
    state.SkipWithError("AVX2 backend unavailable");
    return;
  }
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(9);
  const Series x = RandomSeries(m, &rng);
  const Series y = RandomSeries(m, &rng);
  const kshape::simd::KernelTable& kt = kshape::simd::Kernels(kBackend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.squared_ed(x.data(), y.data(), m));
  }
}
BENCHMARK(BM_SimdSquaredEd<kshape::simd::Backend::kScalar>)
    ->Name("BM_SimdSquaredEd_Scalar")->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_SimdSquaredEd<kshape::simd::Backend::kAvx2>)
    ->Name("BM_SimdSquaredEd_Avx2")->Arg(128)->Arg(512)->Arg(2048);

template <kshape::simd::Backend kBackend>
void BM_SimdMeanVar(benchmark::State& state) {
  if (kBackend == kshape::simd::Backend::kAvx2 &&
      !kshape::simd::Avx2Available()) {
    state.SkipWithError("AVX2 backend unavailable");
    return;
  }
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(10);
  const Series x = RandomSeries(m, &rng);
  const kshape::simd::KernelTable& kt = kshape::simd::Kernels(kBackend);
  for (auto _ : state) {
    const kshape::simd::MeanVar mv = kt.mean_var(x.data(), m);
    benchmark::DoNotOptimize(mv.mean + mv.variance);
  }
}
BENCHMARK(BM_SimdMeanVar<kshape::simd::Backend::kScalar>)
    ->Name("BM_SimdMeanVar_Scalar")->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_SimdMeanVar<kshape::simd::Backend::kAvx2>)
    ->Name("BM_SimdMeanVar_Avx2")->Arg(128)->Arg(512)->Arg(2048);

template <kshape::simd::Backend kBackend>
void BM_SimdPeakScan(benchmark::State& state) {
  if (kBackend == kshape::simd::Backend::kAvx2 &&
      !kshape::simd::Avx2Available()) {
    state.SkipWithError("AVX2 backend unavailable");
    return;
  }
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(11);
  const Series x = RandomSeries(m, &rng);
  const kshape::simd::KernelTable& kt = kshape::simd::Kernels(kBackend);
  for (auto _ : state) {
    const kshape::simd::Peak p = kt.peak_scan(x.data(), m);
    benchmark::DoNotOptimize(p.value + static_cast<double>(p.index));
  }
}
BENCHMARK(BM_SimdPeakScan<kshape::simd::Backend::kScalar>)
    ->Name("BM_SimdPeakScan_Scalar")->Arg(128)->Arg(512)->Arg(2048);
BENCHMARK(BM_SimdPeakScan<kshape::simd::Backend::kAvx2>)
    ->Name("BM_SimdPeakScan_Avx2")->Arg(128)->Arg(512)->Arg(2048);

// Runs one benchmark under `backend` and restores the process-wide table.
class ScopedBackend {
 public:
  explicit ScopedBackend(kshape::simd::Backend backend)
      : saved_(kshape::simd::ActiveBackend()) {
    kshape::simd::SetBackendForTesting(backend);
  }
  ~ScopedBackend() { kshape::simd::SetBackendForTesting(saved_); }

 private:
  kshape::simd::Backend saved_;
};

// One cached C = 1 pair under each backend: the fused product-unpack, the
// half-size inverse and the NCC peak — what every assignment, seeding and
// Predict distance pays once the spectra exist.
template <kshape::simd::Backend kBackend>
void BM_SimdPairPeak(benchmark::State& state) {
  if (kBackend == kshape::simd::Backend::kAvx2 &&
      !kshape::simd::Avx2Available()) {
    state.SkipWithError("AVX2 backend unavailable");
    return;
  }
  const ScopedBackend backend(kBackend);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(12);
  const std::vector<Series> pair = {RandomSeries(m, &rng),
                                    RandomSeries(m, &rng)};
  const kshape::core::SbdEngine engine(pair);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Distance(0, 1));
  }
}
BENCHMARK(BM_SimdPairPeak<kshape::simd::Backend::kScalar>)
    ->Name("BM_SimdPairPeak_Scalar")->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_SimdPairPeak<kshape::simd::Backend::kAvx2>)
    ->Name("BM_SimdPairPeak_Avx2")->Arg(128)->Arg(256)->Arg(512);

// One packed real forward of a length-m series at the SBD padding n =
// NextPowerOfTwo(2m - 1): what every Predict, ingest and centroid pays.
template <kshape::simd::Backend kBackend>
void BM_RfftForward(benchmark::State& state) {
  if (kBackend == kshape::simd::Backend::kAvx2 &&
      !kshape::simd::Avx2Available()) {
    state.SkipWithError("AVX2 backend unavailable");
    return;
  }
  const ScopedBackend backend(kBackend);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(13);
  const Series x = RandomSeries(m, &rng);
  const kshape::fft::RfftPlan& plan =
      kshape::fft::GetRfftPlan(kshape::fft::NextPowerOfTwo(2 * m - 1));
  std::vector<double> re(plan.bins()), im(plan.bins());
  for (auto _ : state) {
    plan.Forward(x, re.data(), im.data());
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RfftForward<kshape::simd::Backend::kScalar>)
    ->Name("BM_RfftForward_Scalar")->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_RfftForward<kshape::simd::Backend::kAvx2>)
    ->Name("BM_RfftForward_Avx2")->Arg(128)->Arg(256)->Arg(512);

template <bool kUsePowerIteration>
void BM_ShapeExtraction(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  kshape::common::Rng rng(8);
  std::vector<Series> members;
  for (int i = 0; i < 20; ++i) members.push_back(RandomSeries(m, &rng));
  const Series reference = RandomSeries(m, &rng);
  kshape::core::ShapeExtractionOptions options;
  options.use_power_iteration = kUsePowerIteration;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kshape::core::ExtractShape(members, reference, &rng, options));
  }
}
BENCHMARK(BM_ShapeExtraction<true>)
    ->Name("BM_ShapeExtraction_PowerIteration")->Arg(128)->Arg(256);
BENCHMARK(BM_ShapeExtraction<false>)
    ->Name("BM_ShapeExtraction_FullEigen")->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
