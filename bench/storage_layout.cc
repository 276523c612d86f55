// Contiguous-vs-nested storage layout microbenchmarks for the flat
// row-major SeriesStore behind Dataset: the same kernels run once over a
// nested std::vector<Series> (one heap allocation per row, the pre-refactor
// layout) and once over one contiguous buffer, and must produce bit-identical
// results. One BENCH JSON line per (workload, thread count):
//
//   BENCH {"bench":"storage_layout","workload":"ed_pairwise_matrix",
//          "n":300,"m":512,"threads":1,"nested_seconds":0.412,
//          "contiguous_seconds":0.371,"speedup":1.11}
//
// The records are also written to BENCH_storage_layout.json (a JSON array)
// in the working directory for CI consumption. The acceptance bar: the
// contiguous ED pairwise matrix is at least as fast as the nested baseline.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
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
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace {

using kshape::tseries::Series;
using kshape::tseries::SeriesBatch;
using kshape::tseries::SeriesStore;
using kshape::tseries::SeriesView;

constexpr int kThreadCounts[] = {1, 4};
constexpr int kRepetitions = 5;

// The same corpus in both layouts: a nested vector of per-row allocations
// and a flat SeriesStore filled row by row from it.
struct TwoLayouts {
  std::vector<Series> nested;
  SeriesStore flat;
};

TwoLayouts MakeCorpus(std::size_t n, std::size_t m, uint64_t seed) {
  kshape::common::Rng rng(seed);
  TwoLayouts corpus;
  corpus.nested.reserve(n);
  corpus.flat.Reserve(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    corpus.nested.push_back(kshape::tseries::ZNormalized(
        kshape::data::MakeCbf(static_cast<int>(i % 3), m, &rng)));
    corpus.flat.Append(corpus.nested.back());
  }
  return corpus;
}

kshape::bench::BenchJson g_records;

void Record(const char* workload, std::size_t n, std::size_t m, int threads,
            double nested_seconds, double contiguous_seconds) {
  const double speedup =
      contiguous_seconds > 0.0 ? nested_seconds / contiguous_seconds : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"storage_layout\",\"workload\":\"%s\",\"n\":%zu,"
      "\"m\":%zu,\"threads\":%d,\"nested_seconds\":%.6f,"
      "\"contiguous_seconds\":%.6f,\"speedup\":%.3f}",
      workload, n, m, threads, nested_seconds, contiguous_seconds, speedup);
  g_records.Add(buffer);
}

// Minimum of kRepetitions timings: layout effects are small relative to
// scheduler noise, and the minimum is the standard robust estimator for
// cache-bound microbenchmarks.
double TimeSeconds(const std::function<void()>& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kRepetitions; ++rep) {
    kshape::common::Stopwatch timer;
    run();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

void PrintRow(kshape::harness::TablePrinter* table, int threads,
              double nested_seconds, double contiguous_seconds) {
  table->AddRow({std::to_string(threads),
                 kshape::harness::FormatDouble(nested_seconds, 4),
                 kshape::harness::FormatDouble(contiguous_seconds, 4),
                 kshape::harness::FormatRatio(nested_seconds /
                                              contiguous_seconds)});
}

// Workload 1: z-normalize every row in place. The nested path touches n
// scattered allocations; the contiguous path streams one buffer.
void BenchZNorm(std::size_t n, std::size_t m) {
  using namespace kshape;
  harness::PrintSection(std::cout, "z-normalization sweep (n=" +
                                       std::to_string(n) +
                                       ", m=" + std::to_string(m) + ")");
  const TwoLayouts corpus = MakeCorpus(n, m, 1);

  // Bit-identity: both layouts must normalize to exactly the same values.
  {
    std::vector<Series> nested = corpus.nested;
    SeriesStore flat = corpus.flat;
    for (Series& row : nested) tseries::ZNormalizeInPlace(&row);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      tseries::ZNormalizeInPlace(flat.MutableView(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const SeriesView row = flat.view(i);
      KSHAPE_CHECK_MSG(
          std::equal(row.begin(), row.end(), nested[i].begin()),
          "contiguous z-norm diverged from nested");
    }
  }

  harness::TablePrinter table(
      {"threads", "nested (s)", "contiguous (s)", "speedup"});
  const double nested_seconds = TimeSeconds([&] {
    std::vector<Series> nested = corpus.nested;
    for (Series& row : nested) tseries::ZNormalizeInPlace(&row);
  });
  const double contiguous_seconds = TimeSeconds([&] {
    SeriesStore flat = corpus.flat;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      tseries::ZNormalizeInPlace(flat.MutableView(i));
    }
  });
  Record("znorm_sweep", n, m, 1, nested_seconds, contiguous_seconds);
  PrintRow(&table, 1, nested_seconds, contiguous_seconds);
  table.Print(std::cout);
}

// Workload 2: ED row scan — one query against every row, the inner loop of
// 1-NN classification and k-means assignment.
void BenchEdRowScan(std::size_t n, std::size_t m) {
  using namespace kshape;
  harness::PrintSection(std::cout, "ED row scan (n=" + std::to_string(n) +
                                       ", m=" + std::to_string(m) + ")");
  const TwoLayouts corpus = MakeCorpus(n, m, 2);
  const Series query = corpus.nested[n / 2];
  const SeriesBatch nested_batch(corpus.nested);
  const SeriesBatch flat_batch(corpus.flat);

  auto scan = [&](const SeriesBatch& batch, std::vector<double>* out) {
    out->resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (*out)[i] = distance::EuclideanDistanceValue(query, batch[i]);
    }
  };

  std::vector<double> nested_out;
  std::vector<double> flat_out;
  scan(nested_batch, &nested_out);
  scan(flat_batch, &flat_out);
  KSHAPE_CHECK_MSG(nested_out == flat_out,
                   "contiguous ED scan diverged from nested");

  harness::TablePrinter table(
      {"threads", "nested (s)", "contiguous (s)", "speedup"});
  std::vector<double> scratch;
  const double nested_seconds =
      TimeSeconds([&] { scan(nested_batch, &scratch); });
  const double contiguous_seconds =
      TimeSeconds([&] { scan(flat_batch, &scratch); });
  Record("ed_row_scan", n, m, 1, nested_seconds, contiguous_seconds);
  PrintRow(&table, 1, nested_seconds, contiguous_seconds);
  table.Print(std::cout);
}

// Workload 3: full ED pairwise distance matrix — the acceptance workload.
// Contiguous throughput must be at least as good as the nested baseline.
void BenchEdPairwiseMatrix(std::size_t n, std::size_t m) {
  using namespace kshape;
  harness::PrintSection(std::cout,
                        "ED pairwise matrix (n=" + std::to_string(n) +
                            ", m=" + std::to_string(m) + ")");
  const TwoLayouts corpus = MakeCorpus(n, m, 3);
  const SeriesBatch nested_batch(corpus.nested);
  const SeriesBatch flat_batch(corpus.flat);
  const distance::EuclideanDistance ed;

  common::SetThreadCount(1);
  const linalg::Matrix reference =
      cluster::PairwiseDistanceMatrix(nested_batch, ed);
  const linalg::Matrix contiguous =
      cluster::PairwiseDistanceMatrix(flat_batch, ed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      KSHAPE_CHECK_MSG(reference(i, j) == contiguous(i, j),
                       "contiguous pairwise matrix diverged from nested");
    }
  }

  harness::TablePrinter table(
      {"threads", "nested (s)", "contiguous (s)", "speedup"});
  for (int threads : kThreadCounts) {
    common::SetThreadCount(threads);
    const double nested_seconds = TimeSeconds(
        [&] { cluster::PairwiseDistanceMatrix(nested_batch, ed); });
    const double contiguous_seconds =
        TimeSeconds([&] { cluster::PairwiseDistanceMatrix(flat_batch, ed); });
    Record("ed_pairwise_matrix", n, m, threads, nested_seconds,
           contiguous_seconds);
    PrintRow(&table, threads, nested_seconds, contiguous_seconds);
  }
  table.Print(std::cout);
  common::SetThreadCount(1);
}

// Workload 4: SBD spectrum build — SbdEngine construction transforms every
// series once; the contiguous layout feeds the FFT from one buffer.
void BenchSbdSpectrumBuild(std::size_t n, std::size_t m) {
  using namespace kshape;
  harness::PrintSection(std::cout,
                        "SBD spectrum build (n=" + std::to_string(n) +
                            ", m=" + std::to_string(m) + ")");
  const TwoLayouts corpus = MakeCorpus(n, m, 4);
  const SeriesBatch nested_batch(corpus.nested);
  const SeriesBatch flat_batch(corpus.flat);

  // Bit-identity through the engine: identical spectra give identical
  // distances.
  {
    const core::SbdEngine nested_engine(nested_batch);
    const core::SbdEngine flat_engine(flat_batch);
    const std::vector<double> nested_row =
        nested_engine.DistanceToAll(corpus.nested[0]);
    const std::vector<double> flat_row =
        flat_engine.DistanceToAll(corpus.flat.view(0));
    KSHAPE_CHECK_MSG(nested_row == flat_row,
                     "contiguous SbdEngine diverged from nested");
  }

  harness::TablePrinter table(
      {"threads", "nested (s)", "contiguous (s)", "speedup"});
  const double nested_seconds =
      TimeSeconds([&] { core::SbdEngine engine(nested_batch); });
  const double contiguous_seconds =
      TimeSeconds([&] { core::SbdEngine engine(flat_batch); });
  Record("sbd_spectrum_build", n, m, 1, nested_seconds, contiguous_seconds);
  PrintRow(&table, 1, nested_seconds, contiguous_seconds);
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke shrinks every workload so CI can run the full binary (layout
  // cross-checks included) in a couple of seconds.
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t scale = smoke ? 4 : 1;

  BenchZNorm(2000 / scale, 512);
  BenchEdRowScan(4000 / scale, 512);
  BenchEdPairwiseMatrix(600 / scale, 256);
  BenchSbdSpectrumBuild(1000 / scale, 512);

  g_records.Write("BENCH_storage_layout.json");
  return 0;
}
