// Fit-once / predict-many throughput of the FittedModel serving path
// (src/model/fitted_model.h): one k-Shape fit produces a model, the model
// round-trips through its .kmodel binary format, and fresh batches score
// against the frozen centroids via model::Predict (batched) and
// model::OnlineScorer (series-at-a-time ingestion).
//
// Correctness is asserted, not just reported: the labels (and distances) of
// the saved->loaded model must match the in-memory model bit for bit on
// every benched config — the serialization contract of the fit/predict
// split. The bench aborts on divergence.
//
// One BENCH JSON line per workload:
//
//   BENCH {"bench":"model_predict","workload":"predict_batch","n_fit":240,
//          "m":128,"k":8,"batch":10000,"backend":"avx2","fit_seconds":0.21,
//          "predict_seconds":0.84,"series_per_second":11904.8,
//          "roundtrip_match":true}
//
// Records also land in BENCH_model_predict.json (a JSON array) for CI.

#include <cmath>
#include <cstdio>
#include <filesystem>
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
#include "model/fitted_model.h"
#include "simd/dispatch.h"
#include "tseries/normalization.h"
#include "tseries/time_series.h"

namespace {

using kshape::tseries::SeriesBatch;
using kshape::tseries::SeriesStore;

constexpr int kClusters = 8;
constexpr double kNoiseSigma = 0.5;

bool g_smoke = false;
kshape::bench::BenchJson g_records;

void Record(const char* workload, std::size_t n_fit, std::size_t m,
            std::size_t batch, double fit_seconds, double predict_seconds,
            bool roundtrip_match) {
  const double rate = predict_seconds > 0.0
                          ? static_cast<double>(batch) / predict_seconds
                          : 0.0;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"model_predict\",\"workload\":\"%s\",\"n_fit\":%zu,"
      "\"m\":%zu,\"k\":%d,\"batch\":%zu,\"backend\":\"%s\","
      "\"fit_seconds\":%.6f,\"predict_seconds\":%.6f,"
      "\"series_per_second\":%.1f,\"roundtrip_match\":%s}",
      workload, n_fit, m, kClusters, batch,
      kshape::simd::ActiveBackendName(), fit_seconds, predict_seconds, rate,
      roundtrip_match ? "true" : "false");
  g_records.Add(buffer);
}

double TimeSeconds(int reps, const std::function<void()>& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    kshape::common::Stopwatch timer;
    run();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// Noisy sine at an odd class frequency (same family as the pruning bench:
// spectrally separated classes that need SBD alignment).
kshape::tseries::Series JitterSine(int klass, std::size_t m,
                                   kshape::common::Rng* rng) {
  const double freq = static_cast<double>(2 * klass + 1);
  const double phase = rng->Uniform() * 0.15 * M_PI;
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

void BenchConfig(std::size_t m, std::size_t batch_size) {
  using namespace kshape;
  const std::size_t n_fit = g_smoke ? 80 : 240;

  SeriesStore fit_store;
  const SeriesBatch fit_batch = MakeCorpus(&fit_store, n_fit, m, m * 7 + 1);
  SeriesStore score_store;
  const SeriesBatch score_batch =
      MakeCorpus(&score_store, batch_size, m, m * 13 + 5);

  core::KShapeOptions options;
  options.init = core::KShapeInit::kPlusPlusSeeding;
  const core::KShape kshape(options);
  const double fit_seconds = TimeSeconds(1, [&] {
    common::Rng rng(11);
    kshape.Cluster(fit_batch, kClusters, &rng);
  });
  common::Rng rng(11);
  const cluster::ClusteringResult fitted =
      kshape.Cluster(fit_batch, kClusters, &rng);
  KSHAPE_CHECK(!fitted.model.empty());

  // Serialization contract: saved -> loaded predicts bit-identically to the
  // in-memory model.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "bench_model_predict.kmodel";
  KSHAPE_CHECK(fitted.model.Save(path.string()).ok());
  common::StatusOr<model::FittedModel> loaded =
      model::FittedModel::Load(path.string());
  KSHAPE_CHECK_MSG(loaded.ok(), "model round-trip load failed");
  std::filesystem::remove(path);

  const model::PredictResult in_memory =
      model::Predict(fitted.model, score_batch);
  const model::PredictResult from_disk =
      model::Predict(loaded.value(), score_batch);
  const bool roundtrip_match = in_memory.labels == from_disk.labels &&
                               in_memory.distances == from_disk.distances;
  KSHAPE_CHECK_MSG(roundtrip_match,
                   "saved->loaded Predict diverged from in-memory Predict");

  const int reps = g_smoke ? 1 : 3;
  const double predict_seconds = TimeSeconds(reps, [&] {
    model::Predict(fitted.model, score_batch);
  });
  Record("predict_batch", n_fit, m, batch_size, fit_seconds, predict_seconds,
         roundtrip_match);

  // Series-at-a-time serving: the OnlineScorer ingestion path. Labels must
  // agree with the batched scan (same queries, same engine configuration).
  const double online_seconds = TimeSeconds(reps, [&] {
    model::OnlineScorer scorer(&fitted.model);
    for (std::size_t i = 0; i < score_batch.size(); ++i) {
      scorer.Ingest(score_batch[i]);
    }
  });
  model::OnlineScorer scorer(&fitted.model);
  bool online_match = true;
  for (std::size_t i = 0; i < score_batch.size(); ++i) {
    const model::OnlineScorer::Ingested got = scorer.Ingest(score_batch[i]);
    online_match = online_match && got.label == in_memory.labels[i];
  }
  KSHAPE_CHECK_MSG(online_match,
                   "OnlineScorer labels diverged from batched Predict");
  Record("online_ingest", n_fit, m, batch_size, fit_seconds, online_seconds,
         online_match);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kshape;
  g_smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  std::printf(
      "model_predict: dispatched backend = %s (avx2 available: %s)\n",
      simd::ActiveBackendName(), simd::Avx2Available() ? "yes" : "no");

  harness::PrintSection(std::cout,
                        "FittedModel serving: fit once, predict many");
  const std::vector<std::size_t> lengths =
      g_smoke ? std::vector<std::size_t>{128}
              : std::vector<std::size_t>{128, 512};
  const std::vector<std::size_t> batches =
      g_smoke ? std::vector<std::size_t>{500}
              : std::vector<std::size_t>{1000, 10000};
  for (const std::size_t m : lengths) {
    for (const std::size_t batch : batches) {
      BenchConfig(m, batch);
    }
  }

  g_records.Write("BENCH_model_predict.json");
  return 0;
}
