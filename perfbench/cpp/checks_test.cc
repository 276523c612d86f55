// Tests of the benchmark's correctness checks: each check is fed a known-bad
// output and must fail, count the failure and raise the error rate; each is
// also fed the good output and must pass. Exits non-zero on the first broken
// expectation. Run by perfbench/test_checks.py.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/minibatch_kshape.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kshape.h"
#include "data/generators.h"
#include "model/fitted_model.h"
#include "store/sharded_store.h"
#include "tseries/normalization.h"
#include "workload.h"

namespace {

int g_failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL %s\n", what);
    ++g_failures;
  } else {
    std::printf("ok   %s\n", what);
  }
}

// One known-bad case: the check returns false and the ledger counts exactly
// one more failed operation, so the error rate rises above 0.
void ExpectCaught(perfbench::Ledger* ledger,
                  const std::function<bool()>& check, const char* what) {
  const long long failed_before = ledger->failed();
  const bool passed = check();
  Expect(!passed && ledger->failed() == failed_before + 1 &&
             ledger->error_rate() > 0.0,
         what);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kshape;
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_checks_test <scratch dir>\n");
    return 2;
  }
  const std::filesystem::path dir = argv[1];
  std::filesystem::create_directories(dir);
  common::SetThreadCount(1);

  // A small fit and a fresh batch to score.
  common::Rng rng(7);
  tseries::SeriesStore fit_store, test_store;
  std::vector<int> truth;
  for (int i = 0; i < 60; ++i) {
    fit_store.Append(tseries::ZNormalized(data::MakeCbf(i % 3, 64, &rng)));
  }
  for (int i = 0; i < 30; ++i) {
    test_store.Append(tseries::ZNormalized(data::MakeCbf(i % 3, 64, &rng)));
  }
  core::KShapeOptions options;
  options.init = core::KShapeInit::kPlusPlusSeeding;
  common::Rng fit_rng(1);
  const cluster::ClusteringResult fit =
      core::KShape(options).Cluster(fit_store, 3, &fit_rng);
  const model::PredictResult reference = model::Predict(fit.model, test_store);

  {
    perfbench::Ledger ledger;
    Expect(perfbench::CheckLabels(&ledger, "good labels", reference.labels,
                                  reference.labels) &&
               ledger.failed() == 0 && ledger.error_rate() == 0.0,
           "identical labels pass");
    std::vector<int> perturbed = reference.labels;
    perturbed[3] = (perturbed[3] + 1) % 3;
    ExpectCaught(&ledger, [&] {
      return perfbench::CheckLabels(&ledger, "perturbed", reference.labels,
                                    perturbed);
    }, "a perturbed label fails");
  }
  {
    perfbench::Ledger ledger;
    Expect(perfbench::CheckCentroids(&ledger, "same", fit.model.centroids(),
                                     fit.model.centroids()),
           "identical centroids pass");
    std::vector<tseries::Series> flipped(fit.centroids);
    flipped[1][5] = std::nextafter(flipped[1][5], 1e9);
    ExpectCaught(&ledger, [&] {
      return perfbench::CheckCentroids(&ledger, "flipped", fit.centroids,
                                       flipped);
    }, "a centroid one ulp off fails");
    std::vector<double> distances = reference.distances;
    distances[0] = std::nextafter(distances[0], 3.0);
    ExpectCaught(&ledger, [&] {
      return perfbench::CheckBitIdentical(&ledger, "distances",
                                          reference.distances, distances);
    }, "distances one ulp off fail");
  }
  {
    // A corrupted .kmodel passed through TryPredict: the perturbed centroid
    // still loads, and only the bit-identity checks can catch it.
    perfbench::Ledger ledger;
    const std::string path = (dir / "corrupt.kmodel").string();
    Expect(fit.model.Save(path).ok(), "model saves");
    Expect(perfbench::CorruptModelCentroid(path), "model file corrupts");
    auto loaded = model::FittedModel::Load(path);
    Expect(loaded.ok(), "a perturbed but finite model still loads");
    if (loaded.ok()) {
      ExpectCaught(&ledger, [&] {
        return perfbench::CheckCentroids(&ledger, "loaded",
                                         fit.model.centroids(),
                                         loaded.value().centroids());
      }, "a corrupted .kmodel fails the centroid check");
      auto predicted = model::TryPredict(loaded.value(), test_store);
      Expect(ledger.RecordStatus(predicted.status(), "TryPredict"),
             "TryPredict runs on the corrupted model");
      if (predicted.ok()) {
        ExpectCaught(&ledger, [&] {
          return perfbench::CheckBitIdentical(&ledger, "distances",
                                              reference.distances,
                                              predicted.value().distances);
        }, "TryPredict through a corrupted .kmodel fails the distance check");
      }
    }
    // A truncated file is rejected by Load, which counts as a failed op.
    std::filesystem::resize_file(path, 100);
    ExpectCaught(&ledger, [&] {
      return ledger.RecordStatus(model::FittedModel::Load(path).status(),
                                 "load truncated model");
    }, "a truncated .kmodel fails to load");
  }
  {
    perfbench::Ledger ledger;
    perfbench::FitCounters a;
    a.iterations = 5;
    a.computed = 100;
    perfbench::FitCounters b = a;
    Expect(perfbench::CheckCounters(&ledger, "same", a, b),
           "repeated counters pass");
    b.computed = 101;
    ExpectCaught(&ledger, [&] {
      return perfbench::CheckCounters(&ledger, "moved", a, b);
    }, "a counter that does not repeat fails");
  }
  {
    // The shard traffic of a real exact out-of-core fit passes; counters of
    // a fit that skipped shard reads, or overran its budget, do not.
    perfbench::Ledger ledger;
    const std::string store_dir = (dir / "shards").string();
    std::filesystem::remove_all(store_dir);
    auto created = store::ShardedSeriesStore::Create(store_dir, {16, 2});
    Expect(created.ok(), "store created");
    for (std::size_t i = 0; i < fit_store.size(); ++i) {
      created.value().Append(fit_store.view(i));
    }
    Expect(created.value().Seal().ok(), "store sealed");
    auto opened = store::ShardedSeriesStore::Open(store_dir, 2);
    Expect(opened.ok(), "store opened");
    store::ShardedSeriesStore s = std::move(opened).value();
    common::Rng sharded_rng(1);
    auto sharded =
        cluster::MiniBatchKShape(options).TryCluster(&s, 3, &sharded_rng);
    Expect(sharded.ok(), "exact out-of-core fit runs");
    if (sharded.ok()) {
      const cluster::ClusteringResult& r = sharded.value();
      auto check = [&](long long loaded, long long evictions) {
        return perfbench::CheckShardTraffic(&ledger, "traffic", loaded,
                                            evictions, r.iterations,
                                            s.num_shards(), 2);
      };
      Expect(check(r.shards_loaded, r.shard_evictions) &&
                 ledger.failed() == 0,
             "the shard traffic of a real fit passes");
      // One shard load short of streaming every shard in every iteration,
      // with the residency still within budget.
      const long long short_loads =
          r.iterations * static_cast<long long>(s.num_shards()) - 1;
      ExpectCaught(&ledger, [&] {
        return check(short_loads, short_loads - 2);
      }, "an iteration served without reading every shard fails");
      ExpectCaught(&ledger, [&] {
        return check(r.shards_loaded, r.shard_evictions - 3);
      }, "more shards left resident than the budget fails");
    }
  }

  std::filesystem::remove_all(dir);
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
