#include "checks.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {
constexpr std::size_t kMaxFailureMessages = 8;
}  // namespace

bool Ledger::Record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < kMaxFailureMessages) failures_.push_back(what);
  }
  return ok;
}

bool Ledger::RecordStatus(const kshape::common::Status& status,
                          const std::string& what) {
  return Record(status.ok(),
                status.ok() ? what : what + ": " + status.ToString());
}

std::string FitCounters::ToJson() const {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "{\"kshape.iterations\":%lld,\"kshape.reseeds\":%lld,"
                "\"assign.computed\":%lld,\"assign.pruned_bounds\":%lld,"
                "\"assign.abandoned\":%lld,\"store.shards_loaded\":%lld,"
                "\"store.evictions\":%lld}",
                iterations, reseeds, computed, pruned_bounds, abandoned,
                shards_loaded, evictions);
  return buffer;
}

bool CheckLabels(Ledger* ledger, const std::string& what,
                 const std::vector<int>& expected,
                 const std::vector<int>& got) {
  return ledger->Record(expected == got, what + ": labels differ");
}

bool CheckBitIdentical(Ledger* ledger, const std::string& what,
                       const std::vector<double>& expected,
                       const std::vector<double>& got) {
  const bool same =
      expected.size() == got.size() &&
      std::memcmp(expected.data(), got.data(),
                  expected.size() * sizeof(double)) == 0;
  return ledger->Record(same, what + ": not bit-identical");
}

bool CheckCentroids(Ledger* ledger, const std::string& what,
                    const kshape::tseries::SeriesBatch& expected,
                    const kshape::tseries::SeriesBatch& got) {
  bool same = expected.size() == got.size() &&
              expected.length() == got.length();
  for (std::size_t j = 0; same && j < expected.size(); ++j) {
    same = std::memcmp(expected[j].data(), got[j].data(),
                       expected.length() * sizeof(double)) == 0;
  }
  return ledger->Record(same, what + ": centroids not bit-identical");
}

bool CheckShardTraffic(Ledger* ledger, const std::string& what,
                       long long loaded, long long evictions,
                       long long iterations, std::size_t num_shards,
                       std::size_t max_resident_shards) {
  const long long shards = static_cast<long long>(num_shards);
  const long long budget = static_cast<long long>(max_resident_shards);
  const long long left_resident = loaded - evictions;
  const bool ok = shards > budget && loaded >= iterations * shards &&
                  left_resident >= 0 && left_resident <= budget;
  return ledger->Record(
      ok, what + ": " + std::to_string(loaded) + " shard loads and " +
              std::to_string(evictions) + " evictions over " +
              std::to_string(iterations) + " iterations of " +
              std::to_string(num_shards) + " shards (budget " +
              std::to_string(max_resident_shards) + ")");
}

bool CheckCounters(Ledger* ledger, const std::string& what,
                   const FitCounters& expected, const FitCounters& got) {
  return ledger->Record(expected == got, what + ": counters " + got.ToJson() +
                                             " != " + expected.ToJson());
}

}  // namespace perfbench
