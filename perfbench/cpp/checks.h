// Correctness checks of the benchmark and the ledger that counts operations.
//
// Every timed library call and every check is one attempted operation. An
// operation fails when a Try* call returns a status that is not OK or when a
// check finds a wrong output; error_rate = failed / attempted, and any
// failure makes the run report "correct": false and exit non-zero.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "tseries/time_series.h"

namespace perfbench {

class Ledger {
 public:
  // Records one operation; returns `ok`.
  bool Record(bool ok, const std::string& what);
  bool RecordStatus(const kshape::common::Status& status,
                    const std::string& what);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  // The first few failure messages, for the report.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
};

// Deterministic counters of one fit repetition, summed over its draws. They
// must repeat exactly across repetitions, runs and thread counts.
struct FitCounters {
  long long iterations = 0;
  long long reseeds = 0;
  long long computed = 0;
  long long pruned_bounds = 0;
  long long abandoned = 0;
  long long shards_loaded = 0;
  long long evictions = 0;

  bool operator==(const FitCounters&) const = default;
  std::string ToJson() const;
};

// Label vectors equal element by element.
bool CheckLabels(Ledger* ledger, const std::string& what,
                 const std::vector<int>& expected,
                 const std::vector<int>& got);

// Two double arrays equal bit for bit (memcmp, so -0.0 != 0.0).
bool CheckBitIdentical(Ledger* ledger, const std::string& what,
                       const std::vector<double>& expected,
                       const std::vector<double>& got);

// Two sets of centroids (k rows of length m) equal bit for bit.
bool CheckCentroids(Ledger* ledger, const std::string& what,
                    const kshape::tseries::SeriesBatch& expected,
                    const kshape::tseries::SeriesBatch& got);

// The shard traffic of one exact out-of-core fit that started from a cold
// store with more shards than its residency budget: every iteration streams
// every shard from disk (loaded >= iterations * num_shards), and what is
// left resident at the end (loaded - evictions) fits within the budget.
bool CheckShardTraffic(Ledger* ledger, const std::string& what,
                       long long loaded, long long evictions,
                       long long iterations, std::size_t num_shards,
                       std::size_t max_resident_shards);

// A repetition's counters equal the first repetition's.
bool CheckCounters(Ledger* ledger, const std::string& what,
                   const FitCounters& expected, const FitCounters& got);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
