// The BENCH record writer for benches that keep JSON records (today
// fig12_scalability's sharded mode).
//
// Each record is a single-line JSON object. Add() prints it to stdout as a
// `BENCH {json}` line the moment it is made and keeps it; Write() then
// serializes every kept record, in Add order, as a JSON array with one
// record per line (the BENCH_*.json file CI and later runs compare against).

#ifndef KSHAPE_BENCH_BENCH_JSON_H_
#define KSHAPE_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace kshape::bench {

class BenchJson {
 public:
  void Add(std::string record) {
    std::printf("BENCH %s\n", record.c_str());
    records_.push_back(std::move(record));
  }

  void Write(const std::string& path) const {
    std::ofstream json(path);
    json << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      json << "  " << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    json << "]\n";
    json.close();
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::vector<std::string> records_;
};

}  // namespace kshape::bench

#endif  // KSHAPE_BENCH_BENCH_JSON_H_
