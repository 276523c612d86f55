// The benchmark's workloads: what each one generates, how it is set up, and
// the measured loop that produces its end-to-end and per-layer metrics.
// perfbench/README.md explains why each workload exists.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

enum class Generator { kCbf, kRandomWalk, kShiftedSine };

struct Spec {
  const char* name;
  Generator generator;
  std::size_t m;            // series length
  int k;                    // clusters
  std::size_t n;            // series per fit draw
  int draws;                // independent fit corpora; one repetition fits all
  std::size_t test_n;       // fresh series scored by Predict and OnlineScorer
  int threads;              // common::SetThreadCount for the whole run
  bool sharded;             // fit through MiniBatchKShape over shard files
  bool labelled;            // generator labels carry meaning (ARI is defined)
  bool fixed_train;         // the fit draws do not depend on the seed
};

// The spec named `name`, or nullptr.
const Spec* FindSpec(const std::string& name);

// Writes the workload's inputs for `seed` into `dir`, in the UCR text layout
// (label, then values): train_<d>.txt (the fit draws) and test.txt (the
// fresh stream), plus model_train.txt and model.kmodel, the served model and
// the draw it was fitted on. The served model does not depend on the seed.
// Returns 0 on success.
int GenerateInputs(const Spec& spec, std::uint64_t seed,
                   const std::string& dir);

struct RunOptions {
  std::string input_dir;
  std::string work_dir;  // scratch for shard files and the trace
  double seconds = 10.0;
  bool trace = false;
  // Known-bad output fed to one check ("", "label", "centroid", "kmodel").
  std::string inject;
};

// Runs the workload and prints its report; the last stdout line is the
// result JSON. Returns the process exit code.
int RunWorkload(const Spec& spec, const RunOptions& options);

// Perturbs one centroid value of a saved .kmodel in place (it stays finite,
// so the file still loads). Returns false if the file cannot be rewritten.
bool CorruptModelCentroid(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
