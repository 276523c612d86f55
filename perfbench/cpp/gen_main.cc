// Writes one workload's inputs for one seed:
//   perfbench_gen --workload <name> --seed <n> --out <dir>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

int main(int argc, char** argv) {
  std::string workload, out;
  unsigned long long seed = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (flag == "--out") out = argv[i + 1];
  }
  const perfbench::Spec* spec = perfbench::FindSpec(workload);
  if (spec == nullptr || out.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload <name> --seed <n> --out <dir>\n");
    return 2;
  }
  return perfbench::GenerateInputs(*spec, seed, out);
}
