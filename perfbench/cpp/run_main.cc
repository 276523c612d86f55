// Runs one workload over generated inputs and prints its report; the last
// stdout line is the result JSON.
//   perfbench_run --workload <name> --inputs <dir> --work <dir>
//                 --seconds <s> --trace <0|1> [--inject <kind>]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--inputs") options.input_dir = value;
    else if (flag == "--work") options.work_dir = value;
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--inject") options.inject = value;
  }
  const perfbench::Spec* spec = perfbench::FindSpec(workload);
  if (spec == nullptr || options.input_dir.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload <name> --inputs <dir> "
                 "--work <dir> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::RunWorkload(*spec, options);
}
