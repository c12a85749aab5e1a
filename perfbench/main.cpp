// Repository benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the closed-loop end-to-end measurement and prints the
// end-to-end metrics; --trace 1 runs the per-layer ledger instead. The
// last line of stdout is the JSON result; the exit code is non-zero when
// an output check failed or an operation failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper-convex|wide-maxmax|mixed-route> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string seed_text;
  std::string seconds_text;
  std::string trace_text = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed_text = value;
    } else if (flag == "--seconds") {
      seconds_text = value;
    } else if (flag == "--trace") {
      trace_text = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || seed_text.empty() || seconds_text.empty()) {
    return usage(argv[0]);
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return usage(argv[0]);
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (*end != '\0') return usage(argv[0]);
  const double seconds = std::strtod(seconds_text.c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0) || seconds > 600.0) {
    return usage(argv[0]);
  }
  if (trace_text != "0" && trace_text != "1") return usage(argv[0]);

  return trace_text == "1"
             ? perfbench::run_traced(*workload, seed, seconds)
             : perfbench::run_end_to_end(*workload, seed, seconds);
}
