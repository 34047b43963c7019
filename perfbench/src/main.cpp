// perfbench: the repository benchmark.
//
//   perfbench --workload fleet_saturate|fleet_wire|node_monitor
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints one line per metric and, as the last line, a JSON object with
// "correct", "attempted", "failed" and "metrics".  --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics from a
// separate traced phase.  Exits 1 when any output fails its check and 2
// when the run cannot produce a trustworthy figure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_saturate|fleet_wire|node_monitor --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 600.0)) return usage();
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return usage();
      opt.trace = value[0] == '1';
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed) return usage();

  RunOutcome out;
  try {
    if (workload == "fleet_saturate") {
      out = run_fleet_saturate(opt);
    } else if (workload == "fleet_wire") {
      out = run_fleet_wire(opt);
    } else if (workload == "node_monitor") {
      out = run_node_monitor(opt);
    } else {
      return usage();
    }
    if (opt.trace) out.report.complete(per_layer_metrics());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const bool correct = out.correct && out.acct.failed() == 0;
  out.report.print(correct, out.acct);
  return correct ? 0 : 1;
}
