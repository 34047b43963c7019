// The three benchmark workloads.  Each builds its inputs from the seed,
// sets the program up several times (setup_s is the median), measures for
// the requested time, checks every output, and fills a Report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to ("" = do not write).
  std::string trace_dir;
};

struct RunOutcome {
  Report report;
  Accounting acct;
  bool correct = true;
};

RunOutcome run_fleet_saturate(const RunOptions& opt);
RunOutcome run_fleet_wire(const RunOptions& opt);
RunOutcome run_node_monitor(const RunOptions& opt);

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.  A traced run reports
/// all of them: a layer the workload never calls reads 0.
const std::vector<MetricName>& per_layer_metrics();

}  // namespace perfbench
