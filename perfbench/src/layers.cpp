#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> metrics = {
      {"host.submit_block_ms_p50", "ms"},
      {"host.queue_wait_ms_p50", "ms"},
      {"host.urgent_queue_wait_ms_p50", "ms"},
      {"host.solve_ms_p50", "ms"},
      {"host.worker_busy_ratio", "ratio"},
      {"host.poll_empty_ratio", "ratio"},
      {"host.grouped_ratio", "ratio"},
      {"host.cached_matrices", "count"},
      {"host.rejected", "count"},
      {"host.shed", "count"},
      {"host.lost", "count"},
      {"cs.iterations_per_window", "iter"},
      {"kern.flops_per_window", "flop"},
      {"kern.bytes_per_window", "B"},
      {"kern.spmv_ns", "ns"},
      {"kern.dwt_ns", "ns"},
      {"net.submit_us_p50", "us"},
      {"net.poll_us_p50", "us"},
      {"net.poll_empty_ratio", "ratio"},
      {"net.return_ms_p50", "ms"},
      {"net.submit_bytes_per_window", "B"},
      {"net.result_bytes_per_window", "B"},
      {"net.connect_ms", "ms"},
      {"core.process_us_p50.cs-single-lead", "us"},
      {"core.process_us_p50.cs-multi-lead", "us"},
      {"core.process_us_p50.delineation", "us"},
      {"core.process_us_p50.classification", "us"},
      {"core.process_us_p50.af-alarm", "us"},
      {"cs.matrix_build_us_p50", "us"},
      {"cs.encode_us_p50", "us"},
      {"delin.pipeline_us_p50", "us"},
      {"cls.classify_us_p50", "us"},
      {"cls.af_us_p50", "us"},
      {"cls.train_ms", "ms"},
      {"dsp.ops_per_window", "ops"},
      {"energy.computation_uj_per_window", "uJ"},
      {"energy.radio_uj_per_window", "uJ"},
      {"tail.latency_p95_ms", "ms"},
      {"tail.latency_p99_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unaccounted_ratio", "ratio"},
  };
  return metrics;
}

}  // namespace perfbench
