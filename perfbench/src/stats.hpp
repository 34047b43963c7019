// Measurement helpers shared by every workload: the percentile rule,
// failure accounting, heap and CPU readings, the seeded submission
// order, and the metric report printed at the end of a run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; with fewer, the tail is a handful of windows
/// and one outlier moves it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Samples strictly beyond the nearest-rank position of q.
std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank quantile q of `values`, or nullopt when the percentile
/// rule refuses it (fewer than kMinSamplesBeyond samples beyond the rank).
std::optional<double> percentile(std::vector<double> values, double q);

double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// A measured phase is cut into slices of about this length.  Rates are
/// computed per slice and the median across slices is reported:
/// interference from outside the process comes in bursts of about a
/// second, and a burst that hits a few slices does not move the median.
inline constexpr double kSliceSeconds = 1.0;

/// Slice boundaries of one phase, with the process CPU time read at each.
class Slices {
 public:
  void start(Clock::time_point t0, double seconds, int count);
  int count() const { return count_; }
  /// Reads the CPU clock at every boundary `now` has passed since the last
  /// call; returns how many boundaries this call passed.
  int advance(Clock::time_point now);
  /// Reads the CPU clock for every boundary not yet read (end of phase).
  void finish();
  /// Slice containing t, or -1 outside the phase.
  int index(Clock::time_point t) const;
  double slice_seconds() const { return len_s_; }
  /// CPU seconds the process used during slice s (after advance passed its end).
  double cpu_seconds(int s) const {
    return cpu_[static_cast<std::size_t>(s) + 1] - cpu_[static_cast<std::size_t>(s)];
  }

 private:
  Clock::time_point t0_{};
  double len_s_ = 0.0;
  int count_ = 0;
  int marked_ = 0;  ///< Boundaries read so far (boundary 0 = t0).
  std::vector<double> cpu_;
};

/// Slices of about kSliceSeconds each covering `seconds` (at least one).
int slice_count(double seconds);

/// Thrown when a run cannot produce a trustworthy number (a refused
/// percentile, an exhausted buffer); the run then exits non-zero without
/// printing a result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Percentile that must exist: throws BenchError when the rule refuses it.
double require_percentile(const std::vector<double>& values, double q, std::string_view what);

/// Percentile of a layer that a workload may bypass: 0 when the layer was
/// never called (no samples), the percentile otherwise, and BenchError when
/// the layer was called too few times for the rule.
double layer_percentile(const std::vector<double>& values, double q, std::string_view what);

/// Every way a window can fail.  Each failed window increments exactly one
/// field (the first reason found), so failed() never exceeds attempted.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;    ///< Refused at admission.
  std::uint64_t shed = 0;        ///< Dropped after admission.
  std::uint64_t lost = 0;        ///< Admitted, never returned.
  std::uint64_t wire_failed = 0; ///< A client call reported a dead connection.
  std::uint64_t mismatched = 0;  ///< Output differs from the reference.
  std::uint64_t late = 0;        ///< Completed after the window period.

  std::uint64_t failed() const;
  double failed_ratio() const;
};

/// Bytes the allocator has handed out and not taken back, over every
/// glibc arena plus mmapped chunks (malloc_info).  mallinfo2() would see
/// only the main arena, and the program's worker threads allocate from
/// their own arenas.
std::size_t heap_in_use_bytes();

/// In-use bytes from one malloc_info() XML document (the top-level totals
/// after the last per-arena block): system current - fast - rest + mmap.
std::size_t parse_malloc_info(std::string_view xml);

/// Heap retained across a phase, in MiB (negative when it shrank).
double retained_mib(std::size_t before_bytes, std::size_t after_bytes);

/// CPU seconds used so far by every thread of this process.
double process_cpu_seconds();

/// A permutation of 0..n-1 drawn from `seed`: the order in which a
/// workload submits its distinct windows.  Pure function of its arguments.
std::vector<std::uint32_t> shuffled_order(std::uint64_t seed, std::uint32_t n);

/// The metrics of one run, printed as human-readable lines and then as the
/// final JSON line.
class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples = 0);
  void note(std::string line) { notes_.push_back(std::move(line)); }
  /// Puts the metrics in `order`; a name never added is added as 0 (a
  /// layer the workload did not call).  Throws BenchError on a metric
  /// that `order` does not list.
  template <typename Names>
  void complete(const Names& order) {
    std::vector<Metric> sorted;
    std::size_t found = 0;
    for (const auto& n : order) {
      Metric m{n.name, 0.0, n.unit, 0};
      for (const auto& have : metrics_) {
        if (have.name == n.name) {
          m = have;
          ++found;
        }
      }
      sorted.push_back(m);
    }
    if (found != metrics_.size()) throw BenchError("a reported metric is not in the metric list");
    metrics_ = std::move(sorted);
  }
  /// Prints every note and metric, then the JSON object as the last line.
  void print(bool correct, const Accounting& acct) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
