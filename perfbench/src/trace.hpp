// In-memory span recorder for the traced run.
//
// The benchmark records one span around each call it makes into a layer
// (name, start, end, parent span, trace id = patient << 32 | window) into
// a buffer reserved before the measured phase, so recording allocates
// nothing.  Spans are written out only when the run ends; per-layer self
// time is a span's duration minus the part of it its children cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

inline std::uint64_t trace_id(std::uint32_t patient, std::uint32_t window) {
  return (static_cast<std::uint64_t>(patient) << 32) | window;
}

struct Span {
  std::uint32_t name = 0;  ///< Index into Tracer::names().
  std::uint32_t parent = kNoParent;
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;  ///< Since the tracer's epoch.
  std::int64_t end_ns = 0;    ///< 0 while the span is open.
};

class Tracer {
 public:
  /// `capacity` spans are reserved up front; recording past it throws
  /// BenchError rather than reallocating inside the measured phase.
  explicit Tracer(std::size_t capacity);

  /// Registers a span name; call before the measured phase.
  std::uint32_t name(const std::string& n);

  std::uint32_t open(std::uint32_t name, std::uint32_t parent, std::uint64_t trace,
                     Clock::time_point start);
  void close(std::uint32_t span, Clock::time_point end);
  std::uint32_t record(std::uint32_t name, std::uint32_t parent, std::uint64_t trace,
                       Clock::time_point start, Clock::time_point end);

  /// Self time (ns) of every closed span, indexed like spans().
  std::vector<std::int64_t> self_times_ns() const;

  /// Self times of the closed spans called `n`, in milliseconds.
  std::vector<double> self_ms(const std::string& n) const;

  /// Writes the spans to `dir`/`workload`-seed`seed`.tsv, one
  /// tab-separated line per span (name, parent, trace, start and end in
  /// ns), and returns a line saying where (or that the write failed).
  std::string write_run(const std::string& dir, const std::string& workload, std::uint64_t seed) const;

 private:
  std::int64_t ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

}  // namespace perfbench
