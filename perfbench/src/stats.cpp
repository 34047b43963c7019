#include "stats.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>

namespace perfbench {
namespace {

/// Nearest-rank index (0-based) of quantile q in n sorted samples.
std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

std::optional<double> percentile(std::vector<double> values, double q) {
  if (samples_beyond(values.size(), q) < kMinSamplesBeyond) return std::nullopt;
  const std::size_t k = rank_index(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k), values.end());
  return values[k];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<long>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(values.begin(), mid));
}

void Slices::start(Clock::time_point t0, double seconds, int count) {
  t0_ = t0;
  count_ = count;
  len_s_ = seconds / count;
  cpu_.assign(static_cast<std::size_t>(count) + 1, 0.0);
  cpu_[0] = process_cpu_seconds();
  marked_ = 1;
}

int slice_count(double seconds) { return std::max(1, static_cast<int>(seconds / kSliceSeconds)); }

int Slices::advance(Clock::time_point now) {
  int passed = 0;
  while (marked_ <= count_ &&
         std::chrono::duration<double>(now - t0_).count() >= len_s_ * marked_) {
    cpu_[marked_++] = process_cpu_seconds();
    ++passed;
  }
  return passed;
}

void Slices::finish() {
  const double cpu = process_cpu_seconds();
  while (marked_ <= count_) cpu_[marked_++] = cpu;
}

int Slices::index(Clock::time_point t) const {
  const double at = std::chrono::duration<double>(t - t0_).count();
  if (at < 0.0) return -1;
  const auto s = static_cast<int>(at / len_s_);
  return s < count_ ? s : -1;
}

double require_percentile(const std::vector<double>& values, double q, std::string_view what) {
  const auto p = percentile(values, q);
  if (!p) {
    throw BenchError("percentile refused for " + std::string(what) + ": " +
                     std::to_string(values.size()) + " samples leave " +
                     std::to_string(samples_beyond(values.size(), q)) + " beyond q=" +
                     std::to_string(q) + " (need " + std::to_string(kMinSamplesBeyond) + ")");
  }
  return *p;
}

double layer_percentile(const std::vector<double>& values, double q, std::string_view what) {
  return values.empty() ? 0.0 : require_percentile(values, q, what);
}

std::uint64_t Accounting::failed() const {
  return rejected + shed + lost + wire_failed + mismatched + late;
}

double Accounting::failed_ratio() const {
  return attempted == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(attempted);
}

namespace {

/// Value of `attr="N"` inside the first element starting with `tag` at or
/// after `from`; 0 when absent.
std::size_t xml_attr(std::string_view xml, std::size_t from, std::string_view tag,
                     std::string_view attr) {
  const std::size_t at = xml.find(tag, from);
  if (at == std::string_view::npos) return 0;
  const std::size_t close = xml.find('>', at);
  const std::string key = std::string(attr) + "=\"";
  const std::size_t pos = xml.find(key, at);
  if (pos == std::string_view::npos || pos > close) return 0;
  return std::strtoull(std::string(xml.substr(pos + key.size(), 24)).c_str(), nullptr, 10);
}

}  // namespace

std::size_t parse_malloc_info(std::string_view xml) {
  // Per-arena blocks come first; the process-wide totals follow the last
  // </heap>.  Free space in the arenas ("fast" and "rest", which includes
  // each arena's top chunk) is subtracted from the memory they hold.
  const std::size_t last_heap = xml.rfind("</heap>");
  const std::size_t from = last_heap == std::string_view::npos ? 0 : last_heap;
  const std::size_t fast = xml_attr(xml, from, "<total type=\"fast\"", "size");
  const std::size_t rest = xml_attr(xml, from, "<total type=\"rest\"", "size");
  const std::size_t mmap = xml_attr(xml, from, "<total type=\"mmap\"", "size");
  const std::size_t current = xml_attr(xml, from, "<system type=\"current\"", "size");
  const std::size_t free_bytes = std::min(current, fast + rest);
  return current - free_bytes + mmap;
}

std::size_t heap_in_use_bytes() {
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* stream = open_memstream(&buf, &len);
  if (stream == nullptr) throw BenchError("open_memstream failed");
  const int rc = malloc_info(0, stream);
  std::fclose(stream);
  const std::string xml(buf, len);
  std::free(buf);
  if (rc != 0) throw BenchError("malloc_info failed");
  return parse_malloc_info(xml);
}

double retained_mib(std::size_t before_bytes, std::size_t after_bytes) {
  return (static_cast<double>(after_bytes) - static_cast<double>(before_bytes)) / (1024.0 * 1024.0);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::vector<std::uint32_t> shuffled_order(std::uint64_t seed, std::uint32_t n) {
  // mt19937_64 is fully specified by the standard; the shuffle is done by
  // hand because std::shuffle's use of the engine is not.
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples) {
  if (!std::isfinite(value)) throw BenchError("metric " + name + " is not finite");
  for (const auto& m : metrics_) {
    if (m.name == name) throw BenchError("metric " + name + " reported twice");
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::print(bool correct, const Accounting& acct) const {
  for (const auto& line : notes_) std::printf("# %s\n", line.c_str());
  for (const auto& m : metrics_) {
    if (m.samples > 0) {
      std::printf("%-40s %16.6f %-10s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%-40s %16.6f ratio (%llu of %llu windows)\n", "failed_ratio", acct.failed_ratio(),
              static_cast<unsigned long long>(acct.failed()),
              static_cast<unsigned long long>(acct.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(acct.attempted),
              static_cast<unsigned long long>(acct.failed()));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
