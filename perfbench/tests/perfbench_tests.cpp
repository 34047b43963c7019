// Unit tests of the benchmark's own measurement code: the percentile
// rule, the seeded submission order, failure accounting, the heap-delta
// helper, time slices, span self time and the metric list.
// Run: python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // Unsorted on purpose.
  return v;
}

void percentile_rule() {
  CHECK(samples_beyond(20, 0.5) == 10);
  CHECK(!percentile(ramp(19), 0.5).has_value());
  CHECK(percentile(ramp(20), 0.5).value() == 10.0);
  CHECK(percentile(ramp(100), 0.5).value() == 50.0);
  // p99 needs ten samples past the rank: 1000 samples, not 999.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(percentile(ramp(1000), 0.99).value() == 990.0);
  CHECK(!percentile(ramp(999), 0.99).has_value());
  bool threw = false;
  try {
    (void)require_percentile(ramp(5), 0.5, "tiny");
  } catch (const BenchError&) {
    threw = true;
  }
  CHECK(threw);
  // A layer the workload never called reads 0; one called too rarely is refused.
  CHECK(layer_percentile({}, 0.5, "unused") == 0.0);
  threw = false;
  try {
    (void)layer_percentile(ramp(3), 0.5, "rare");
  } catch (const BenchError&) {
    threw = true;
  }
  CHECK(threw);
}

void order_reproducible() {
  const auto a = shuffled_order(7, 1000);
  const auto b = shuffled_order(7, 1000);
  const auto c = shuffled_order(8, 1000);
  CHECK(a == b);
  CHECK(a != c);
  // A permutation: every window exactly once.
  std::vector<bool> seen(1000, false);
  for (const auto i : a) {
    CHECK(i < 1000 && !seen[i]);
    if (i < 1000) seen[i] = true;
  }
  CHECK(a.size() == 1000);
  CHECK(shuffled_order(7, 0).empty());
}

void failed_ratio_accounting() {
  Accounting acct;
  CHECK(acct.failed() == 0 && acct.failed_ratio() == 0.0);
  acct.attempted = 1000;
  acct.rejected = 1;
  acct.shed = 2;
  acct.lost = 3;
  acct.wire_failed = 4;
  acct.mismatched = 5;
  acct.late = 5;
  CHECK(acct.failed() == 20);
  CHECK(acct.failed_ratio() == 0.02);
}

void heap_delta() {
  const char* xml =
      "<malloc version=\"1\">\n<heap nr=\"0\">\n<sizes>\n</sizes>\n"
      "<total type=\"fast\" count=\"1\" size=\"64\"/>\n<total type=\"rest\" count=\"2\" size=\"1000\"/>\n"
      "<system type=\"current\" size=\"9000\"/>\n</heap>\n"
      "<total type=\"fast\" count=\"3\" size=\"100\"/>\n<total type=\"rest\" count=\"4\" size=\"900\"/>\n"
      "<total type=\"mmap\" count=\"1\" size=\"4096\"/>\n<system type=\"current\" size=\"20000\"/>\n"
      "<system type=\"max\" size=\"20000\"/>\n</malloc>\n";
  // Totals after the last arena: 20000 - 100 - 900 + 4096.
  CHECK(parse_malloc_info(xml) == 23096);
  CHECK(retained_mib(1 << 20, 3 << 20) == 2.0);
  CHECK(retained_mib(3 << 20, 1 << 20) == -2.0);

  constexpr std::size_t kBytes = 8u << 20;
  const std::size_t before = heap_in_use_bytes();
  auto block = std::make_unique<char[]>(kBytes);
  std::memset(block.get(), 1, kBytes);
  const std::size_t held = heap_in_use_bytes();
  block.reset();
  const std::size_t after = heap_in_use_bytes();
  CHECK(std::fabs(retained_mib(before, held) - 8.0) < 0.25);
  CHECK(std::fabs(retained_mib(before, after)) < 0.25);
}

void span_self_time() {
  Tracer t(16);
  const auto base = Clock::now();
  const auto at = [&](int ms) { return base + std::chrono::milliseconds(ms); };
  const auto parent_name = t.name("parent");
  const auto child_name = t.name("child");
  CHECK(t.name("parent") == parent_name);
  const auto parent = t.open(parent_name, kNoParent, trace_id(1, 2), at(0));
  t.record(child_name, parent, trace_id(1, 2), at(1), at(3));
  t.record(child_name, parent, trace_id(1, 2), at(2), at(5));
  t.record(child_name, parent, trace_id(1, 2), at(8), at(12));  // Clipped to the parent.
  t.close(parent, at(10));
  // Children cover [1, 5) and [8, 10): 6 of the parent's 10 ms.
  const auto self = t.self_ms("parent");
  CHECK(self.size() == 1 && std::fabs(self[0] - 4.0) < 1e-9);
  const auto children = t.self_ms("child");
  CHECK(children.size() == 3 && std::fabs(children[2] - 4.0) < 1e-9);
  CHECK(t.self_ms("missing").empty());
  bool threw = false;
  Tracer full(1);
  full.record(parent_name, kNoParent, 0, at(0), at(1));
  try {
    full.record(parent_name, kNoParent, 0, at(1), at(2));
  } catch (const BenchError&) {
    threw = true;
  }
  CHECK(threw);
}

void slices() {
  CHECK(slice_count(20.0) == 20);
  CHECK(slice_count(10.5) == 10);
  CHECK(slice_count(0.5) == 1);
  Slices s;
  const auto t0 = Clock::now();
  s.start(t0, 10.0, 5);
  CHECK(s.count() == 5 && s.slice_seconds() == 2.0);
  CHECK(s.index(t0) == 0);
  CHECK(s.index(t0 + std::chrono::milliseconds(3999)) == 1);
  CHECK(s.index(t0 + std::chrono::milliseconds(9999)) == 4);
  CHECK(s.index(t0 + std::chrono::milliseconds(10001)) == -1);
  CHECK(s.index(t0 - std::chrono::milliseconds(1)) == -1);
  CHECK(s.advance(t0 + std::chrono::milliseconds(4500)) == 2);  // Boundaries at 2 s and 4 s.
  CHECK(s.advance(t0 + std::chrono::milliseconds(4600)) == 0);
  s.finish();
  CHECK(s.cpu_seconds(0) >= 0.0 && s.cpu_seconds(4) >= 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

/// The traced run's metric list is BENCHMARK.json's per_layer list, and
/// complete() fills the layers a workload never called with 0.
void metric_list() {
  std::ifstream f(PERFBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << f.rdbuf();
  const std::string json = text.str();
  const std::size_t per_layer = json.find("\"per_layer\"");
  CHECK(per_layer != std::string::npos);
  std::size_t listed = 0;
  for (std::size_t at = json.find("\"name\"", per_layer); at != std::string::npos;
       at = json.find("\"name\"", at + 1)) {
    ++listed;
  }
  CHECK(listed == per_layer_metrics().size());
  for (const auto& m : per_layer_metrics()) {
    const std::string entry = std::string("\"name\": \"") + m.name + "\", \"unit\": \"" + m.unit + "\"";
    if (json.find(entry, per_layer) == std::string::npos) {
      std::printf("FAIL per-layer metric %s (%s) not in BENCHMARK.json\n", m.name, m.unit);
      ++failures;
    }
  }
  Report rep;
  rep.add("kern.spmv_ns", 12.5, "ns");
  rep.complete(per_layer_metrics());
  bool threw = false;
  try {
    rep.add("kern.spmv_ns", 1.0, "ns");
  } catch (const BenchError&) {
    threw = true;
  }
  CHECK(threw);
  Report stray;
  stray.add("not.a.layer", 1.0, "ms");
  threw = false;
  try {
    stray.complete(per_layer_metrics());
  } catch (const BenchError&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  percentile_rule();
  order_reproducible();
  failed_ratio_accounting();
  heap_delta();
  span_self_time();
  slices();
  metric_list();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
