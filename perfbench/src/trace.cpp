#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::size_t capacity) : epoch_(Clock::now()) { spans_.reserve(capacity); }

std::uint32_t Tracer::name(const std::string& n) {
  const auto it = std::find(names_.begin(), names_.end(), n);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(n);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint32_t parent, std::uint64_t trace,
                           Clock::time_point start) {
  if (spans_.size() == spans_.capacity()) throw BenchError("span buffer exhausted");
  spans_.push_back({name, parent, trace, ns(start), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t span, Clock::time_point end) { spans_[span].end_ns = ns(end); }

std::uint32_t Tracer::record(std::uint32_t name, std::uint32_t parent, std::uint64_t trace,
                             Clock::time_point start, Clock::time_point end) {
  const std::uint32_t id = open(name, parent, trace, start);
  close(id, end);
  return id;
}

std::vector<std::int64_t> Tracer::self_times_ns() const {
  // Children grouped by parent, then the union of each parent's child
  // intervals (clipped to the parent) is subtracted from its duration.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_parent;  // (parent, child)
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent && spans_[i].end_ns != 0) by_parent.emplace_back(spans_[i].parent, i);
  }
  std::sort(by_parent.begin(), by_parent.end());

  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ns != 0) self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t k = 0; k < by_parent.size();) {
    const std::uint32_t parent = by_parent[k].first;
    const Span& p = spans_[parent];
    iv.clear();
    for (; k < by_parent.size() && by_parent[k].first == parent; ++k) {
      const Span& c = spans_[by_parent[k].second];
      const std::int64_t lo = std::max(c.start_ns, p.start_ns);
      const std::int64_t hi = std::min(c.end_ns, p.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    if (p.end_ns != 0) self[parent] -= covered;
  }
  return self;
}

std::vector<double> Tracer::self_ms(const std::string& n) const {
  const auto it = std::find(names_.begin(), names_.end(), n);
  std::vector<double> out;
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  const auto self = self_times_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == id && spans_[i].end_ns != 0) out.push_back(1e-6 * static_cast<double>(self[i]));
  }
  return out;
}

std::string Tracer::write_run(const std::string& dir, const std::string& workload, std::uint64_t seed) const {
  const std::string path = dir + "/" + workload + "-seed" + std::to_string(seed) + ".tsv";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "could not write spans to " + path;
  std::fprintf(f, "name\tparent\ttrace\tstart_ns\tend_ns\n");
  for (const auto& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%llu\t%lld\t%lld\n", names_[s.name].c_str(),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0 ? "spans written to " + path : "could not write spans to " + path;
}

}  // namespace perfbench
