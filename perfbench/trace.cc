#include "trace.h"

#include <algorithm>

namespace perfbench {

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Intervals Merge(Intervals v) {
  std::sort(v.begin(), v.end());
  Intervals out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

int64_t Length(const Intervals& v) {
  int64_t total = 0;
  for (const auto& iv : v) total += iv.second - iv.first;
  return total;
}

int64_t OverlapLength(const Intervals& a, const Intervals& b) {
  int64_t total = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].first, b[j].first);
    const int64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

LayerTimes Account(const std::vector<Span>& spans, const std::string& name) {
  LayerTimes t;
  int depth = -1;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    t.busy_ns += s.end_ns - s.start_ns;
    ++t.calls;
    depth = s.depth;
  }
  if (t.calls == 0) return t;
  const Intervals own = UnionOf(spans, [&](const Span& s) { return name == s.name; });
  t.wall_ns = Length(own);
  t.self_ns = t.wall_ns;
  if (depth > 0) {
    const Intervals deeper =
        UnionOf(spans, [&](const Span& s) { return s.depth > depth; });
    t.self_ns -= OverlapLength(own, deeper);
  }
  return t;
}

}  // namespace perfbench
