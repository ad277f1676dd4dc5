// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around calls into each
// layer's public functions, and kept in memory until the run ends. Nesting is
// not tracked at record time: the model stack of this system runs one batch
// at a time (a single dispatcher thread) and fans out to pool workers, so a
// span's parent is recovered afterwards from the layer's depth and interval
// containment. A layer's self time is then the wall time its spans cover minus
// the part of that time covered by deeper layers' spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (monotonic across threads).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< Static string "layer.function".
  int depth = 0;          ///< Model-stack depth; 0 = client-side leaf span.
  uint64_t request = 0;   ///< Request sequence number (client spans).
  uint32_t items = 0;     ///< Queries (or rows, for nn) the call processed.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  void Record(const Span& span);
  /// All spans recorded so far, in no particular order.
  std::vector<Span> Spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span; a no-op when `tracer` is
/// null, so traced and untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int depth, uint64_t request,
             uint32_t items)
      : tracer_(tracer), span_{name, depth, request, items, tracer ? NowNs() : 0, 0} {}
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
};

/// Sorted, disjoint [start, end) intervals.
using Intervals = std::vector<std::pair<int64_t, int64_t>>;

/// Union of the intervals of every span accepted by `keep`.
template <typename Pred>
Intervals UnionOf(const std::vector<Span>& spans, Pred keep);
Intervals Merge(Intervals v);
int64_t Length(const Intervals& v);
/// Total length of the intersection of two unions.
int64_t OverlapLength(const Intervals& a, const Intervals& b);

template <typename Pred>
Intervals UnionOf(const std::vector<Span>& spans, Pred keep) {
  Intervals v;
  for (const Span& s : spans) {
    if (keep(s)) v.emplace_back(s.start_ns, s.end_ns);
  }
  return Merge(std::move(v));
}

/// Per-layer accounting over one traced window.
struct LayerTimes {
  int64_t busy_ns = 0;  ///< Sum of span durations (across threads).
  int64_t wall_ns = 0;  ///< Length of the union of the spans.
  int64_t self_ns = 0;  ///< wall_ns minus the part deeper layers cover.
  uint64_t calls = 0;
};

/// Accounting for the spans named `name`. For model-stack spans (depth > 0)
/// self time subtracts the union of every deeper span; client spans (depth 0)
/// are leaves.
LayerTimes Account(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench
