// In-memory span recorder for the benchmark's traced pass.
//
// Spans are opened and closed on the one client thread that drives the
// library (every workload is a closed loop with a single caller), so the
// recorder keeps an explicit stack instead of thread-local state. Each span
// stores its name, start and end, parent span, the index of the arrival or
// batch that caused it, and the INCLUSIVE change of the decorator counters
// over its lifetime. Self time and self counts (inclusive minus children)
// are derived offline by perfbench/stats.py from the written TSV, so the
// recorder itself does no attribution arithmetic.
#ifndef FKC_PERFBENCH_TRACE_H_
#define FKC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Monotone work counters bumped by the forwarding decorators.
struct Counters {
  int64_t scalar_calls = 0;  ///< Metric::Distance calls
  int64_t many_pairs = 0;    ///< pairs evaluated through Metric::DistanceMany
  int64_t soa_pairs = 0;     ///< pairs evaluated through Metric::DistanceSoA
  int64_t spill_puts = 0;
  int64_t spill_gets = 0;
  int64_t put_bytes = 0;
  int64_t get_bytes = 0;

  Counters Minus(const Counters& o) const {
    return {scalar_calls - o.scalar_calls, many_pairs - o.many_pairs,
            soa_pairs - o.soa_pairs,       spill_puts - o.spill_puts,
            spill_gets - o.spill_gets,     put_bytes - o.put_bytes,
            get_bytes - o.get_bytes};
  }
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// While paused (benchmark-side correctness checks), decorators forward
  /// without counting or opening spans.
  bool active() const { return active_; }
  void set_active(bool active) { active_ = active; }

  Counters& counters() { return counters_; }

  /// Opens a span under the innermost open one. `cause` < 0 inherits the
  /// parent's cause (decorator spans). Returns the span id.
  int64_t Begin(const char* name, int64_t cause = -1) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.cause = cause >= 0 || span.parent < 0 ? cause
                                                : spans_[span.parent].cause;
    span.start_counters = counters_;
    span.start_ns = NowNanos();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes the innermost span, which must be `id`.
  void End(int64_t id) {
    Span& span = spans_[id];
    span.end_ns = NowNanos();
    span.counters = counters_.Minus(span.start_counters);
    stack_.pop_back();
  }

  /// Appends "key=value;" to a span's attribute list (gauges such as the
  /// coreset size of a query or the spilled-shard count before a scan).
  void Attr(int64_t id, const char* key, int64_t value) {
    spans_[id].attrs += std::string(key) + "=" + std::to_string(value) + ";";
  }

  size_t open_spans() const { return stack_.size(); }

  /// Writes every span as one TSV row; returns false on an I/O failure.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "id\tname\tparent\tcause\tstart_ns\tend_ns\tscalar_calls\t"
                 "many_pairs\tsoa_pairs\tspill_puts\tspill_gets\tput_bytes\t"
                 "get_bytes\tattrs\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const Counters& c = s.counters;
      std::fprintf(f,
                   "%zu\t%s\t%lld\t%lld\t%lld\t%lld\t%lld\t%lld\t%lld\t%lld\t"
                   "%lld\t%lld\t%lld\t%s\n",
                   i, s.name, static_cast<long long>(s.parent),
                   static_cast<long long>(s.cause),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(c.scalar_calls),
                   static_cast<long long>(c.many_pairs),
                   static_cast<long long>(c.soa_pairs),
                   static_cast<long long>(c.spill_puts),
                   static_cast<long long>(c.spill_gets),
                   static_cast<long long>(c.put_bytes),
                   static_cast<long long>(c.get_bytes), s.attrs.c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name = "";
    int64_t parent = -1;
    int64_t cause = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    Counters start_counters;
    Counters counters;  ///< inclusive change over the span
    std::string attrs;
  };

  bool active_ = false;
  Counters counters_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span for decorator calls; a no-op while the tracer is paused.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer->active() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // FKC_PERFBENCH_TRACE_H_
