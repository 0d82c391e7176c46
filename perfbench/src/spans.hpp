// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a public layer of the engine (resolve, solve, verify, parse,
// canonicalize, submit, …) in a Span; nothing inside src/ is instrumented.
// Spans stay in memory until the run ends, then go out as Chrome trace
// events plus a per-name self-time table (span time minus the time its
// direct children cover).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 at top
  std::int64_t request = -1;  ///< request / case id the span belongs to
};

/// Single-threaded recorder: spans opened on one thread nest by stack
/// discipline. A disabled recorder costs one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  std::int64_t open(const char* name, std::int64_t request) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, request});
    stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(std::int64_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Record an already-finished interval under an explicit parent (-1 =
  /// top level). Open-loop requests overlap in time, so the serve
  /// generator records each one this way instead of by stack discipline.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t request,
                   std::int64_t parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Per span name: count, total time, and self time (total minus the
  /// time its direct children cover; children of one span never overlap).
  std::map<std::string, NameTotals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1e6;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, µs timestamps).
  std::string chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (i != 0) out += ",\n";
      out += "{\"name\":\"" + std::string(s.name) +
             "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             std::to_string((s.start_ns - t0) / 1000.0) +
             ",\"dur\":" + std::to_string((s.end_ns - s.start_ns) / 1000.0) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"request\":" + std::to_string(s.request) + "}}";
    }
    out += "]}\n";
    return out;
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span.
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name, std::int64_t request = -1)
      : recorder_(recorder), index_(recorder.open(name, request)) {}
  ~Span() { recorder_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

}  // namespace perfbench
