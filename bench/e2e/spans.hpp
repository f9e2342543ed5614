// Outside-in layer spans for bench_e2e.
//
// The bench times its own calls into the library's public functions: each
// call is one span with a name, start, end, parent span and the op (offline)
// or round (live) it belongs to.  Spans are kept in memory and written out
// when the run ends.  A span's self time is its duration minus the time its
// direct children cover; the time no top-level span covers is reported as
// unattributed.  Spans are recorded from the bench thread only, so the
// recorder needs no locking.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace stagg::e2e {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed so far by every thread of the process.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  const char* name = "";  ///< static string: the layer call
  std::int64_t op = 0;    ///< op (offline) or round (live) id
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  std::int32_t open(const char* name, std::int64_t op) {
    if (!enabled_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, op, stack_.empty() ? -1 : stack_.back(), now_ns(),
                      0});
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Sum of the durations of `name`'s spans, per op id, in op order.
  [[nodiscard]] std::vector<double> per_op_seconds(const char* name) const {
    std::map<std::int64_t, double> by_op;
    for (const Span& s : spans_) {
      if (std::string(s.name) == name) by_op[s.op] += s.seconds();
    }
    std::vector<double> out;
    out.reserve(by_op.size());
    for (const auto& [op, secs] : by_op) out.push_back(secs);
    return out;
  }

  /// Self seconds (duration minus direct children) summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].seconds();
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  /// Seconds covered by top-level spans.
  [[nodiscard]] double top_level_seconds() const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) sum += s.seconds();
    }
    return sum;
  }

  /// Spans as compact JSON: a name table plus one
  /// [name, op, parent, start_ns, end_ns] row per span, times relative to
  /// the first span's start.
  [[nodiscard]] std::string to_json() const {
    std::vector<std::string> names;
    std::map<std::string, std::size_t> name_ids;
    for (const Span& s : spans_) {
      if (name_ids.emplace(s.name, names.size()).second) {
        names.emplace_back(s.name);
      }
    }
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"names\": [";
    for (std::size_t i = 0; i < names.size(); ++i) {
      out.append(i == 0 ? "\"" : ", \"").append(names[i]).append("\"");
    }
    out += "], \"rows\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char row[128] = {};
      std::snprintf(row, sizeof row, "%s[%zu, %lld, %d, %lld, %lld]",
                    i == 0 ? "" : ", ", name_ids[s.name],
                    static_cast<long long>(s.op), s.parent,
                    static_cast<long long>(s.start_ns - origin),
                    static_cast<long long>(s.end_ns - origin));
      out += row;
    }
    out += "]}";
    return out;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t op)
      : tracer_(tracer), idx_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t idx_;
};

}  // namespace stagg::e2e
