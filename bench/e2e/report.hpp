// Metrics, statistics and the correctness gate of bench_e2e.
//
// Every metric has a name and a unit and is printed as measured, with all
// its digits.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced run (BENCHMARK.json lists both sets).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/aggregator.hpp"

namespace stagg::e2e {

inline constexpr double kMiB = 1024.0 * 1024.0;

// --- Statistics -------------------------------------------------------------

[[nodiscard]] inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]): the smallest sample with at
/// least q of the samples at or below it.
[[nodiscard]] inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Formats a double with all the digits needed to read it back exactly
/// (JSON has no NaN or infinity; those print as 0 and never appear in a
/// correct run).
[[nodiscard]] inline std::string full_digits(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40] = {};
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print_table(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }

  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out.append(i == 0 ? "\"" : ", \"")
          .append(m.name)
          .append("\": {\"value\": ")
          .append(full_digits(m.value))
          .append(", \"unit\": \"")
          .append(m.unit)
          .append("\"}");
    }
    out += "}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

// --- Correctness gate ---------------------------------------------------------

/// Bit-for-bit comparison of aggregation outputs.  In self-test mode the
/// first compared pIC is moved by one ULP before the comparison, so a
/// working gate must report a mismatch.
class Gate {
 public:
  explicit Gate(bool self_test) : perturb_pending_(self_test) {}

  void check(bool ok, std::string_view what) {
    ++checks_;
    if (!ok) failures_.emplace_back(what);
  }

  void same_result(std::string_view what, const AggregationResult& expect,
                   AggregationResult got) {
    if (perturb_pending_) {
      got.optimal_pic = std::nextafter(got.optimal_pic,
                                       std::numeric_limits<double>::infinity());
      perturb_pending_ = false;
      perturbed_ = true;
    }
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    check(bits(expect.optimal_pic) == bits(got.optimal_pic) &&
              bits(expect.measures.gain) == bits(got.measures.gain) &&
              bits(expect.measures.loss) == bits(got.measures.loss) &&
              expect.partition.size() == got.partition.size() &&
              expect.partition.signature() == got.partition.signature(),
          what);
  }

  void same_results(std::string_view what,
                    const std::vector<AggregationResult>& expect,
                    const std::vector<AggregationResult>& got) {
    if (expect.size() != got.size()) {
      check(false, what);
      return;
    }
    for (std::size_t k = 0; k < expect.size(); ++k) {
      std::string label(what);
      label.append(" [probe ").append(std::to_string(k)).append("]");
      same_result(label, expect[k], got[k]);
    }
  }

  [[nodiscard]] bool passed() const noexcept { return failures_.empty(); }
  [[nodiscard]] bool perturbed() const noexcept { return perturbed_; }
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  bool perturb_pending_;
  bool perturbed_ = false;
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace stagg::e2e
