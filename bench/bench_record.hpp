// One JSON record shape for every custom bench, read by
// tools/bench_compare.py:
//
//   {"bench", "scale", "threads", "wall_seconds",
//    "metrics": {name: {"value", "unit"[, check]}},
//    "gates": {name: bool}}
//
// Tiers and table rows flatten into dotted names ("dense.seed_s",
// "cadence.sats=44.handovers"). A metric carries at most one check, which
// the bench declares because only it knows where the check applies:
//  * compare — warn when slower than the baseline by more than the
//    comparer's --threshold, at equal scale;
//  * exact   — equal to the baseline within 1e-9, at equal scale (a
//    deterministic value; write it with the baseline's decimals);
//  * floor   — at least `min`; a miss warns, or fails the comparer when
//    `hard` (machine-independent counts and invariants).
// A false gate fails the comparer; the bench exits non-zero on it too.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace openspace::bench {

class BenchMetric {
 public:
  BenchMetric(std::string name, std::string value, const char* unit)
      : name_(std::move(name)), value_(std::move(value)), unit_(unit) {}

  BenchMetric& compare() { return check(", \"compare\": true"); }
  BenchMetric& exact() { return check(", \"exact\": true"); }
  BenchMetric& floor(double min, bool hard = false) {
    return check(", \"floor\": {\"min\": " + number(min, -1) +
                 ", \"hard\": " + (hard ? "true" : "false") + "}");
  }

  /// `decimals` < 0 writes the shortest text that reads back as `v`.
  static std::string number(double v, int decimals) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    if (decimals >= 0) {
      std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
      return buf;
    }
    return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
  }

  std::string json() const {
    return "\"" + name_ + "\": {\"value\": " + value_ + ", \"unit\": \"" +
           unit_ + "\"" + check_ + "}";
  }

 private:
  BenchMetric& check(std::string c) {
    check_ = std::move(c);
    return *this;
  }

  std::string name_, value_, unit_, check_;
};

class BenchRecord {
 public:
  explicit BenchRecord(std::string bench, double scale = 1.0)
      : bench_(std::move(bench)), scale_(scale) {}

  BenchMetric& metric(std::string name, double value, const char* unit,
                      int decimals = 6) {
    return metrics_.emplace_back(std::move(name),
                                 BenchMetric::number(value, decimals), unit);
  }
  template <typename Int>
  BenchMetric& count(std::string name, Int value, const char* unit = "count") {
    return metrics_.emplace_back(std::move(name), std::to_string(value), unit);
  }
  /// A flag reported as 1/0, e.g. an invariant a floor of 1 holds.
  BenchMetric& flag(std::string name, bool value) {
    return count(std::move(name), value ? 1 : 0, "bool");
  }
  /// A 64-bit checksum, written as 16 hex digits.
  BenchMetric& checksum(std::string name, std::uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(value));
    return metrics_.emplace_back(std::move(name), buf, "fnv64");
  }
  BenchMetric& text(std::string name, const std::string& value) {
    return metrics_.emplace_back(std::move(name), "\"" + value + "\"", "text");
  }

  void gate(std::string name, bool ok) {
    gates_.emplace_back(std::move(name), ok);
  }
  bool allGates() const {
    for (const auto& g : gates_) {
      if (!g.second) return false;
    }
    return true;
  }

  /// Writes the record to `path` and prints "# json: <path>".
  void write(const char* path, int threads, double wallSeconds) const {
    std::vector<std::string> metrics, gates;
    for (const BenchMetric& m : metrics_) metrics.push_back(m.json());
    for (const auto& [name, ok] : gates_) {
      gates.push_back("\"" + name + "\": " + (ok ? "true" : "false"));
    }
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"scale\": %s,\n"
                 "  \"threads\": %d,\n  \"wall_seconds\": %.6f,\n"
                 "  \"metrics\": %s,\n  \"gates\": %s\n}\n",
                 bench_.c_str(), BenchMetric::number(scale_, -1).c_str(),
                 threads, wallSeconds, object(metrics).c_str(),
                 object(gates).c_str());
    std::fclose(f);
    std::printf("# json: %s\n", path);
  }

 private:
  /// One member per line, indented under the record's top level.
  static std::string object(const std::vector<std::string>& members) {
    if (members.empty()) return "{}";
    std::string out = "{";
    for (const std::string& m : members) {
      out += (out.size() > 1 ? ",\n    " : "\n    ") + m;
    }
    return out + "\n  }";
  }

  std::string bench_;
  double scale_;
  std::deque<BenchMetric> metrics_;  ///< Deque: returned references stay valid.
  std::vector<std::pair<std::string, bool>> gates_;
};

}  // namespace openspace::bench
