#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A set of timing samples. Quantiles interpolate linearly between order
/// statistics (Python's statistics.quantiles "inclusive" method).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Max() const;
  /// Median, over consecutive windows of `window` samples in insertion
  /// order, of each window's q-quantile: the quantile of a typical window,
  /// which a host stall confined to a few windows does not move.
  double WindowedQuantile(double q, size_t window) const;
  size_t Windows(size_t window) const { return values_.size() / window; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// FNV-1a over raw bytes; doubles are folded by bit pattern.
class Digest {
 public:
  void Bytes(const void* data, size_t n);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex64(uint64_t v);

/// Shortest round-trip decimal form of a finite double (JSON number).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Ordered name → (value, unit) list, printed as the result's "metrics".
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// `{"name": {"value": v, "unit": u}, ...}`
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

/// Ordered key → JSON value list for the human-facing report line.
class InfoSet {
 public:
  void Raw(const std::string& key, std::string json) {
    entries_.emplace_back(key, std::move(json));
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, JsonString(v));
  }
  void Num(const std::string& key, double v) { Raw(key, JsonNumber(v)); }
  void Int(const std::string& key, int64_t v) {
    Raw(key, std::to_string(v));
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Host and build description recorded with every run.
InfoSet HostFingerprint();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
