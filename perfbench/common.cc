#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "math/kernels.h"
#include "util/string_util.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::WindowedQuantile(double q, size_t window) const {
  Samples per_window;
  for (size_t begin = 0; begin + window <= values_.size(); begin += window) {
    Samples one;
    one.values_.assign(values_.begin() + begin,
                       values_.begin() + begin + window);
    per_window.Add(one.Quantile(q));
  }
  return per_window.Median();
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::Max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

void Digest::Bytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto out = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, out.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += activedp::JsonEscape(s);
  out += '"';
  return out;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string InfoSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries_[i].first) + ": " + entries_[i].second;
  }
  return out + "}";
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

}  // namespace

InfoSet HostFingerprint() {
  InfoSet host;
  host.Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  host.Str("cpu_model", CpuModel());
  host.Str("simd_level",
           activedp::kernels::SimdLevelName(
               activedp::kernels::ActiveSimdLevel()));
  host.Str("build_type", PERFBENCH_BUILD_TYPE);
  host.Str("compiler", __VERSION__);
  return host;
}

}  // namespace perfbench
