#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace lxbench {

using namespace lingxi;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void OpLog::check(bool ok, const std::string& what) {
  if (ok) return;
  if (current_ok_) ++failed_;
  current_ok_ = false;
  // The first few failures are enough to diagnose; the count carries the rest.
  if (reported_++ < 8) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double hist_sum(const obs::RegistrySnapshot& snap, std::string_view name) {
  const obs::MetricSnapshot* m = snap.find(name);
  return m != nullptr ? m->value : 0.0;
}

double counter(const obs::RegistrySnapshot& snap, std::string_view name) {
  const obs::MetricSnapshot* m = snap.find(name);
  return m != nullptr ? static_cast<double>(m->count) : 0.0;  // histograms: count
}

double hist_mean(const obs::RegistrySnapshot& snap, std::string_view name) {
  const double n = counter(snap, name);
  return n > 0.0 ? hist_sum(snap, name) / n : 0.0;
}

}  // namespace lxbench
