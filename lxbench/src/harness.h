// Shared pieces of the LingXi benchmark: clocks, order statistics, the
// operation/check ledger, the predictors' training seeds, the registry scope
// of traced rounds, and the interface every workload implements.
//
// A run is: set-up (repeated, median reported), then whole rounds of the
// workload until the measuring window closes. An untraced run reports the
// end-to-end metrics; a traced run plays one discarded warm-up round, then
// pairs of an untraced and a traced round of the same index, and reports the
// per-layer metrics plus the layer budget. Rounds replay the same inputs for
// a given (seed, round index), so a traced round must reproduce its untraced
// twin's checksum exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"  // bench::train_predictor, the benches' deployed model
#include "obs/metrics.h"
#include "predictor/exit_net.h"

namespace lxbench {

/// Monotonic wall clock, seconds.
double wall_seconds();
/// CPU time of the whole process (every thread), seconds.
double cpu_seconds();

/// Wall and process-CPU time of one stretch of work.
struct Interval {
  double wall = 0.0;
  double cpu = 0.0;
  Interval& operator+=(const Interval& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_seconds()), cpu0_(cpu_seconds()) {}
  Interval elapsed() const { return {wall_seconds() - wall0_, cpu_seconds() - cpu0_}; }

 private:
  double wall0_;
  double cpu0_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ledger of attempted operations. Every check belongs to the operation
/// begun last; an operation with a failed check counts as failed once.
class OpLog {
 public:
  void begin() {
    ++attempted_;
    current_ok_ = true;
  }
  /// Record one property check of the current operation.
  void check(bool ok, const std::string& what);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;
  bool current_ok_ = true;
};

/// Training seeds of the predictors the workloads serve, trained with
/// bench::train_predictor — those of the Fig. 12 bench and of
/// bench_fleet_scaling. They are fixed rather than derived from --seed: the
/// trained net is the deployed model, not an input, and a fixed log gives
/// set-up the same work in every run. --seed drives the simulated users.
inline constexpr std::uint64_t kFig12TrainingSeed = 808;
inline constexpr std::uint64_t kFleetTrainingSeed = 91;

/// Installs a fresh obs::Registry as the process-wide sink for its lifetime,
/// the way the benches' ObsScope does for --metrics-json.
class RegistryScope {
 public:
  RegistryScope() { lingxi::obs::Registry::install(&registry_); }
  ~RegistryScope() { lingxi::obs::Registry::install(nullptr); }
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

  lingxi::obs::RegistrySnapshot snapshot() const { return registry_.snapshot(); }

 private:
  lingxi::obs::Registry registry_;
};

/// Registry reads; 0 when the metric was never recorded.
double hist_sum(const lingxi::obs::RegistrySnapshot& snap, std::string_view name);
double hist_mean(const lingxi::obs::RegistrySnapshot& snap, std::string_view name);
double counter(const lingxi::obs::RegistrySnapshot& snap, std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for archives and checkpoints (inside the checkout).
  std::string work_dir;
};

/// What one round produced.
struct RoundOutput {
  /// Identity of the round's results; equal for equal (seed, round index)
  /// whether traced or not.
  std::uint32_t checksum = 0;
  /// Wall time from the round's start to its answer, excluding checks.
  double result_s = 0.0;
  /// Traced rounds: per-layer values of this round.
  std::map<std::string, double> layers;
  /// Traced rounds: wall seconds of each phase the benchmark timed around
  /// a call into the program, in order; they sum to result_s minus the
  /// unattributed remainder.
  std::vector<std::pair<std::string, double>> phases;
  /// Traced rounds: process-CPU split of the simulate phase by layer.
  std::vector<std::pair<std::string, double>> cpu_split;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Predictor training plus world/runner construction. Called several
  /// times; each call rebuilds from scratch and the last one is used.
  virtual void setup() = 0;
  /// Seconds the last setup() spent training the predictor.
  virtual double train_s() const = 0;
  /// The trained exit net (for the nn probe of the traced run).
  virtual const lingxi::predictor::StallExitNet& net() const = 0;
  /// Rounds a run plays at least, so each per-run statistic has its samples.
  virtual std::size_t min_rounds() const { return 1; }
  /// One whole round. Checks go to `ops`; untraced rounds accumulate the
  /// end-to-end samples that end_to_end() reports.
  virtual RoundOutput round(std::size_t index, bool traced, OpLog& ops) = 0;
  /// End-to-end metrics of the untraced rounds played so far, other than
  /// setup_s, result_s and peak_rss_mb (main() adds those).
  virtual std::vector<Metric> end_to_end() const = 0;
};

std::unique_ptr<Workload> make_ab_replay(const RunOptions& options);
std::unique_ptr<Workload> make_lowbw_fleet(const RunOptions& options);
std::unique_ptr<Workload> make_user_optimize(const RunOptions& options);

/// Fixed worker-thread count of the fleet workloads (never
/// hardware_concurrency, so figures do not depend on the host's core count).
inline constexpr std::size_t kFleetThreads = 4;

}  // namespace lxbench
