// user_optimize: the per-user latency of one LingXi optimization. Users
// (0.8-2 Mbps, so every one of them stalls and triggers) are warmed one at
// a time with live sessions until should_optimize() holds; only
// begin_optimization() plus step() until done is timed, with the Fig. 12
// LingXi settings and no pool. Forwards are one row each, bound by
// streaming the fc1 weights, and GP fit and acquisition sit on the critical
// path — the same predictor/nn layer as lowbw_fleet used differently, so a
// change that raises flush occupancy must show no slowdown here.
#include <optional>

#include "probes.h"

namespace lxbench {
namespace {

using namespace lingxi;

OptimizeProbeConfig user_optimize_config() {
  OptimizeProbeConfig cfg;
  cfg.lingxi.obo_rounds = 5;
  cfg.lingxi.monte_carlo.samples = 8;
  cfg.lingxi.monte_carlo.sample_duration = 30.0;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.network = [](Rng& rng) {
    trace::NetworkProfile profile;
    profile.mean_bandwidth = rng.uniform(800.0, 2000.0);
    profile.relative_sd = 0.35;
    return profile;
  };
  cfg.optimizations = 250;
  return cfg;
}

class UserOptimize final : public Workload {
 public:
  explicit UserOptimize(const RunOptions& options) : options_(options) {}

  const char* name() const override { return "user_optimize"; }

  void setup() override {
    probe_.reset();
    const Stopwatch train;
    predictor_ = bench::train_predictor(kFig12TrainingSeed, 0.7);
    train_s_ = train.elapsed().wall;
    live_predictor_.emplace(predictor_.make());
    probe_ = std::make_unique<OptimizeProbe>(user_optimize_config(), *live_predictor_);
  }

  double train_s() const override { return train_s_; }
  const predictor::StallExitNet& net() const override { return *predictor_.net; }
  std::size_t min_rounds() const override { return 4; }  // >= 1000 latency samples

  RoundOutput round(std::size_t index, bool traced, OpLog& ops) override {
    RoundOutput out;
    std::optional<RegistryScope> registry;
    if (traced) registry.emplace();
    const ProbeRound probe = probe_->run_round(options_.seed, index, ops);
    out.checksum = probe.checksum;
    out.result_s = probe.wall_s - probe.check_s;
    if (!traced) {
      sessions_ += static_cast<double>(probe.warmup_sessions);
      warmup_ += probe.warmup;
      optimize_ += probe.optimize;
      latency_ms_.insert(latency_ms_.end(), probe.latency_ms.begin(), probe.latency_ms.end());
      return out;
    }

    const obs::RegistrySnapshot reg = registry->snapshot();
    const double fit_us = hist_sum(reg, "bayesopt.gp.refit_us");
    const double acquisition_us = hist_sum(reg, "bayesopt.obo.acquisition_us");
    const double rollout_s = probe.optimize.cpu - (fit_us + acquisition_us) * 1e-6;
    const double rounds = counter(reg, "core.optimization.rounds");
    auto& l = out.layers;
    l["sim.session_us"] =
        probe.warmup.wall * 1e6 / static_cast<double>(probe.warmup_sessions);
    l["sim.rollout_cpu_s"] = rollout_s;
    l["bayesopt.gp_fit_us"] = hist_mean(reg, "bayesopt.gp.refit_us");
    l["bayesopt.acquisition_us"] = hist_mean(reg, "bayesopt.obo.acquisition_us");
    l["core.rounds_pruned_ratio"] =
        rounds > 0.0 ? counter(reg, "core.optimization.rounds_pruned") / rounds : 0.0;
    out.phases = {{"sim.warmup (live sessions into LingXi)", probe.warmup.wall},
                  {"core.optimize (begin_optimization + step)", probe.optimize.wall}};
    out.cpu_split = {{"sim.warmup (live sessions into LingXi)", probe.warmup.cpu},
                     {"bayesopt.gp.refit", fit_us * 1e-6},
                     {"bayesopt.obo.acquisition", acquisition_us * 1e-6},
                     {"sim.rollout (MC rollouts incl. one-row exit-net forwards)", rollout_s}};
    return out;
  }

  /// Rates pool the whole run: a round's live sessions take only a few tens
  /// of milliseconds between optimizations, too short to time one by one.
  std::vector<Metric> end_to_end() const override {
    const double optimizations = static_cast<double>(latency_ms_.size());
    std::vector<Metric> out = {
        {"sessions_per_s", sessions_ / warmup_.wall, "sessions/s"},
        {"sessions_per_cpu_s", sessions_ / warmup_.cpu, "sessions/CPU-s"},
        {"optimizations_per_cpu_s", optimizations / (warmup_.cpu + optimize_.cpu), "opt/CPU-s"},
    };
    latency_metrics(latency_ms_, out);
    return out;
  }

 private:
  RunOptions options_;
  bench::TrainedPredictor predictor_;
  double train_s_ = 0.0;
  std::optional<predictor::HybridExitPredictor> live_predictor_;
  std::unique_ptr<OptimizeProbe> probe_;
  // End-to-end totals of the untraced rounds.
  double sessions_ = 0.0;
  Interval warmup_;
  Interval optimize_;
  std::vector<double> latency_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_user_optimize(const RunOptions& options) {
  return std::make_unique<UserOptimize>(options);
}

}  // namespace lxbench
