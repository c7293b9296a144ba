// lowbw_fleet: the low-bandwidth LingXi fleet in the shape of the
// cross-user section of bench_fleet_scaling — 512 users, median 1500 kbps,
// 16 Monte Carlo samples, 4 OBO rounds, cohort waves with pooled exit-net
// flushes of up to 16 rows per optimization, no capture. About one session
// in ten triggers an optimization, so the pooled flush dominates: batching,
// occupancy and fc1 work in predictor/nn show here while telemetry and
// snapshot stay idle.
#include <optional>

#include "common/crc32.h"
#include "fleet.h"

namespace lxbench {
namespace {

using namespace lingxi;

/// The fleet is bench_fleet_scaling's (seed 11); --seed draws the users of
/// the optimization-latency section. The fleet's optimization count, and
/// with it its CPU per session, moves ~15% with the population draw, more
/// than the bounds a code change is judged by.
constexpr std::uint64_t kFleetSeed = 11;

sim::FleetConfig lowbw_config() {
  sim::FleetConfig cfg;
  cfg.users = 512;
  cfg.days = 2;
  cfg.sessions_per_user_day = 8;
  cfg.users_per_shard = 64;
  cfg.threads = kFleetThreads;
  cfg.scheduler = sim::SchedulerMode::kCohortWaves;
  cfg.predictor_batch = 16;
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.network.median_bandwidth = 1500.0;
  cfg.network.sigma = 0.5;
  cfg.network.relative_sd = 0.35;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 4;
  cfg.lingxi.monte_carlo.samples = 16;
  return cfg;
}

class LowbwFleet final : public Workload {
 public:
  explicit LowbwFleet(const RunOptions& options) : options_(options) {}

  const char* name() const override { return "lowbw_fleet"; }

  void setup() override {
    probe_.reset();
    runner_.reset();
    const Stopwatch train;
    predictor_ = bench::train_predictor(kFleetTrainingSeed, 0.25);
    train_s_ = train.elapsed().wall;
    probe_predictor_.emplace(predictor_.make());
    runner_ = std::make_unique<sim::FleetRunner>(config_, hyb_factory());
    runner_->set_predictor_factory([this] { return predictor_.make(); });
    probe_ = std::make_unique<OptimizeProbe>(probe_config_for(config_, 250), *probe_predictor_);
  }

  double train_s() const override { return train_s_; }
  const predictor::StallExitNet& net() const override { return *predictor_.net; }
  std::size_t min_rounds() const override { return 4; }  // >= 1000 latency samples

  RoundOutput round(std::size_t index, bool traced, OpLog& ops) override {
    RoundOutput out;
    std::optional<RegistryScope> registry;
    if (traced) registry.emplace();
    const Stopwatch clock;
    const Stopwatch run_clock;
    const sim::FleetAccumulator acc = runner_->run(kFleetSeed);
    const Interval run = run_clock.elapsed();
    out.result_s = clock.elapsed().wall;
    if (traced) {
      fleet_layers(registry->snapshot(), run, 0.0, out);
      out.phases.emplace_back("sim.fleet_run (FleetRunner::run)", run.wall);
    }
    registry.reset();

    ops.begin();
    check_arm(config_, acc, "lowbw_fleet", ops);
    if (index == 0) first_checksum_ = acc.checksum();
    ops.check(acc.checksum() == first_checksum_,
              "lowbw_fleet: every round reproduces the first round's accumulator");

    const ProbeRound probe = probe_->run_round(options_.seed, index, ops);
    if (!traced) {
      samples_.add(static_cast<double>(acc.sessions),
                   static_cast<double>(acc.lingxi_optimizations), run, probe);
    }
    out.checksum = crc32_update(acc.checksum(), &probe.checksum, sizeof(probe.checksum));
    return out;
  }

  std::vector<Metric> end_to_end() const override { return samples_.metrics(); }

 private:
  RunOptions options_;
  sim::FleetConfig config_ = lowbw_config();
  bench::TrainedPredictor predictor_;
  double train_s_ = 0.0;
  std::optional<predictor::HybridExitPredictor> probe_predictor_;
  std::unique_ptr<sim::FleetRunner> runner_;
  std::unique_ptr<OptimizeProbe> probe_;
  std::uint32_t first_checksum_ = 0;
  FleetSamples samples_;
};

}  // namespace

std::unique_ptr<Workload> make_lowbw_fleet(const RunOptions& options) {
  return std::make_unique<LowbwFleet>(options);
}

}  // namespace lxbench
