#include "fleet.h"

#include "abr/hyb.h"

namespace lxbench {

using namespace lingxi;

sim::FleetRunner::AbrFactory hyb_factory() {
  return [] { return std::make_unique<abr::Hyb>(); };
}

OptimizeProbeConfig probe_config_for(const sim::FleetConfig& fleet,
                                     std::size_t optimizations) {
  OptimizeProbeConfig probe;
  probe.lingxi = fleet.lingxi;
  if (fleet.predictor_batch != 0) probe.lingxi.monte_carlo.batch_size = fleet.predictor_batch;
  probe.video = fleet.video;
  probe.session = fleet.session;
  probe.population = fleet.population;
  // Only users whose mean bandwidth sits below the ladder top stall often
  // enough to trigger; drawing the rest would spend the probe warming users
  // the fleet never optimizes.
  probe.network = [model = trace::PopulationModel(fleet.network),
                   top = fleet.video.ladder.max_bitrate()](Rng& rng) {
    trace::NetworkProfile profile = model.sample(rng);
    while (profile.mean_bandwidth >= top) profile = model.sample(rng);
    return profile;
  };
  probe.optimizations = optimizations;
  // A user who does not trigger within the fleet's calendar would not be
  // optimized by the fleet either.
  probe.max_sessions_per_user = fleet.days * fleet.sessions_per_user_day;
  return probe;
}

void check_arm(const sim::FleetConfig& config, const sim::FleetAccumulator& acc,
               const std::string& arm, OpLog& ops) {
  const std::uint64_t expected = static_cast<std::uint64_t>(config.users) * config.days *
                                 config.sessions_per_user_day;
  ops.check(acc.sessions == expected, arm + ": simulates users x days x sessions_per_user_day");
  ops.check(acc.users == config.users, arm + ": one summary per user");
  ops.check(!acc.has_overflow(), arm + ": no fixed-point overflow");
  ops.check(acc.lingxi_mc_evaluations == acc.lingxi_optimizations * config.lingxi.obo_rounds,
            arm + ": mc evaluations == optimizations x obo_rounds");
  const trace::BitrateLadder& ladder = config.video.ladder;
  const double bitrate = acc.mean_bitrate();
  ops.check(bitrate >= ladder.min_bitrate() && bitrate <= ladder.max_bitrate(),
            arm + ": mean bitrate inside the ladder");
  ops.check(acc.stall_exits <= acc.stall_events, arm + ": stall exits <= stall events");
  ops.check(acc.completed <= acc.sessions, arm + ": completed <= sessions");
}

void fleet_layers(const obs::RegistrySnapshot& snap, const Interval& run,
                  double other_timed_us, RoundOutput& out) {
  const double session_us = hist_sum(snap, "sim.session.step_us");
  const double flush_us = hist_sum(snap, "sim.wave.flush_us");
  const double fits_us = hist_sum(snap, "sim.wave.fits_us");
  const double rollout_s = run.cpu - (session_us + flush_us + fits_us + other_timed_us) * 1e-6;
  const double queries = counter(snap, "predictor.pool.queries");
  const double flushes = counter(snap, "predictor.pool.flushes");
  const double rounds = counter(snap, "core.optimization.rounds");

  auto& l = out.layers;
  l["sim.session_us"] = hist_mean(snap, "sim.session.step_us");
  l["sim.rollout_cpu_s"] = rollout_s;
  l["sim.wave.fits_us"] = hist_mean(snap, "sim.wave.fits_us");
  l["predictor.flush_us_per_row"] =
      queries > 0.0 ? hist_sum(snap, "predictor.pool.flush_us") / queries : 0.0;
  l["predictor.rows_per_flush"] = flushes > 0.0 ? queries / flushes : 0.0;
  l["predictor.queries"] = queries;
  l["bayesopt.gp_fit_us"] = hist_mean(snap, "bayesopt.gp.refit_us");
  l["bayesopt.acquisition_us"] = hist_mean(snap, "bayesopt.obo.acquisition_us");
  l["core.rounds_pruned_ratio"] =
      rounds > 0.0 ? counter(snap, "core.optimization.rounds_pruned") / rounds : 0.0;

  out.cpu_split.emplace_back("sim.session (live sessions)", session_us * 1e-6);
  out.cpu_split.emplace_back("sim.wave.flush (pooled exit-net flushes)", flush_us * 1e-6);
  out.cpu_split.emplace_back("sim.wave.fits (pooled GP fits)", fits_us * 1e-6);
  if (other_timed_us > 0.0) {
    out.cpu_split.emplace_back("snapshot.save (auto-checkpoint)", other_timed_us * 1e-6);
  }
  out.cpu_split.emplace_back("sim.rollout (MC stepping, wave bookkeeping, rest)", rollout_s);
}

void FleetSamples::add(double sessions, double optimizations, const Interval& run,
                       const ProbeRound& probe) {
  sessions_per_s.push_back(sessions / run.wall);
  sessions_per_cpu_s.push_back(sessions / run.cpu);
  optimizations_per_cpu_s.push_back(optimizations / run.cpu);
  latency_ms.insert(latency_ms.end(), probe.latency_ms.begin(), probe.latency_ms.end());
}

std::vector<Metric> FleetSamples::metrics() const {
  std::vector<Metric> out = {
      {"sessions_per_s", median(sessions_per_s), "sessions/s"},
      {"sessions_per_cpu_s", median(sessions_per_cpu_s), "sessions/CPU-s"},
      {"optimizations_per_cpu_s", median(optimizations_per_cpu_s), "opt/CPU-s"},
  };
  latency_metrics(latency_ms, out);
  return out;
}

}  // namespace lxbench
