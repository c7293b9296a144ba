// Helpers shared by the two fleet workloads (ab_replay, lowbw_fleet).
#pragma once

#include <vector>

#include "harness.h"
#include "probes.h"
#include "sim/fleet_runner.h"

namespace lxbench {

/// The fleet's ABR: HYB, whose beta LingXi tunes in the production A/B test.
lingxi::sim::FleetRunner::AbrFactory hyb_factory();

/// Settings of the optimization-latency section each fleet round ends with:
/// `optimizations` one-user optimizations with the fleet's own LingXi
/// config (and lockstep batch), video, session, user and network models.
OptimizeProbeConfig probe_config_for(const lingxi::sim::FleetConfig& fleet,
                                     std::size_t optimizations);

/// Properties every simulated arm must have. `arm` prefixes the messages.
void check_arm(const lingxi::sim::FleetConfig& config, const lingxi::sim::FleetAccumulator& acc,
               const std::string& arm, OpLog& ops);

/// Per-layer values of a traced simulate phase. `run` is the process-CPU
/// and wall of the FleetRunner calls; `other_timed_us` is time the registry
/// timed inside those calls outside the session/flush/fit layers (e.g. a
/// checkpoint save), kept out of the rollout remainder.
void fleet_layers(const lingxi::obs::RegistrySnapshot& snap, const Interval& run,
                  double other_timed_us, RoundOutput& out);

/// End-to-end samples of the untraced rounds of a fleet workload.
struct FleetSamples {
  std::vector<double> sessions_per_s;
  std::vector<double> sessions_per_cpu_s;
  std::vector<double> optimizations_per_cpu_s;
  std::vector<double> latency_ms;

  void add(double sessions, double optimizations, const Interval& run,
           const ProbeRound& probe);
  std::vector<Metric> metrics() const;
};

}  // namespace lxbench
