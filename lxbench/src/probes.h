// Probes shared by the workloads: one-user-at-a-time LingXi optimizations
// (the user_optimize workload, and the optimization-latency section of the
// fleet workloads), and the exit-net reference check plus forward timing of
// the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "abr/qoe.h"
#include "core/lingxi.h"
#include "harness.h"
#include "sim/session.h"
#include "trace/population.h"
#include "trace/video.h"
#include "user/user_population.h"

namespace lxbench {

struct OptimizeProbeConfig {
  lingxi::core::LingXiConfig lingxi;
  lingxi::trace::VideoGenerator::Config video;
  lingxi::sim::SessionSimulator::Config session;
  lingxi::user::UserPopulation::Config population;
  /// Draws one user's network profile.
  std::function<lingxi::trace::NetworkProfile(lingxi::Rng&)> network;
  /// Optimizations per round, one per user.
  std::size_t optimizations = 250;
  /// Live sessions a user may play without triggering before the next
  /// user is drawn.
  std::size_t max_sessions_per_user = 256;
};

/// Stats of one probe round.
struct ProbeRound {
  std::uint32_t checksum = 0;
  std::vector<double> latency_ms;  ///< one per optimization, in order
  Interval warmup;                 ///< live sessions fed to LingXi
  std::uint64_t warmup_sessions = 0;
  Interval optimize;               ///< begin_optimization + step() until done
  double check_s = 0.0;            ///< wall spent on checks (not part of the result)
  double wall_s = 0.0;             ///< whole round, checks included
};

/// Warms users one at a time with live sessions through
/// LingXi::begin_session/on_segment/end_session until should_optimize()
/// holds, then times begin_optimization() plus step() until done. No pool:
/// each optimization flushes its own predictor queries.
class OptimizeProbe {
 public:
  /// `predictor` is borrowed and must outlive the probe.
  OptimizeProbe(OptimizeProbeConfig config,
                const lingxi::predictor::HybridExitPredictor& predictor);

  /// Optimizations of round `round`; users derive from (seed, round, user).
  /// Each optimization is one operation in `ops`.
  ProbeRound run_round(std::uint64_t seed, std::size_t round, OpLog& ops) const;

  const OptimizeProbeConfig& config() const noexcept { return config_; }

 private:
  OptimizeProbeConfig config_;
  const lingxi::predictor::HybridExitPredictor& predictor_;
  lingxi::trace::VideoGenerator videos_;
  lingxi::sim::SessionSimulator simulator_;
  lingxi::user::UserPopulation population_;
};

/// optimize_ms_p50 / optimize_ms_p99 of the optimizations of a run.
void latency_metrics(const std::vector<double>& latency_ms, std::vector<Metric>& out);

/// Exit-net reference check and forward timing (traced runs only).
struct ExitNetProbe {
  bool shapes_ok = false;         ///< weights() has the documented layer shapes
  bool batch_bitwise = false;     ///< predict_batch rows == one-row calls, bitwise
  double max_ref_diff = 0.0;      ///< max |P(exit) - plain reference forward|
  bool reference_ok = false;      ///< max_ref_diff within kReferenceTolerance
  std::size_t rows = 0;           ///< rows checked
  double ns_per_row_b1 = 0.0;
  double ns_per_row_b64 = 0.0;
  double fc1_macs_per_row = 0.0;
  double weight_bytes_per_forward = 0.0;
};

/// Largest |P(exit)| disagreement with the plain double-precision forward
/// that still passes: loose enough for narrower inference weights or a
/// reordered reduction, far below the ~1e-1 error of a wrong layer.
inline constexpr double kReferenceTolerance = 1e-5;

ExitNetProbe probe_exit_net(const lingxi::predictor::StallExitNet& net, std::uint64_t seed);

}  // namespace lxbench
