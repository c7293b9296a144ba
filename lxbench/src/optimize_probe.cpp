#include <memory>
#include <optional>

#include "abr/hyb.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "probes.h"

namespace lxbench {

using namespace lingxi;

namespace {

constexpr std::uint64_t kProbeStream = 0x4c58'5052'4f42'4500ULL;  // "LXPROBE"

/// Every n-th optimization is re-run from its restored state.
constexpr std::size_t kRerunEvery = 8;

/// Uninstalls the active obs::Registry for its lifetime, so a check's
/// re-run does not count in a traced round's layer timers.
class RegistryPause {
 public:
  RegistryPause() : paused_(obs::Registry::active()) { obs::Registry::install(nullptr); }
  ~RegistryPause() { obs::Registry::install(paused_); }
  RegistryPause(const RegistryPause&) = delete;
  RegistryPause& operator=(const RegistryPause&) = delete;

 private:
  obs::Registry* paused_;
};

/// Everything needed to replay one optimization from its start.
struct Restart {
  core::LingXi::PersistentState lingxi;
  Rng::State rng;
  abr::QoeParams params;
  Seconds buffer = 0.0;
};

/// Drive a LingXi optimization to completion; false when none ran (trigger
/// consumed by the pre-playback pruning rule, or no bandwidth signal).
bool optimize(core::LingXi& lingxi, abr::AbrAlgorithm& abr, Seconds buffer, Rng& rng) {
  const auto run = lingxi.begin_optimization(abr, buffer, rng);
  if (run == nullptr) return false;
  while (!run->step()) {
  }
  return true;
}

}  // namespace

OptimizeProbe::OptimizeProbe(OptimizeProbeConfig config,
                             const predictor::HybridExitPredictor& predictor)
    : config_(std::move(config)),
      predictor_(predictor),
      videos_(config_.video),
      simulator_(config_.session),
      population_(config_.population) {}

void latency_metrics(const std::vector<double>& latency_ms, std::vector<Metric>& out) {
  out.push_back({"optimize_ms_p50", quantile(latency_ms, 0.50), "ms"});
  out.push_back({"optimize_ms_p99", quantile(latency_ms, 0.99), "ms"});
}

ProbeRound OptimizeProbe::run_round(std::uint64_t seed, std::size_t round,
                                    OpLog& ops) const {
  const Stopwatch round_clock;
  ProbeRound out;
  const abr::ParamSpace& space = config_.lingxi.space;
  // Bounded so a build whose users never trigger still finishes its round.
  const std::uint64_t max_users = 64 * static_cast<std::uint64_t>(config_.optimizations);
  std::size_t done = 0;
  for (std::uint64_t user = 0; done < config_.optimizations && user < max_users; ++user) {
    Rng rng(mix_seed(seed, round, kProbeStream | user));
    const auto viewer = population_.sample(rng);
    const trace::NetworkProfile profile = config_.network(rng);
    abr::Hyb abr(config_.lingxi.default_params);
    core::LingXi lingxi(config_.lingxi, predictor_, config_.video.ladder);

    Seconds buffer = 0.0;
    Stopwatch warm;  // one interval per stretch of live sessions, not per session
    bool warming = true;
    for (std::size_t s = 0; s < config_.max_sessions_per_user; ++s) {
      if (!warming) warm = Stopwatch();
      warming = true;
      const trace::Video video = videos_.sample(rng);
      const auto bandwidth = profile.make_session_model();
      lingxi.begin_session();
      const sim::SessionResult session = simulator_.run(video, abr, *bandwidth, viewer.get(), rng);
      for (const auto& seg : session.segments) lingxi.on_segment(seg);
      lingxi.end_session(sim::exited_during_stall(session));
      buffer = session.segments.empty() ? 0.0 : session.segments.back().buffer_after;
      ++out.warmup_sessions;
      if (!lingxi.should_optimize()) continue;
      out.warmup += warm.elapsed();
      warming = false;

      const bool rerun = done % kRerunEvery == 0;
      const Stopwatch check_prep;
      const core::LingXiStats before = lingxi.stats();
      const abr::QoeParams params_before = abr.params();
      std::optional<Restart> restart;
      if (rerun) restart = Restart{lingxi.persistent_state(), rng.state(), params_before, buffer};
      out.check_s += check_prep.elapsed().wall;

      const Stopwatch timed;
      const bool ran = optimize(lingxi, abr, buffer, rng);
      const Interval took = timed.elapsed();
      if (!ran) continue;  // pruned before playback: keep warming this user
      out.optimize += took;
      out.latency_ms.push_back(took.wall * 1e3);

      const Stopwatch checking;
      ops.begin();
      const abr::QoeParams adopted = lingxi.current_params();
      const core::LingXiStats& after = lingxi.stats();
      ops.check(abr.params() == adopted, "optimize: live ABR carries the adopted params");
      ops.check(after.optimizations_run == before.optimizations_run + 1,
                "optimize: one optimization per begin_optimization");
      ops.check(after.mc_evaluations == before.mc_evaluations + config_.lingxi.obo_rounds,
                "optimize: an optimization adds exactly obo_rounds evaluations");
      if (space.optimize_beta) {
        ops.check(adopted.hyb_beta >= space.beta_min && adopted.hyb_beta <= space.beta_max,
                  "optimize: adopted beta inside ParamSpace bounds");
      }
      if (space.optimize_stall) {
        ops.check(adopted.stall_penalty >= space.stall_min &&
                      adopted.stall_penalty <= space.stall_max,
                  "optimize: adopted stall penalty inside ParamSpace bounds");
      } else {
        ops.check(adopted.stall_penalty == params_before.stall_penalty,
                  "optimize: unsearched stall penalty unchanged");
      }
      if (space.optimize_switch) {
        ops.check(adopted.switch_penalty >= space.switch_min &&
                      adopted.switch_penalty <= space.switch_max,
                  "optimize: adopted switch penalty inside ParamSpace bounds");
      } else {
        ops.check(adopted.switch_penalty == params_before.switch_penalty,
                  "optimize: unsearched switch penalty unchanged");
      }
      if (restart) {
        const RegistryPause untraced;
        core::LingXi again(config_.lingxi, predictor_, config_.video.ladder);
        again.restore_persistent(restart->lingxi);
        abr::Hyb abr_again(restart->params);
        Rng rng_again;
        rng_again.restore(restart->rng);
        const bool reran = optimize(again, abr_again, restart->buffer, rng_again);
        ops.check(reran && again.current_params() == adopted &&
                      abr_again.params() == abr.params(),
                  "optimize: re-run from restored PersistentState + rng adopts the "
                  "same params");
      }
      const double values[3] = {adopted.stall_penalty, adopted.switch_penalty,
                                adopted.hyb_beta};
      out.checksum = crc32_update(out.checksum, values, sizeof(values));
      out.checksum = crc32_update(out.checksum, &after, sizeof(after));
      out.check_s += checking.elapsed().wall;
      ++done;
      break;
    }
    if (warming) out.warmup += warm.elapsed();
  }
  for (; done < config_.optimizations; ++done) {
    ops.begin();
    ops.check(false, "optimize: no user triggered an optimization");
  }
  out.wall_s = round_clock.elapsed().wall;
  return out;
}

}  // namespace lxbench
