// ab_replay: the Fig. 12 protocol. A mixed-bandwidth population (median
// 4000 kbps) runs 5 AA days then 5 AB days with HYB's beta tuned; both arms
// are captured, archived and replayed into the DiD table. The treatment arm
// also cuts a mid-run auto-checkpoint, which is loaded and resumed to the
// horizon. LingXi seldom triggers here (~42 optimizations per 48k sessions,
// pooled flushes of ~1 row), so the work falls on the live session loop,
// capture/archive/replay and checkpoint save/load — the workload on which a
// predictor or optimizer change should show no change.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <type_traits>

#include "analytics/experiment.h"
#include "common/crc32.h"
#include "fleet.h"
#include "snapshot/checkpoint.h"
#include "stats/did.h"
#include "telemetry/capture.h"
#include "telemetry/replay.h"

namespace lxbench {
namespace {

using namespace lingxi;
namespace fs = std::filesystem;

/// The simulated fleet is the Fig. 12 bench's own (seed 31337); --seed draws
/// the users of the optimization-latency section. Population draws swing
/// this fleet's work by a factor of two (16 to 141 optimizations per arm
/// over seeds 1-6, from a handful of users in the low-bandwidth tail), so a
/// per-seed fleet would make every rate measure the draw, not the code.
constexpr std::uint64_t kFleetSeed = 31337;

/// Optimizations in each round's latency section. This fleet's latencies are
/// heavy-tailed (p99 ~18x p50), so its percentiles need more samples per run
/// than the other workloads' to repeat across runs.
constexpr std::size_t kLatencyOptimizations = 500;

sim::FleetConfig fig12_config() {
  sim::FleetConfig cfg;
  cfg.users = 400;
  cfg.days = 10;
  cfg.sessions_per_user_day = 12;
  cfg.intervention_day = 5;
  cfg.threads = kFleetThreads;
  cfg.drift_user_tolerance = true;
  cfg.network.median_bandwidth = 4000.0;
  cfg.network.sigma = 0.8;
  cfg.lingxi.obo_rounds = 5;
  cfg.lingxi.monte_carlo.samples = 8;
  cfg.lingxi.monte_carlo.sample_duration = 30.0;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.fixed_params = cfg.lingxi.default_params;
  return cfg;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Wall-clock phases of one round, in the order they run, plus the time
/// spent computing check values, which is not part of the result.
class Phases {
 public:
  template <typename F>
  auto time(const char* name, F&& work) {
    const Stopwatch clock;
    if constexpr (std::is_void_v<decltype(work())>) {
      work();
      add(name, clock.elapsed());
    } else {
      auto result = work();
      add(name, clock.elapsed());
      return result;
    }
  }
  template <typename F>
  auto check(F&& work) {
    const Stopwatch clock;
    auto result = work();
    check_s_ += clock.elapsed().wall;
    return result;
  }
  double check_s() const noexcept { return check_s_; }
  Interval total(const std::string& name) const {
    Interval sum;
    for (const auto& [n, t] : entries_) {
      if (n == name) sum += t;
    }
    return sum;
  }
  std::vector<std::pair<std::string, double>> wall() const {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [n, t] : entries_) {
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) { return e.first == n; });
      if (it == out.end()) {
        out.emplace_back(n, t.wall);
      } else {
        it->second += t.wall;
      }
    }
    return out;
  }

 private:
  void add(const char* name, const Interval& t) { entries_.emplace_back(name, t); }
  std::vector<std::pair<std::string, Interval>> entries_;
  double check_s_ = 0.0;
};

// Wall-clock phases of a round, each timed around calls into the program.
constexpr const char* kControlRun = "sim.fleet_run control";
constexpr const char* kTreatmentRun = "sim.fleet_run treatment (+ auto-checkpoint)";
constexpr const char* kFinish = "telemetry.capture_finish (ShardedCapture::finish)";
constexpr const char* kWrite = "telemetry.archive_write (FleetArchive::write)";
constexpr const char* kReplay = "telemetry.replay (Replay::run)";
constexpr const char* kRelease = "telemetry.release (free capture + archive buffers)";
constexpr const char* kLoad = "snapshot.load (find_latest_valid)";
constexpr const char* kRestore = "snapshot.restore (check + restore_capture)";
constexpr const char* kResume = "snapshot.resume (run_days to the horizon)";
constexpr const char* kDid = "analytics.did (daily gaps + DiD)";

/// One arm's capture, archive and replay.
struct ArmOutput {
  sim::FleetAccumulator live;
  std::uint32_t archive_checksum = 0;
  std::uint64_t archive_bytes = 0;
  Status written;
  std::optional<Expected<telemetry::ReplayResult>> replay;
};

class AbReplay final : public Workload {
 public:
  explicit AbReplay(const RunOptions& options) : options_(options) {}

  const char* name() const override { return "ab_replay"; }

  void setup() override {
    probe_.reset();
    treatment_.reset();
    control_.reset();
    const Stopwatch train;
    predictor_ = bench::train_predictor(kFig12TrainingSeed, 0.7);
    train_s_ = train.elapsed().wall;
    probe_predictor_.emplace(predictor_.make());

    sim::FleetConfig control_cfg = config_;
    control_cfg.enable_lingxi = false;
    control_ = std::make_unique<sim::FleetRunner>(control_cfg, hyb_factory());
    sim::FleetConfig treatment_cfg = config_;
    treatment_cfg.enable_lingxi = true;
    treatment_ = std::make_unique<sim::FleetRunner>(treatment_cfg, hyb_factory());
    treatment_->set_predictor_factory(factory());
    probe_ = std::make_unique<OptimizeProbe>(probe_config_for(treatment_cfg, kLatencyOptimizations), *probe_predictor_);
  }

  double train_s() const override { return train_s_; }
  const predictor::StallExitNet& net() const override { return *predictor_.net; }
  std::size_t min_rounds() const override { return 4; }  // >= 1000 latency samples

  RoundOutput round(std::size_t index, bool traced, OpLog& ops) override {
    const std::string root = options_.work_dir + "/ab_replay";
    std::error_code ec;
    fs::remove_all(root, ec);
    const std::string checkpoints = root + "/treatment-checkpoints";

    RoundOutput out;
    Phases phases;
    Interval run;  // the FleetRunner calls
    std::optional<RegistryScope> registry;
    if (traced) registry.emplace();
    const Stopwatch clock;

    std::optional<telemetry::ShardedCapture> capture(std::in_place);
    ArmOutput control = run_arm(*control_, *capture, root + "/control", phases, run);
    phases.time(kRelease, [&] { capture.reset(); });

    snapshot::CheckpointPolicy policy;
    policy.root = checkpoints;
    policy.every_k_days = config_.intervention_day;
    policy.retain = 1;
    ArmOutput treatment;
    std::optional<Status> checkpoint_status;
    capture.emplace();
    {
      snapshot::AutoCheckpointer checkpointer(*treatment_, kFleetSeed, policy, &*capture);
      checkpointer.arm(*treatment_);
      treatment = run_arm(*treatment_, *capture, root + "/treatment", phases, run);
      treatment_->set_checkpoint_hook(nullptr, 0);
      checkpoint_status = checkpointer.status();
    }
    phases.time(kRelease, [&] { capture.reset(); });

    auto recovered =
        phases.time(kLoad, [&] { return snapshot::find_latest_valid(checkpoints); });
    std::optional<sim::FleetAccumulator> resumed;
    std::uint32_t resumed_archive = 0;
    std::uint64_t resumed_sessions = 0;
    std::uint64_t resumed_optimizations = 0;
    Status resume_status;
    if (recovered) {
      snapshot::FleetSnapshot& snap = recovered->snapshot;
      const std::uint64_t sessions_before = snap.state.accumulated.sessions;
      std::uint64_t optimizations_before = 0;
      for (const auto& user : snap.state.users) {
        optimizations_before += user.lingxi.stats.optimizations_run;
      }
      const std::size_t resume_day = snap.state.next_day;
      sim::FleetConfig cfg = treatment_->config();
      capture.emplace();
      std::optional<sim::FleetRunner> runner;
      resume_status = phases.time(kRestore, [&] {
        if (auto s = snapshot::check_compatible(snap, cfg, kFleetSeed); !s) return s;
        runner.emplace(cfg, hyb_factory());
        runner->set_predictor_factory(
            snapshot::resume_predictor_factory(factory(), snap.net_model));
        runner->set_telemetry_sink(&*capture);
        return snapshot::restore_capture(*capture, cfg, snap.seed, std::move(snap.capture));
      });
      if (resume_status) {
        const Stopwatch resume_clock;
        resumed = phases.time(kResume, [&] {
          return runner->run_days(kFleetSeed, resume_day, cfg.days, &snap.state);
        });
        run += resume_clock.elapsed();
        const telemetry::FleetArchive archive =
            phases.time(kFinish, [&] { return capture->finish(); });
        resumed_archive = phases.check([&] { return archive.checksum(); });
        resumed_sessions = resumed->sessions - sessions_before;
        resumed_optimizations = resumed->lingxi_optimizations - optimizations_before;
      }
      runner.reset();
      phases.time(kRelease, [&] { capture.reset(); });
    }

    struct Did {
      std::vector<double> gaps;
      stats::DidResult did;
    };
    std::vector<Did> table;
    const bool replays_ok = control.replay && *control.replay && treatment.replay &&
                            *treatment.replay;
    if (replays_ok) {
      phases.time(kDid, [&] {
        using Fn = double (analytics::MetricAccumulator::*)() const;
        const Fn metrics[3] = {&analytics::MetricAccumulator::total_watch_time,
                               &analytics::MetricAccumulator::mean_bitrate,
                               &analytics::MetricAccumulator::total_stall_time};
        for (const Fn fn : metrics) {
          Did row;
          row.gaps = analytics::relative_daily_gap((*treatment.replay)->daily,
                                                   (*control.replay)->daily, fn);
          const auto split = row.gaps.begin() + static_cast<long>(config_.intervention_day);
          const std::vector<double> pre(row.gaps.begin(), split);
          const std::vector<double> post(split, row.gaps.end());
          row.did = stats::difference_in_differences(pre, post);
          table.push_back(std::move(row));
        }
      });
    }
    out.result_s = clock.elapsed().wall - phases.check_s();
    const obs::RegistrySnapshot reg = traced ? registry->snapshot() : obs::RegistrySnapshot{};
    registry.reset();

    // --- checks (outside result_s) -----------------------------------------
    ops.begin();
    check_arm(control_->config(), control.live, "ab_replay control", ops);
    ops.begin();
    check_replay(control, "ab_replay control", ops);
    ops.begin();
    check_arm(treatment_->config(), treatment.live, "ab_replay treatment", ops);
    ops.check(checkpoint_status && *checkpoint_status,
              "ab_replay: the mid-run auto-checkpoint commits");
    ops.begin();
    check_replay(treatment, "ab_replay treatment", ops);
    ops.begin();
    ops.check(static_cast<bool>(recovered), "ab_replay: find_latest_valid recovers the checkpoint");
    ops.check(recovered && recovered->snapshot.state.next_day == config_.intervention_day,
              "ab_replay: the checkpoint is cut at the intervention day");
    ops.begin();
    ops.check(resume_status && resumed.has_value(), "ab_replay: the checkpoint resumes");
    ops.check(resumed && resumed->checksum() == treatment.live.checksum(),
              "ab_replay: resumed treatment accumulator == uninterrupted one");
    ops.check(resumed && resumed_archive == treatment.archive_checksum,
              "ab_replay: resumed treatment archive bytes == uninterrupted ones");
    ops.begin();
    ops.check(table.size() == 3, "ab_replay: DiD table built from both replays");
    for (const Did& row : table) {
      for (std::size_t d = 0; d < config_.intervention_day && d < row.gaps.size(); ++d) {
        ops.check(row.gaps[d] == 0.0, "ab_replay: AA-day relative gap is exactly 0");
      }
    }
    const std::uint32_t checksum = crc32_update(
        control.live.checksum(), &treatment.archive_checksum, sizeof(treatment.archive_checksum));
    if (index == 0) first_checksum_ = checksum;
    ops.check(checksum == first_checksum_,
              "ab_replay: every round reproduces the first round's results");

    const double checkpoint_bytes =
        recovered ? static_cast<double>(directory_bytes(recovered->dir)) : 0.0;
    fs::remove_all(root, ec);
    const ProbeRound probe = probe_->run_round(options_.seed, index, ops);
    out.checksum = crc32_update(checksum, &probe.checksum, sizeof(probe.checksum));

    const double sessions = static_cast<double>(control.live.sessions +
                                                treatment.live.sessions + resumed_sessions);
    const double optimizations =
        static_cast<double>(treatment.live.lingxi_optimizations + resumed_optimizations);
    if (!traced) {
      samples_.add(sessions, optimizations, run, probe);
      return out;
    }

    fleet_layers(reg, run, hist_sum(reg, "snapshot.save.total_us"), out);
    const double archive_bytes =
        static_cast<double>(control.archive_bytes + treatment.archive_bytes);
    const double replay_s = phases.total(kReplay).wall;
    auto& l = out.layers;
    l["telemetry.capture_finish_s"] = phases.total(kFinish).wall;
    l["telemetry.archive_write_s"] = phases.total(kWrite).wall;
    l["telemetry.archive_bytes_per_session"] =
        archive_bytes / static_cast<double>(control.live.sessions + treatment.live.sessions);
    l["telemetry.replay_mb_per_s"] =
        replay_s > 0.0 ? archive_bytes / (1024.0 * 1024.0) / replay_s : 0.0;
    l["snapshot.save_s"] = hist_sum(reg, "snapshot.save.total_us") * 1e-6;
    l["snapshot.bytes"] = checkpoint_bytes;
    l["snapshot.load_s"] = phases.total(kLoad).wall;
    l["snapshot.resume_s"] = phases.total(kResume).wall;
    out.phases = phases.wall();
    return out;
  }

  std::vector<Metric> end_to_end() const override { return samples_.metrics(); }

 private:
  sim::FleetRunner::PredictorFactory factory() const {
    return [this] { return predictor_.make(); };
  }

  /// Simulate one arm with capture, then archive and replay it.
  ArmOutput run_arm(sim::FleetRunner& runner, telemetry::ShardedCapture& capture,
                    const std::string& dir, Phases& phases, Interval& run) {
    runner.set_telemetry_sink(&capture);
    ArmOutput out;
    const bool treatment = runner.config().enable_lingxi;
    const Stopwatch run_clock;
    out.live = phases.time(treatment ? kTreatmentRun : kControlRun,
                           [&] { return runner.run(kFleetSeed); });
    run += run_clock.elapsed();
    runner.set_telemetry_sink(nullptr);
    telemetry::FleetArchive archive = phases.time(kFinish, [&] { return capture.finish(); });
    out.archive_checksum = phases.check([&] { return archive.checksum(); });
    out.archive_bytes = archive.total_bytes();
    out.written = phases.time(kWrite, [&] { return archive.write(dir); });
    if (out.written) {
      out.replay = phases.time(kReplay, [&] { return telemetry::Replay::run(dir); });
    }
    phases.time(kRelease, [&] { archive = telemetry::FleetArchive(); });
    return out;
  }

  static void check_replay(const ArmOutput& arm, const std::string& name, OpLog& ops) {
    ops.check(static_cast<bool>(arm.written), name + ": archive written");
    const bool replayed = arm.replay && *arm.replay;
    ops.check(replayed, name + ": archive replays");
    ops.check(replayed && (*arm.replay)->fleet.checksum() == arm.live.checksum(),
              name + ": replayed accumulator == live accumulator");
  }

  RunOptions options_;
  sim::FleetConfig config_ = fig12_config();
  bench::TrainedPredictor predictor_;
  double train_s_ = 0.0;
  std::optional<predictor::HybridExitPredictor> probe_predictor_;
  std::unique_ptr<sim::FleetRunner> control_;
  std::unique_ptr<sim::FleetRunner> treatment_;
  std::unique_ptr<OptimizeProbe> probe_;
  std::uint32_t first_checksum_ = 0;
  FleetSamples samples_;
};

}  // namespace

std::unique_ptr<Workload> make_ab_replay(const RunOptions& options) {
  return std::make_unique<AbReplay>(options);
}

}  // namespace lxbench
