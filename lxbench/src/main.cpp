// lxbench — the LingXi benchmark.
//
//   lxbench --workload ab_replay|lowbw_fleet|user_optimize --seed N
//           --seconds S --trace 0|1 --work-dir DIR
//
// Untraced (--trace 0): sets up the workload several times, plays whole
// rounds until S seconds have passed (and at least the workload's minimum),
// and prints every end-to-end metric. Traced (--trace 1): plays one discarded
// warm-up round, then pairs of an untraced and a traced round (under an
// obs::Registry) of the same index, checks that each traced round reproduces
// its untraced twin, runs the exit-net reference check, and prints every
// per-layer metric plus the layer budget as text and JSON. The last
// line of standard output is always the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "nn/dense.h"
#include "obs/sampler.h"
#include "probes.h"

namespace {

using namespace lxbench;

/// Set-ups per run: at least kMinSetups and until kSetupSeconds have
/// passed. setup_s is their median; one set-up takes 10-100 ms.
constexpr std::size_t kMinSetups = 15;
constexpr double kSetupSeconds = 1.5;

struct Args {
  std::string workload;
  RunOptions run;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: lxbench --workload ab_replay|lowbw_fleet|user_optimize --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[i + 1];
    if (std::strcmp(argv[i], "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      char* end = nullptr;
      args.run.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      args.run.seconds = std::strtod(value, nullptr);
      if (!(args.run.seconds > 0.0)) usage("--seconds must be positive");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("--trace 0|1");
      args.run.trace = value[0] == '1';
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      args.run.work_dir = value;
    } else {
      usage("unknown argument");
    }
    ++i;
  }
  if (!have_seed || args.workload.empty() || args.run.work_dir.empty()) {
    usage("--workload, --seed and --work-dir are required");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "ab_replay") return make_ab_replay(args.run);
  if (args.workload == "lowbw_fleet") return make_lowbw_fleet(args.run);
  if (args.workload == "user_optimize") return make_user_optimize(args.run);
  usage("unknown workload");
}

/// Per-layer metrics in report order, with units. A layer that does no work
/// on a workload reports 0 (e.g. telemetry on lowbw_fleet).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.session_us", "us/session"},
    {"sim.rollout_cpu_s", "CPU-s"},
    {"sim.wave.fits_us", "us/wave"},
    {"predictor.flush_us_per_row", "us/row"},
    {"predictor.rows_per_flush", "rows"},
    {"predictor.queries", "count"},
    {"predictor.train_s", "s"},
    {"nn.forward_ns_per_row_b1", "ns/row"},
    {"nn.forward_ns_per_row_b64", "ns/row"},
    {"nn.fc1_macs_per_row", "count"},
    {"nn.weight_bytes_per_forward", "bytes"},
    {"bayesopt.gp_fit_us", "us/fit"},
    {"bayesopt.acquisition_us", "us/sweep"},
    {"core.rounds_pruned_ratio", "ratio"},
    {"telemetry.capture_finish_s", "s"},
    {"telemetry.archive_write_s", "s"},
    {"telemetry.archive_bytes_per_session", "bytes/session"},
    {"telemetry.replay_mb_per_s", "MiB/s"},
    {"snapshot.save_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.load_s", "s"},
    {"snapshot.resume_s", "s"},
    {"unattributed_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

double unattributed(const RoundOutput& r) {
  double timed = 0.0;
  for (const auto& [name, wall] : r.phases) timed += wall;
  return r.result_s - timed;
}

void print_budget(const char* workload, const RoundOutput& r) {
  const double rest = unattributed(r);
  std::printf("\nlayer budget (%s, one traced round)\n", workload);
  std::printf("  wall phases of result_s\n");
  for (const auto& [name, wall] : r.phases) {
    std::printf("    %-58s %10.4f s %6.1f%%\n", name.c_str(), wall, 100.0 * wall / r.result_s);
  }
  std::printf("    %-58s %10.4f s %6.1f%%\n", "unattributed", rest, 100.0 * rest / r.result_s);
  std::printf("    %-58s %10.4f s\n", "result_s", r.result_s);
  std::printf("  process CPU of the simulate/optimize phase, by layer\n");
  for (const auto& [name, cpu] : r.cpu_split) {
    std::printf("    %-58s %10.4f CPU-s\n", name.c_str(), cpu);
  }

  std::printf("{\"schema\": \"lxbench.budget/v1\", \"workload\": \"%s\", \"result_s\": %.17g, "
              "\"phases\": [",
              workload, r.result_s);
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"wall_s\": %.17g}", i ? ", " : "",
                r.phases[i].first.c_str(), r.phases[i].second);
  }
  std::printf("], \"unattributed_s\": %.17g, \"cpu_split\": [", rest);
  for (std::size_t i = 0; i < r.cpu_split.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"cpu_s\": %.17g}", i ? ", " : "",
                r.cpu_split[i].first.c_str(), r.cpu_split[i].second);
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const RunOptions& run = args.run;
  std::error_code ec;
  std::filesystem::create_directories(run.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create work dir %s: %s\n", run.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::unique_ptr<Workload> workload = make_workload(args);

  std::vector<double> setup_s;
  std::vector<double> train_s;
  const double setup_start = wall_seconds();
  while (setup_s.size() < kMinSetups || wall_seconds() - setup_start < kSetupSeconds) {
    const Stopwatch clock;
    workload->setup();
    setup_s.push_back(clock.elapsed().wall);
    train_s.push_back(workload->train_s());
  }
  std::printf("set-up: %zu times, min %.4f s, quartiles %.4f / %.4f / %.4f s, max %.4f s\n",
              setup_s.size(), quantile(setup_s, 0.0), quantile(setup_s, 0.25), median(setup_s),
              quantile(setup_s, 0.75), quantile(setup_s, 1.0));

  bool correct = true;
  OpLog ops;
  std::vector<RoundOutput> rounds;
  // Traced runs: the untraced twin of each traced round, played just before it.
  std::vector<RoundOutput> twins;
  if (run.trace) workload->round(0, false, ops);  // warm-up: first touches of fresh buffers
  const double window_start = wall_seconds();
  for (std::size_t r = 0;
       r < workload->min_rounds() || wall_seconds() - window_start < run.seconds; ++r) {
    if (run.trace) {
      twins.push_back(workload->round(r, false, ops));
      std::printf("round %zu untraced: result_s %.4f checksum 0x%08x\n", r,
                  twins.back().result_s, twins.back().checksum);
    }
    rounds.push_back(workload->round(r, run.trace, ops));
    std::printf("round %zu%s: result_s %.4f checksum 0x%08x\n", r,
                run.trace ? " traced" : "", rounds.back().result_s, rounds.back().checksum);
  }
  std::printf("%s: seed %llu, %zu rounds, %llu operations, %llu failed\n", workload->name(),
              static_cast<unsigned long long>(run.seed), rounds.size(),
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()));

  std::vector<double> result_s;
  for (const RoundOutput& r : rounds) result_s.push_back(r.result_s);
  std::vector<Metric> metrics;
  if (!run.trace) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"result_s", median(result_s), "s"});
    for (Metric& m : workload->end_to_end()) metrics.push_back(std::move(m));
    metrics.push_back({"peak_rss_mb",
                       static_cast<double>(lingxi::obs::process_peak_rss_bytes()) / (1 << 20),
                       "MiB"});
  } else {
    std::size_t differ = 0;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      if (rounds[r].checksum != twins[r].checksum) ++differ;
    }
    std::printf("traced vs untraced checksums: %zu of %zu rounds differ\n", differ,
                rounds.size());
    correct = correct && differ == 0;

    const ExitNetProbe net = probe_exit_net(workload->net(), run.seed);
    std::printf("dense kernel ISA: %s\n", lingxi::nn::dense_isa_name(lingxi::nn::dense_isa()));
    std::printf("exit net: layer shapes %s; predict_batch rows == one-row calls bitwise: %s; "
                "max |P - reference| over %zu rows = %.3g (tolerance %.0e): %s\n",
                net.shapes_ok ? "ok" : "UNEXPECTED", net.batch_bitwise ? "yes" : "NO",
                net.rows, net.max_ref_diff, kReferenceTolerance,
                net.reference_ok ? "ok" : "MISMATCH");
    correct = correct && net.shapes_ok && net.batch_bitwise && net.reference_ok;

    std::map<std::string, std::vector<double>> layers;
    for (const RoundOutput& r : rounds) {
      for (const auto& [name, value] : r.layers) layers[name].push_back(value);
      layers["unattributed_s"].push_back(unattributed(r));
    }
    layers["predictor.train_s"] = train_s;
    layers["nn.forward_ns_per_row_b1"] = {net.ns_per_row_b1};
    layers["nn.forward_ns_per_row_b64"] = {net.ns_per_row_b64};
    layers["nn.fc1_macs_per_row"] = {net.fc1_macs_per_row};
    layers["nn.weight_bytes_per_forward"] = {net.weight_bytes_per_forward};
    std::vector<double> untraced_s;
    for (const RoundOutput& r : twins) untraced_s.push_back(r.result_s);
    layers["trace.overhead_ratio"] = {median(result_s) / median(untraced_s) - 1.0};
    std::printf("tracing overhead: result_s median %.4f s traced vs %.4f s untraced "
                "(%zu alternating pairs)\n",
                median(result_s), median(untraced_s), rounds.size());
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : median(it->second), unit});
    }
    print_budget(workload->name(), rounds.back());
  }

  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::filesystem::remove_all(run.work_dir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
