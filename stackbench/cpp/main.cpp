// stackbench: one command for the serving-stack benchmark.
//
//   stackbench --workload <ingest_http|lrb_adaptive|scan_under_ingest>
//              --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//              [--git-rev <rev>] [--short]
//
// Every result line must carry every metric, so every run executes all three
// phases; --workload picks the focus phase, which gets half of the --seconds
// window (the other two a quarter each). The phases' stacks are built first,
// then their timed stretches alternate over kRounds rounds, so a burst of
// noise from the host lands on all phases alike instead of on one. --trace 0
// measures the end-to-end metrics; --trace 1 makes an untraced and then a
// traced pass (half the window each), reports the per-layer metrics and the
// tracing overhead, and writes the spans to <work-dir>/results/. The last
// stdout line is the result object; the exit code is non-zero when a
// correctness check failed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "phases.h"

namespace stackbench {

wms::WorkflowSpec traced_steps(const wms::WorkflowSpec& spec, SpanLog& spans,
                               const std::atomic<std::uint64_t>* parent) {
  if (!spans.enabled()) return spec;
  std::vector<wms::StepSpec> steps = spec.steps();
  for (wms::StepSpec& step : steps) {
    step.fn = [inner = step.fn, name = "wms.step:" + step.id, &spans,
               parent](wms::StepContext& context) {
      const auto a = Clock::now();
      inner(context);
      spans.record(name, "wms", parent->load(std::memory_order_relaxed), a, Clock::now());
    };
  }
  return wms::WorkflowSpec(spec.name(), std::move(steps));
}

double critical_path_ms(const wms::WorkflowSpec& spec,
                        const std::vector<std::chrono::nanoseconds>& durations) {
  double total = 0.0;
  for (const auto& level : spec.levels()) {
    std::chrono::nanoseconds slowest{0};
    for (const std::size_t i : level) slowest = std::max(slowest, durations[i]);
    total += std::chrono::duration<double, std::milli>(slowest).count();
  }
  return total;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string work_dir = ".bench_build";
  std::string git_rev = "unknown";
};

const char* const kPhases[] = {"ingest_http", "lrb_adaptive", "scan_under_ingest"};
constexpr int kSetupReps = 3;
// Timed stretches per phase, interleaved round-robin across the run.
constexpr int kRounds = 5;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\nusage: stackbench --workload <ingest_http|lrb_adaptive|"
               "scan_under_ingest> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--git-rev <rev>] [--short]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::find(std::begin(kPhases), std::end(kPhases), args.workload) == std::end(kPhases)) {
    usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Builds the three phases (their set-ups run here, in order), interleaves
/// their timed stretches over `rounds` rounds, then finishes each. Returns
/// the sum of the phases' median set-up times; `headlines` gets each
/// phase's headline p50.
double run_phases(const Args& args, double seconds, SpanLog& spans, Report& report,
                  const std::string& data_dir, std::vector<double>& headlines) {
  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<double> shares;
  for (const char* name : kPhases) {
    PhaseConfig config;
    config.seed = args.seed;
    shares.push_back(args.workload == name ? 0.5 : 0.25);
    config.seconds = seconds * shares.back();
    config.setup_reps = args.short_mode ? 1 : kSetupReps;
    config.short_mode = args.short_mode;
    config.data_dir = data_dir;
    const std::string phase = name;
    phases.push_back(phase == "ingest_http"    ? make_ingest_http(config, spans, report)
                     : phase == "lrb_adaptive" ? make_lrb_adaptive(config, spans, report)
                                               : make_scan_under_ingest(config, spans, report));
  }
  const int rounds = args.short_mode ? 2 : kRounds;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < phases.size(); ++i) phases[i]->run(seconds * shares[i] / rounds);
  }
  double setup_s = 0.0;
  for (const auto& phase : phases) {
    phase->finish();
    setup_s += median(phase->setup_s());
    headlines.push_back(phase->headline_p50_ms());
  }
  return setup_s;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::string data_dir = args.work_dir + "/data-" + std::to_string(::getpid());
  const std::string results_dir = args.work_dir + "/results";
  std::filesystem::create_directories(data_dir);
  std::filesystem::create_directories(results_dir);

  Report report;
  SpanLog untraced(false);
  SpanLog traced(args.trace);
  double setup_s = 0.0;
  double peak_mb = 0.0;
  std::string overheads = "{";
  try {
    // The traced run splits the window: an untraced pass (end-to-end
    // figures, the overhead baseline), then a traced one.
    const double seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    std::vector<double> plain, with_spans;
    setup_s = run_phases(args, seconds, untraced, report, data_dir, plain);
    peak_mb = peak_rss_mb();
    if (args.trace) {
      run_phases(args, seconds, traced, report, data_dir, with_spans);
      for (std::size_t i = 0; i < plain.size(); ++i) {
        const std::string phase = kPhases[i];
        report.layer("trace." + phase + "_overhead_share",
                     with_spans[i] / std::max(plain[i], 1e-9) - 1.0, "ratio");
        overheads += std::string(i ? ", " : "") + "\"" + phase +
                     "\": {\"untraced_p50_ms\": " + std::to_string(plain[i]) +
                     ", \"traced_p50_ms\": " + std::to_string(with_spans[i]) + "}";
      }
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("run aborted: ") + e.what());
  }
  overheads += "}";
  std::filesystem::remove_all(data_dir);

  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_mb, "MiB");

  const std::string stem = results_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  std::string self_times = "{";
  if (args.trace) {
    for (const auto& [layer, ms] : traced.write_and_attribute(stem + ".spans.jsonl")) {
      self_times += std::string(self_times.size() > 1 ? ", " : "") + "\"" + layer +
                    "\": " + std::to_string(ms);
    }
    report.detail("trace.spans_file", "\"" + stem + ".spans.jsonl\"");
    report.detail("trace.spans_dropped", static_cast<double>(traced.tracer()->dropped()));
    report.detail("trace.overhead", overheads);
  }
  self_times += "}";
  if (args.trace) report.detail("trace.self_ms_by_layer", self_times);

  char env[768];
  std::snprintf(env, sizeof env,
                "{\"git_rev\": \"%s\", \"hardware_threads\": %u, \"build_type\": \"%s\", "
                "\"seed\": %llu, \"run_seconds\": %.3f, \"setup_repetitions\": %d, "
                "\"shards\": %zu, \"wal_flush\": \"every_wave\", \"workload\": \"%s\", "
                "\"trace\": %d, \"short\": %s}",
                args.git_rev.c_str(), std::thread::hardware_concurrency(), STACKBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.short_mode ? 1 : kSetupReps, kShards, args.workload.c_str(),
                args.trace ? 1 : 0, args.short_mode ? "true" : "false");
  {
    std::ofstream out(stem + ".json");
    out << "{\"env\": " << env << ",\n \"metrics\": " << report.metrics_json(false)
        << ",\n \"per_layer\": " << report.metrics_json(true)
        << ",\n \"details\": " << report.details_json() << ",\n \"result\": "
        << report.result_json(args.trace) << "}\n";
  }
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("{\"env\": %s}\n", env);
  std::printf("%s\n", report.result_json(args.trace).c_str());
  std::fflush(stdout);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}

}  // namespace stackbench

int main(int argc, char** argv) { return stackbench::main(argc, argv); }
