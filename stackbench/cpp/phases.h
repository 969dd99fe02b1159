// The three workload phases. Each builds its own slice of the serving stack,
// times it, checks its outputs and reports end-to-end metrics (untraced) or
// per-layer metrics (traced) into the run's Report.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "wms/workflow_spec.h"

namespace stackbench {

/// Store shape shared by every phase: the deployed serving configuration.
inline constexpr std::size_t kShards = 4;

struct PhaseConfig {
  std::uint64_t seed = 1;
  /// Total timed seconds the phase will be given (sizes its inputs).
  double seconds = 2.0;
  /// Set-up repetitions; the median is reported, the last one is used.
  int setup_reps = 3;
  /// Tiny sizes for the self-test.
  bool short_mode = false;
  /// Durable stores live under here (inside the benchmark's build dir).
  std::string data_dir;
};

/// One workload's slice of the serving stack. The constructor generates the
/// inputs and builds the stack (set-up, repeated, the last one kept).
/// run() adds timed seconds; the driver calls it several times, interleaved
/// with the other phases, so every phase samples the whole run rather than
/// one stretch of it. finish() runs the phase's own tail (the rate ladder,
/// the shadow, the checks) and reports its metrics: end-to-end ones when
/// `spans` is disabled, per-layer ones and spans when it is enabled.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void run(double seconds) = 0;
  virtual void finish() = 0;

  /// Seconds of each set-up repetition.
  const std::vector<double>& setup_s() const noexcept { return setup_s_; }
  /// The headline latency (ms) finish() found: ack p50, wave p50 or scan
  /// p50. The traced run compares it with an untraced pass.
  double headline_p50_ms() const noexcept { return headline_p50_ms_; }

 protected:
  std::vector<double> setup_s_;
  double headline_p50_ms_ = 0.0;
};

std::unique_ptr<Phase> make_ingest_http(const PhaseConfig& config, SpanLog& spans,
                                        Report& report);
std::unique_ptr<Phase> make_lrb_adaptive(const PhaseConfig& config, SpanLog& spans,
                                         Report& report);
std::unique_ptr<Phase> make_scan_under_ingest(const PhaseConfig& config, SpanLog& spans,
                                              Report& report);

/// Copy of `spec` whose step functions also record a `wms.step:<id>` span,
/// parented to the span id `*parent` holds when the step starts. Returns
/// `spec` unchanged when tracing is off, so the untraced pass runs the
/// program's own step functions.
wms::WorkflowSpec traced_steps(const wms::WorkflowSpec& spec, SpanLog& spans,
                               const std::atomic<std::uint64_t>* parent);

/// The steps' share of a wave's wall time: the sum over the spec's
/// dependency levels of the level's slowest step (a level's steps may run in
/// parallel, so the plain sum of durations can exceed the wave).
double critical_path_ms(const wms::WorkflowSpec& spec,
                        const std::vector<std::chrono::nanoseconds>& durations);

}  // namespace stackbench
