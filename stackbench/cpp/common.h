// Shared plumbing of the serving-stack benchmark: clocks, percentiles, the
// result record every phase fills in, and the span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartflux::ds {}
namespace smartflux::wms {}
namespace smartflux::core {}
namespace smartflux::net {}
namespace smartflux::workloads {}

namespace stackbench {

namespace obs = smartflux::obs;
namespace ds = smartflux::ds;
namespace wms = smartflux::wms;
namespace core = smartflux::core;
namespace net = smartflux::net;
namespace workloads = smartflux::workloads;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty. Takes a copy so callers keep their arrival order.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }
double sum(const std::vector<double>& values);
/// The p99 of a run as the median, over consecutive windows of `window`
/// samples (in arrival order), of each window's own p99. One stall moves
/// one window, not the run's figure; each window needs >= 1000 samples for
/// its p99 to have ten beyond it. Falls back to the plain p99 when the run
/// holds fewer than three windows.
double windowed_p99(const std::vector<double>& values, std::size_t window);

/// What a run measured and checked. Phases add metrics by name; operations
/// and correctness checks count into attempted/failed.
class Report {
 public:
  /// End-to-end metric (untraced pass).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (traced pass).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Counts one correctness check; a failing one is also recorded by name.
  void check(bool ok, const std::string& what);
  /// Counts operations of the timed sections (requests, waves, scans, ...).
  void operations(std::uint64_t attempted, std::uint64_t failed);
  /// Free-form detail (base counts, per-rate tables) for the result file.
  void detail(const std::string& key, const std::string& json_value);
  void detail(const std::string& key, double value);

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ + failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} with the
  /// end-to-end or the per-layer metrics.
  std::string result_json(bool per_layer) const;
  /// One "metrics" object alone (for the result file).
  std::string metrics_json(bool per_layer) const;
  std::string details_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, std::string> details_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans of the traced run, recorded into the program's own obs::Tracer so
/// the benchmark's spans and the store's existing `ds_scan:` spans share one
/// id space, one epoch and one thread numbering. Inert when tracing is off.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const noexcept { return tracer_ != nullptr; }
  obs::Tracer* tracer() noexcept { return tracer_.get(); }
  /// The registry handed to the program's instrumentation hooks (traced
  /// run only; null otherwise).
  obs::MetricsRegistry* registry() noexcept { return registry_.get(); }

  /// Records [start, end) as a span of `layer`; returns its id (0 when off).
  std::uint64_t record(const std::string& name, const std::string& layer, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end);
  /// Reserves an id for a span recorded later with record_with_id (so a
  /// parent can be named before its children finish).
  std::uint64_t reserve_id();
  void record_with_id(std::uint64_t id, const std::string& name, const std::string& layer,
                      std::uint64_t parent, Clock::time_point start, Clock::time_point end);

  /// Writes every span as one JSON object per line (name, layer, id,
  /// parent, trace = root id, start_us, end_us, thread). Spans the program
  /// recorded without a parent (`ds_scan:`) get the innermost benchmark span
  /// on the same thread whose interval contains them. Returns per-layer self
  /// time in ms: a span's duration minus what its children cover.
  std::map<std::string, double> write_and_attribute(const std::string& path);

 private:
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
};

/// Counter value of a registry family (summed over labels); 0 when absent.
std::uint64_t counter_total(const obs::MetricsRegistry& registry, const std::string& name);

/// Raises the calling thread's scheduling priority (nice -10) while in
/// scope, when the process may. Load generators and clients hold one: they
/// stand in for machines of their own, so their scheduling delays must not
/// pass for the server's latency. Best effort; without the privilege
/// nothing changes.
class ClientPriority {
 public:
  ClientPriority();
  ~ClientPriority();
  ClientPriority(const ClientPriority&) = delete;
  ClientPriority& operator=(const ClientPriority&) = delete;

 private:
  int previous_ = 0;
};

/// Peak resident set of this process, in MiB (VmHWM).
double peak_rss_mb();

/// Deterministic 64-bit mixer for the seeded input generators.
std::uint64_t mix64(std::uint64_t x);
/// Uniform double in [0,1) from (seed, a, b).
double unit_draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// Formats a double the way the gateway renders values ("%.17g").
std::string format_value(double v);

/// Removes a directory tree (the benchmark's own data dirs only).
void remove_tree(const std::string& path);

}  // namespace stackbench
