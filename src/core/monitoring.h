#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/change_metric.h"
#include "datastore/datastore.h"
#include "wms/workflow_spec.h"

namespace smartflux::core {

/// How per-wave change accumulates while a step's execution is deferred
/// (§2.1/§2.2 of the paper).
enum class AccumulationMode {
  /// Sum of per-wave metric values since the last execution: impact keeps
  /// growing wave after wave.
  kCumulative,
  /// Metric between the current state and the state at the last execution:
  /// computations that revert each other cancel out (error can return to 0).
  kCancelling,
};

/// How impacts from multiple predecessor containers combine (§2.1; the paper
/// defaults to the geometric mean).
enum class CombineMode { kGeometricMean, kArithmeticMean, kMax };

double combine_impacts(const std::vector<double>& impacts, CombineMode mode) noexcept;

/// Tracks the change metric of one data container on behalf of one consumer
/// step: keeps the reference snapshot(s), folds each observed wave into the
/// accumulated metric, and resets when the step executes.
class ContainerTracker {
 public:
  ContainerTracker(ds::ContainerRef container, std::unique_ptr<ChangeMetric> metric,
                   AccumulationMode mode);

  /// Folds the container's current state into the accumulation and returns
  /// the new accumulated value. Call at most once per wave, after producers
  /// have written.
  double observe(const ds::DataStore& store);

  /// Accumulated metric without observing again.
  double accumulated() const noexcept { return accumulated_; }

  /// Metric value of the latest observed wave alone (the per-wave delta).
  double last_delta() const noexcept { return last_delta_; }

  /// Marks the step as executed: accumulation returns to zero and the
  /// current state becomes the new reference.
  void reset(const ds::DataStore& store);

  const ds::ContainerRef& container() const noexcept { return container_; }
  AccumulationMode mode() const noexcept { return mode_; }

 private:
  ds::ContainerRef container_;
  std::unique_ptr<ChangeMetric> metric_;
  AccumulationMode mode_;
  // Reference states as flat snapshots (DataStore::snapshot_flat): one
  // contiguous vector each instead of a rebuilt string-keyed tree per wave.
  ds::FlatSnapshot last_seen_;  ///< state at previous observe (cumulative mode)
  ds::FlatSnapshot baseline_;   ///< state at last reset (cancelling mode only)
  double accumulated_ = 0.0;
  double last_delta_ = 0.0;
};

/// All monitoring state of one processing step: input trackers (impact ι over
/// each input container) and output trackers (error ε over each output
/// container). This is the per-step slice of the paper's Monitoring
/// component.
class StepMonitor {
 public:
  struct Options {
    ImpactKind impact = ImpactKind::kMagnitudeCount;
    ErrorKind error = ErrorKind::kRelative;
    double rmse_value_range = 1.0;
    AccumulationMode impact_mode = AccumulationMode::kCumulative;
    AccumulationMode error_mode = AccumulationMode::kCumulative;
    CombineMode combine = CombineMode::kGeometricMean;
    /// User-defined metric factories (the paper's custom update/compute API,
    /// §4.2). When set they override the built-in `impact` / `error` kinds.
    std::function<std::unique_ptr<ChangeMetric>()> custom_impact;
    std::function<std::unique_ptr<ChangeMetric>()> custom_error;
  };

  StepMonitor(const wms::StepSpec& step, const Options& options);

  /// Observes all input containers and returns the combined input impact ι.
  double observe_inputs(const ds::DataStore& store);
  /// Observes all output containers and returns the accumulated output error
  /// ε (max across output containers — conservative).
  double observe_outputs(const ds::DataStore& store);

  double input_impact() const noexcept;
  double output_error() const noexcept;

  /// Per-wave output error of the latest observed wave (max across outputs).
  double last_output_delta() const noexcept;

  /// Called when the step executes: impact accumulation restarts.
  void reset_inputs(const ds::DataStore& store);
  /// Called when the (simulated or real) execution clears deferred error.
  void reset_outputs(const ds::DataStore& store);

  const wms::StepId& step_id() const noexcept { return step_id_; }

 private:
  wms::StepId step_id_;
  CombineMode combine_;
  std::vector<ContainerTracker> inputs_;
  std::vector<ContainerTracker> outputs_;
};

}  // namespace smartflux::core
