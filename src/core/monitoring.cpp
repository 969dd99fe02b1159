#include "core/monitoring.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace smartflux::core {

double combine_impacts(const std::vector<double>& impacts, CombineMode mode) noexcept {
  if (impacts.empty()) return 0.0;
  if (impacts.size() == 1) return impacts.front();
  switch (mode) {
    case CombineMode::kGeometricMean: {
      // Geometric mean degenerates to 0 if any term is 0; shift by a small
      // epsilon so a single silent input does not erase the others entirely,
      // then shift back.
      constexpr double kEps = 1e-12;
      double log_sum = 0.0;
      for (double v : impacts) log_sum += std::log(v + kEps);
      return std::max(0.0, std::exp(log_sum / static_cast<double>(impacts.size())) - kEps);
    }
    case CombineMode::kArithmeticMean: {
      double s = 0.0;
      for (double v : impacts) s += v;
      return s / static_cast<double>(impacts.size());
    }
    case CombineMode::kMax: {
      return *std::max_element(impacts.begin(), impacts.end());
    }
  }
  return 0.0;
}

ContainerTracker::ContainerTracker(ds::ContainerRef container,
                                   std::unique_ptr<ChangeMetric> metric, AccumulationMode mode)
    : container_(std::move(container)), metric_(std::move(metric)), mode_(mode) {
  SF_CHECK(metric_ != nullptr, "ContainerTracker needs a metric");
}

double ContainerTracker::observe(const ds::DataStore& store) {
  auto current = store.snapshot_flat(container_);
  switch (mode_) {
    case AccumulationMode::kCumulative: {
      last_delta_ = compute_change(current, last_seen_, *metric_);
      accumulated_ += last_delta_;
      break;
    }
    case AccumulationMode::kCancelling: {
      const double since_wave = compute_change(current, last_seen_, *metric_);
      const double since_baseline = compute_change(current, baseline_, *metric_);
      last_delta_ = since_wave;
      accumulated_ = since_baseline;
      break;
    }
  }
  last_seen_ = std::move(current);
  return accumulated_;
}

void ContainerTracker::reset(const ds::DataStore& store) {
  last_seen_ = store.snapshot_flat(container_);
  if (mode_ == AccumulationMode::kCancelling) baseline_ = last_seen_;
  accumulated_ = 0.0;
  last_delta_ = 0.0;
}

StepMonitor::StepMonitor(const wms::StepSpec& step, const Options& options)
    : step_id_(step.id), combine_(options.combine) {
  auto impact_metric = [&options]() {
    return options.custom_impact ? options.custom_impact()
                                 : make_impact_metric(options.impact);
  };
  auto error_metric = [&options]() {
    return options.custom_error ? options.custom_error()
                                : make_error_metric(options.error, options.rmse_value_range);
  };
  inputs_.reserve(step.inputs.size());
  for (const auto& container : step.inputs) {
    inputs_.emplace_back(container, impact_metric(), options.impact_mode);
  }
  outputs_.reserve(step.outputs.size());
  for (const auto& container : step.outputs) {
    outputs_.emplace_back(container, error_metric(), options.error_mode);
  }
}

double StepMonitor::observe_inputs(const ds::DataStore& store) {
  std::vector<double> impacts;
  impacts.reserve(inputs_.size());
  for (auto& tracker : inputs_) impacts.push_back(tracker.observe(store));
  return combine_impacts(impacts, combine_);
}

double StepMonitor::observe_outputs(const ds::DataStore& store) {
  double worst = 0.0;
  for (auto& tracker : outputs_) worst = std::max(worst, tracker.observe(store));
  return worst;
}

double StepMonitor::input_impact() const noexcept {
  std::vector<double> impacts;
  impacts.reserve(inputs_.size());
  for (const auto& tracker : inputs_) impacts.push_back(tracker.accumulated());
  return combine_impacts(impacts, combine_);
}

double StepMonitor::output_error() const noexcept {
  double worst = 0.0;
  for (const auto& tracker : outputs_) worst = std::max(worst, tracker.accumulated());
  return worst;
}

double StepMonitor::last_output_delta() const noexcept {
  double worst = 0.0;
  for (const auto& tracker : outputs_) worst = std::max(worst, tracker.last_delta());
  return worst;
}

void StepMonitor::reset_inputs(const ds::DataStore& store) {
  for (auto& tracker : inputs_) tracker.reset(store);
}

void StepMonitor::reset_outputs(const ds::DataStore& store) {
  for (auto& tracker : outputs_) tracker.reset(store);
}

}  // namespace smartflux::core
