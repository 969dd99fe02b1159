#include "core/experiment.h"

#include <algorithm>

#include "common/error.h"
#include "core/change_metric.h"

namespace smartflux::core {

double ExperimentResult::savings_ratio() const noexcept {
  if (total_sync_executions == 0) return 0.0;
  return 1.0 - static_cast<double>(total_adaptive_executions) /
                   static_cast<double>(total_sync_executions);
}

double ExperimentResult::confidence(const wms::StepId& step) const {
  if (waves.empty()) return 1.0;
  std::size_t ok = 0;
  for (const auto& w : waves) {
    auto it = w.violation.find(step);
    if (it == w.violation.end() || !it->second) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(waves.size());
}

std::vector<double> ExperimentResult::confidence_curve(const wms::StepId& step) const {
  std::vector<double> out;
  out.reserve(waves.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < waves.size(); ++i) {
    auto it = waves[i].violation.find(step);
    if (it == waves[i].violation.end() || !it->second) ++ok;
    out.push_back(static_cast<double>(ok) / static_cast<double>(i + 1));
  }
  return out;
}

std::vector<double> ExperimentResult::overall_confidence_curve() const {
  std::vector<double> out;
  out.reserve(waves.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < waves.size(); ++i) {
    bool any_violation = false;
    for (const auto& [_, v] : waves[i].violation) any_violation = any_violation || v;
    if (!any_violation) ++ok;
    out.push_back(static_cast<double>(ok) / static_cast<double>(i + 1));
  }
  return out;
}

std::vector<double> ExperimentResult::normalized_executions_curve() const {
  std::vector<double> out;
  out.reserve(waves.size());
  double adaptive = 0.0, sync = 0.0;
  for (const auto& w : waves) {
    adaptive += static_cast<double>(w.adaptive_executions);
    sync += static_cast<double>(w.sync_executions);
    out.push_back(sync > 0.0 ? adaptive / sync : 1.0);
  }
  return out;
}

std::size_t ExperimentResult::violation_count(const wms::StepId& step) const {
  std::size_t n = 0;
  for (const auto& w : waves) {
    auto it = w.violation.find(step);
    if (it != w.violation.end() && it->second) ++n;
  }
  return n;
}

double ExperimentResult::max_violation_magnitude(const wms::StepId& step) const {
  double worst = 0.0;
  const auto bound_it = bounds.find(step);
  if (bound_it == bounds.end()) return 0.0;
  for (const auto& w : waves) {
    auto it = w.measured_error.find(step);
    if (it != w.measured_error.end() && it->second > bound_it->second) {
      worst = std::max(worst, it->second - bound_it->second);
    }
  }
  return worst;
}

Experiment::Experiment(wms::WorkflowSpec spec, ExperimentOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  SF_CHECK(options_.training_waves >= 1, "need at least one training wave");
  SF_CHECK(options_.eval_waves >= 1, "need at least one evaluation wave");
}

std::vector<std::size_t> Experiment::tracked_indices() const {
  if (options_.tracked_steps.empty()) return spec_.error_tolerant_steps();
  std::vector<std::size_t> out;
  out.reserve(options_.tracked_steps.size());
  for (const auto& id : options_.tracked_steps) {
    const std::size_t idx = spec_.index_of(id);
    SF_CHECK(spec_.step_at(idx).tolerates_error(),
             "tracked step '" + id + "' has no error bound");
    out.push_back(idx);
  }
  return out;
}

ExperimentResult Experiment::evaluate(
    const std::string& policy_name,
    const std::function<wms::WaveResult(ds::Timestamp)>& run_adaptive_wave,
    ds::DataStore& adaptive_store) {
  // Synchronous shadow: same deterministic workload on its own store.
  ds::DataStore shadow_store;
  wms::WorkflowEngine shadow(spec_, shadow_store);
  wms::SyncController sync;
  shadow.run_waves(1, options_.training_waves, sync);

  const auto tracked = tracked_indices();
  const auto tolerant = spec_.error_tolerant_steps();

  // Per-tracked-step output trackers on the shadow store give the true
  // per-wave error deltas (what one skipped wave costs).
  std::vector<StepMonitor> shadow_monitors;
  shadow_monitors.reserve(tracked.size());
  for (std::size_t idx : tracked) {
    shadow_monitors.emplace_back(spec_.step_at(idx), options_.smartflux.monitor);
  }
  for (auto& m : shadow_monitors) {
    m.observe_outputs(shadow_store);
    m.reset_outputs(shadow_store);  // anchor the baseline at end of training
  }

  ExperimentResult result;
  result.policy = policy_name;
  for (std::size_t idx : tracked) {
    result.tracked_steps.push_back(spec_.step_at(idx).id);
    result.bounds[spec_.step_at(idx).id] = *spec_.step_at(idx).max_error;
  }

  std::map<wms::StepId, double> predicted_acc;
  const ds::Timestamp first_eval = options_.training_waves + 1;

  for (std::size_t k = 0; k < options_.eval_waves; ++k) {
    const ds::Timestamp wave = first_eval + k;
    const wms::WaveResult shadow_result = shadow.run_wave(wave, sync);
    const wms::WaveResult adaptive_result = run_adaptive_wave(wave);

    WaveStats ws;
    ws.wave = wave;
    for (std::size_t idx : tolerant) {
      ws.adaptive_executions += adaptive_result.executed[idx] ? 1 : 0;
      ws.sync_executions += shadow_result.executed[idx] ? 1 : 0;
    }

    for (std::size_t t = 0; t < tracked.size(); ++t) {
      const std::size_t idx = tracked[t];
      const wms::StepSpec& step = spec_.step_at(idx);
      shadow_monitors[t].observe_outputs(shadow_store);
      const double delta = shadow_monitors[t].last_output_delta();

      const int decision = adaptive_result.executed[idx] ? 1 : 0;
      ws.decision[step.id] = decision;
      if (decision == 1) {
        predicted_acc[step.id] = 0.0;
      } else {
        predicted_acc[step.id] += delta;
      }
      ws.predicted_error[step.id] = predicted_acc[step.id];

      // Measured error: adaptive (possibly stale) output vs shadow output.
      double measured = 0.0;
      for (const auto& container : step.outputs) {
        // Different stores share no interned key pointers and may route rows
        // to different slots, so compute_change joins the two snapshots in
        // merged global order (the map path's visit order, so the values
        // match it bit for bit) and compares strings — still
        // allocation-free per element.
        const auto fresh = shadow_store.snapshot_flat(container);
        const auto stale = adaptive_store.snapshot_flat(container);
        auto metric = make_error_metric(options_.smartflux.monitor.error,
                                        options_.smartflux.monitor.rmse_value_range);
        measured = std::max(measured, compute_change(fresh, stale, *metric));
      }
      ws.measured_error[step.id] = measured;
      ws.violation[step.id] = measured > *step.max_error;
    }

    result.total_adaptive_executions += ws.adaptive_executions;
    result.total_sync_executions += ws.sync_executions;
    result.waves.push_back(std::move(ws));
  }
  return result;
}

ExperimentResult Experiment::run_smartflux() {
  ds::DataStore store;
  wms::WorkflowEngine engine(spec_, store, options_.engine);
  SmartFluxEngine sf(engine, options_.smartflux);
  sf.train(1, options_.training_waves);
  sf.build_model();
  Predictor::TestReport report;
  const std::size_t folds =
      std::min(options_.smartflux.cv_folds, sf.knowledge_base().size());
  if (folds >= 2) report = sf.predictor().test(sf.knowledge_base(), folds);

  auto result = evaluate(
      "smartflux", [&sf](ds::Timestamp wave) { return sf.run_wave(wave); }, store);
  result.test_report = report;
  return result;
}

ExperimentResult Experiment::run_controller(const std::string& policy_name,
                                            wms::TriggerController& controller) {
  ds::DataStore store;
  wms::WorkflowEngine engine(spec_, store, options_.engine);
  wms::SyncController sync;
  engine.run_waves(1, options_.training_waves, sync);  // warm-up, matches shadow
  return evaluate(
      policy_name,
      [&engine, &controller](ds::Timestamp wave) { return engine.run_wave(wave, controller); },
      store);
}

ExperimentResult Experiment::run_sync() {
  wms::SyncController sync;
  return run_controller("sync", sync);
}

std::map<std::size_t, std::map<ds::Timestamp, double>> Experiment::profile_sync_deltas() {
  ds::DataStore store;
  wms::WorkflowEngine engine(spec_, store);
  wms::SyncController sync;
  engine.run_waves(1, options_.training_waves, sync);

  const auto tolerant = spec_.error_tolerant_steps();
  std::vector<StepMonitor> monitors;
  monitors.reserve(tolerant.size());
  for (std::size_t idx : tolerant) {
    monitors.emplace_back(spec_.step_at(idx), options_.smartflux.monitor);
  }
  for (auto& m : monitors) {
    m.observe_outputs(store);
    m.reset_outputs(store);
  }

  std::map<std::size_t, std::map<ds::Timestamp, double>> deltas;
  const ds::Timestamp first_eval = options_.training_waves + 1;
  for (std::size_t k = 0; k < options_.eval_waves; ++k) {
    const ds::Timestamp wave = first_eval + k;
    engine.run_wave(wave, sync);
    for (std::size_t t = 0; t < tolerant.size(); ++t) {
      monitors[t].observe_outputs(store);
      deltas[tolerant[t]][wave] = monitors[t].last_output_delta();
    }
  }
  return deltas;
}

ExperimentResult Experiment::run_oracle() {
  OracleController oracle(spec_, profile_sync_deltas());
  return run_controller("oracle", oracle);
}

}  // namespace smartflux::core
