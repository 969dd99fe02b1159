// lrb_adaptive: the paper's Linear Road workflow under SmartFluxEngine on an
// in-memory 4-shard store with 3 wave workers (the workflow's widest DAG
// level). Set-up trains and builds the model; the timed section runs
// application waves back to back with one driver (closed loop). A
// synchronous shadow, outside the timed section, replays the same waves to
// measure QoD and to re-derive every execute/skip decision.
#include <algorithm>
#include <atomic>
#include <memory>

#include "core/change_metric.h"
#include "core/monitoring.h"
#include "core/smartflux.h"
#include "phases.h"
#include "workloads/lrb/lrb.h"

namespace stackbench {

namespace {

constexpr std::size_t kWorkerThreads = 3;
// Waves per p99 window (windowed_p99).
constexpr std::size_t kWaveWindow = 500;

/// Members are destroyed in reverse order: SmartFlux, engine, store.
struct LrbStack {
  std::unique_ptr<ds::DataStore> store;
  std::unique_ptr<wms::WorkflowEngine> engine;
  std::unique_ptr<core::SmartFluxEngine> smartflux;
  double train_s = 0.0;
  double build_s = 0.0;
};

/// Store + engine + SmartFlux, trained on waves [1, training] and modelled.
std::unique_ptr<LrbStack> build_stack(const wms::WorkflowSpec& spec, std::size_t shards, std::size_t workers,
                     std::size_t training, SpanLog* spans,
                     const std::atomic<std::uint64_t>* wave_span) {
  auto stack = std::make_unique<LrbStack>();
  LrbStack& s = *stack;
  ds::ShardOptions shard_options;
  shard_options.shards = shards;
  s.store = std::make_unique<ds::DataStore>(2, shard_options);
  wms::WorkflowEngine::Options options;
  options.worker_threads = workers;
  if (spans != nullptr && spans->enabled()) {
    s.store->set_instrumentation(spans->registry(), spans->tracer());
    s.engine = std::make_unique<wms::WorkflowEngine>(traced_steps(spec, *spans, wave_span),
                                                     *s.store, options);
  } else {
    s.engine = std::make_unique<wms::WorkflowEngine>(spec, *s.store, options);
  }
  s.smartflux = std::make_unique<core::SmartFluxEngine>(*s.engine, core::SmartFluxOptions{});
  const auto t0 = Clock::now();
  s.smartflux->train(1, training);
  const auto t1 = Clock::now();
  s.smartflux->build_model();
  s.train_s = s_between(t0, t1);
  s.build_s = s_between(t1, Clock::now());
  return stack;
}

class LrbAdaptive final : public Phase {
 public:
  LrbAdaptive(const PhaseConfig& config, SpanLog& spans, Report& report)
      : spans_(spans),
        report_(report),
        training_(config.short_mode ? 60 : 200),
        // Room for every wave the timed seconds can hold (~4 ms each).
        wave_cap_(static_cast<std::size_t>(config.seconds * 400.0) + 100),
        lrb_(params(config.seed, training_ + wave_cap_ + 2)),
        spec_(lrb_.make_workflow()),
        tolerant_(spec_.error_tolerant_steps()),
        next_wave_(training_ + 1) {
    for (int rep = 0; rep < config.setup_reps; ++rep) {
      stack_.reset();
      const auto t0 = Clock::now();
      stack_ = build_stack(spec_, kShards, kWorkerThreads, training_, &spans_, &wave_span_);
      setup_s_.push_back(s_between(t0, Clock::now()));
    }
  }

  // Application waves back to back until `seconds` have passed.
  void run(double seconds) override {
    const auto start = Clock::now();
    const auto budget = std::chrono::duration<double>(seconds);
    while (next_wave_ <= training_ + wave_cap_) {
      const ds::Timestamp w = next_wave_++;
      const std::uint64_t id = spans_.reserve_id();
      wave_span_.store(id, std::memory_order_relaxed);
      const auto a = Clock::now();
      const wms::WaveResult result = stack_->smartflux->run_wave(w);
      const auto b = Clock::now();
      spans_.record_with_id(id, "core.run_wave", "core", 0, a, b);
      wave_ms_.push_back(ms_between(a, b));
      steps_ms_.push_back(critical_path_ms(spec_, result.durations));
      overhead_ms_.push_back(wave_ms_.back() - steps_ms_.back());
      wave_failures_ += result.failed_count();
      std::vector<bool> executed;
      for (const std::size_t t : tolerant_) {
        executed.push_back(result.executed[t]);
        adaptive_execs_ += result.executed[t] ? 1 : 0;
      }
      decisions_.push_back(std::move(executed));
      if (b - start >= budget) break;
    }
    windows_.emplace_back(start, Clock::now());
  }

  void finish() override;

 private:
  static workloads::LrbParams params(std::uint64_t seed, std::size_t total_waves) {
    workloads::LrbParams p;
    p.seed = seed;
    p.total_waves = total_waves;
    return p;
  }

  SpanLog& spans_;
  Report& report_;
  const std::size_t training_;
  const std::size_t wave_cap_;
  // Inputs: the traffic simulation for every wave, generated from the seed.
  const workloads::LrbWorkload lrb_;
  const wms::WorkflowSpec spec_;
  const std::vector<std::size_t> tolerant_;
  std::atomic<std::uint64_t> wave_span_{0};
  std::unique_ptr<LrbStack> stack_;
  ds::Timestamp next_wave_;
  std::vector<double> wave_ms_, steps_ms_, overhead_ms_;
  std::vector<std::vector<bool>> decisions_;  ///< per timed wave, per tolerant step
  std::size_t adaptive_execs_ = 0;
  std::uint64_t wave_failures_ = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows_;  ///< timed stretches
};

void LrbAdaptive::finish() {
  const bool traced = spans_.enabled();
  const std::size_t timed_waves = decisions_.size();
  report_.operations(timed_waves, wave_failures_);
  headline_p50_ms_ = median(wave_ms_);
  // Shadow, untimed: a second SmartFlux stack on one shard with serial
  // execution must reach the same decisions, and a synchronous engine gives
  // the ground-truth outputs QoD is measured against.
  {
    const auto replay = build_stack(spec_, 1, 0, training_, nullptr, nullptr);
    ds::DataStore sync_store(2);
    wms::WorkflowEngine sync_engine(spec_, sync_store);
    wms::SyncController sync;
    sync_engine.run_waves(1, training_, sync);
    const core::SmartFluxOptions defaults;
    std::size_t sync_execs = 0;
    std::size_t mismatched_waves = 0;
    std::vector<std::size_t> violations(tolerant_.size(), 0);
    for (std::size_t k = 0; k < timed_waves; ++k) {
      const ds::Timestamp w = training_ + 1 + k;
      const wms::WaveResult truth = sync_engine.run_wave(w, sync);
      const wms::WaveResult again = replay->smartflux->run_wave(w);
      bool same = true;
      for (std::size_t t = 0; t < tolerant_.size(); ++t) {
        const std::size_t idx = tolerant_[t];
        sync_execs += truth.executed[idx] ? 1 : 0;
        same = same && again.executed[idx] == decisions_[k][t];
        double measured = 0.0;
        for (const auto& container : spec_.step_at(idx).outputs) {
          const auto fresh = sync_store.snapshot_flat(container);
          const auto stale = replay->store->snapshot_flat(container);
          const auto metric =
              core::make_error_metric(defaults.monitor.error, defaults.monitor.rmse_value_range);
          measured = std::max(measured, core::compute_change(fresh, stale, *metric));
        }
        if (measured > *spec_.step_at(idx).max_error) ++violations[t];
      }
      mismatched_waves += same ? 0 : 1;
    }
    report_.check(timed_waves > 0, "lrb_adaptive: application waves ran");
    report_.check(mismatched_waves == 0,
                 "lrb_adaptive: timed decisions equal the shadow run's (" +
                     std::to_string(mismatched_waves) + " waves differ)");
    double confidence_min = 1.0;
    std::string per_step = "{";
    for (std::size_t t = 0; t < tolerant_.size(); ++t) {
      const double conf = 1.0 - static_cast<double>(violations[t]) /
                                    static_cast<double>(std::max<std::size_t>(timed_waves, 1));
      confidence_min = std::min(confidence_min, conf);
      per_step += (t ? ", \"" : "\"") + spec_.step_at(tolerant_[t]).id +
                  "\": " + std::to_string(conf);
    }
    per_step += "}";
    const double saved =
        1.0 - static_cast<double>(adaptive_execs_) / static_cast<double>(std::max<std::size_t>(sync_execs, 1));
    report_.detail("lrb_adaptive.timed_waves", static_cast<double>(timed_waves));
    report_.detail("lrb_adaptive.adaptive_tolerant_executions", static_cast<double>(adaptive_execs_));
    report_.detail("lrb_adaptive.sync_tolerant_executions", static_cast<double>(sync_execs));
    report_.detail("lrb_adaptive.confidence_per_step", per_step);
    if (!traced) {
      // Wave times follow the host's load more than a 25% bound allows:
      // reported with the per-layer set, outside the bounded one.
      report_.layer("wave_p50_ms", quantile(wave_ms_, 0.5), "ms");
      report_.layer("wave_p99_ms", windowed_p99(wave_ms_, kWaveWindow), "ms");
      report_.metric("executions_saved", saved, "ratio");
      report_.metric("qod_confidence_min", confidence_min, "ratio");
    }
  }

  if (traced) {
    const double total_wave = sum(wave_ms_);
    const double total_overhead = sum(overhead_ms_);
    report_.layer("wms.steps_p50_ms", quantile(steps_ms_, 0.5), "ms");
    report_.layer("core.overhead_p50_ms", quantile(overhead_ms_, 0.5), "ms");
    report_.layer("core.overhead_p99_ms", quantile(overhead_ms_, 0.99), "ms");
    report_.layer("core.overhead_share", total_overhead / std::max(total_wave, 1e-9), "ratio");
    report_.detail("lrb_adaptive.sum_wave_ms", total_wave);
    report_.detail("lrb_adaptive.sum_overhead_ms", total_overhead);
    report_.layer("core.train_s", stack_->train_s, "s");
    report_.layer("ml.build_model_s", stack_->build_s, "s");

    // Forest predict over the knowledge-base rows, batched.
    const auto& kb = stack_->smartflux->knowledge_base();
    std::vector<double> rows;
    for (const auto& row : kb.rows()) rows.insert(rows.end(), row.impacts.begin(), row.impacts.end());
    std::vector<double> per_row_us;
    for (int r = 0; r < 5 && kb.size() > 0; ++r) {
      const auto a = Clock::now();
      const auto out = stack_->smartflux->predictor().predict_batch(rows, kb.size());
      const auto b = Clock::now();
      per_row_us.push_back(ms_between(a, b) * 1e3 / static_cast<double>(kb.size()));
      report_.check(out.size() == kb.size() * tolerant_.size(), "lrb_adaptive: predict_batch shape");
    }
    report_.layer("ml.predict_us_per_row", median(per_row_us), "us");

    // The store's own ds_scan spans inside the timed stretches: SmartFlux's
    // monitoring snapshots (steps read through as-of scans, which record
    // no span), i.e. the part of the overhead that is datastore time.
    const auto epoch = spans_.tracer()->epoch();
    const auto within = [&](std::chrono::nanoseconds t) {
      for (const auto& [lo, hi] : windows_) {
        if (t >= lo - epoch && t < hi - epoch) return true;
      }
      return false;
    };
    std::vector<double> scan_ms;
    for (const auto& span : spans_.tracer()->snapshot()) {
      if (span.name.rfind("ds_scan:", 0) == 0 && within(span.start)) {
        scan_ms.push_back(static_cast<double>(span.duration.count()) / 1e6);
      }
    }
    report_.layer("ds.monitor_snapshot_p50_ms", quantile(scan_ms, 0.5), "ms");
    report_.layer("ds.monitor_snapshot_p99_ms", quantile(scan_ms, 0.99), "ms");
    report_.layer("core.overhead_snapshot_share", sum(scan_ms) / std::max(total_overhead, 1e-9),
                 "ratio");
    report_.detail("lrb_adaptive.monitor_snapshots", static_cast<double>(scan_ms.size()));
  }
}

}  // namespace

std::unique_ptr<Phase> make_lrb_adaptive(const PhaseConfig& config, SpanLog& spans,
                                         Report& report) {
  return std::make_unique<LrbAdaptive>(config, spans, report);
}

}  // namespace stackbench
