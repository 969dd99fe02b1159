// §5.3 overhead: the paper identifies monitoring data-store accesses,
// computing the input impact and output error, writing the training set,
// building the classification model (< 1 s, the largest source) and
// classifying instances as the overhead sources, with per-task overhead
// close to 0%. These micro-benchmarks measure each source directly.

#include <benchmark/benchmark.h>

#include "common/hashing.h"
#include "core/monitoring.h"
#include "core/predictor.h"
#include "core/qod_engine.h"
#include "datastore/datastore.h"
#include "wms/engine.h"

namespace {

using namespace smartflux;

void BM_StorePut(benchmark::State& state) {
  ds::DataStore store;
  ds::Timestamp ts = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    store.put("t", "r" + std::to_string(i++ % 1000), "c", ++ts, 1.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StorePut);

void BM_StorePutWithObserver(benchmark::State& state) {
  ds::DataStore store;
  std::size_t observed = 0;
  store.subscribe([&observed](const ds::Mutation&) { ++observed; });
  ds::Timestamp ts = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    store.put("t", "r" + std::to_string(i++ % 1000), "c", ++ts, 1.0);
  }
  benchmark::DoNotOptimize(observed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StorePutWithObserver);

void BM_SnapshotContainer(benchmark::State& state) {
  ds::DataStore store;
  const auto cells = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < cells; ++i) {
    store.put("t", "r" + std::to_string(i), "c", 1, hash_unit(1, i));
  }
  const auto ref = ds::ContainerRef::whole_table("t");
  for (auto _ : state) {
    auto snap = store.snapshot(ref);
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SnapshotContainer)->Arg(100)->Arg(1000);

void BM_ComputeImpactEq1(benchmark::State& state) {
  std::map<std::string, double> prev, cur;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    prev["k" + std::to_string(i)] = hash_unit(1, i);
    cur["k" + std::to_string(i)] = hash_unit(2, i);
  }
  core::MagnitudeCountImpact metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_change(cur, prev, metric));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ComputeImpactEq1)->Arg(100)->Arg(1000);

void BM_ComputeErrorEq3(benchmark::State& state) {
  std::map<std::string, double> prev, cur;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    prev["k" + std::to_string(i)] = 1.0 + hash_unit(1, i);
    cur["k" + std::to_string(i)] = 1.0 + hash_unit(2, i);
  }
  core::RelativeError metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_change(cur, prev, metric));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ComputeErrorEq3)->Arg(100)->Arg(1000);

core::KnowledgeBase synthetic_kb(std::size_t rows, std::size_t steps) {
  std::vector<std::string> ids;
  for (std::size_t s = 0; s < steps; ++s) ids.push_back("s" + std::to_string(s));
  core::KnowledgeBase kb(ids);
  for (std::size_t i = 0; i < rows; ++i) {
    core::TrainingRow r;
    r.wave = i + 1;
    for (std::size_t s = 0; s < steps; ++s) {
      const double x = 100.0 * hash_unit(3 + s, i);
      r.impacts.push_back(x);
      r.exceeds.push_back(x > 60.0 ? 1 : 0);
      r.errors.push_back(x / 500.0);
    }
    kb.append(std::move(r));
  }
  return kb;
}

void BM_ModelBuild(benchmark::State& state) {
  // The paper: "building the classification model took the longest time
  // (among all sources of overhead), albeit less than a second".
  const auto kb = synthetic_kb(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    core::Predictor predictor;
    predictor.train(kb);
    benchmark::DoNotOptimize(predictor);
  }
}
BENCHMARK(BM_ModelBuild)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_ClassifyInstance(benchmark::State& state) {
  const auto kb = synthetic_kb(500, 6);
  core::Predictor predictor;
  predictor.train(kb);
  const std::vector<double> impacts{10, 70, 30, 90, 50, 20};
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict(impacts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassifyInstance);

void BM_TrackerObserve(benchmark::State& state) {
  ds::DataStore store;
  const auto cells = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < cells; ++i) {
    store.put("t", "r" + std::to_string(i), "c", 1, hash_unit(1, i));
  }
  core::ContainerTracker tracker(ds::ContainerRef::whole_table("t"),
                                 core::make_impact_metric(core::ImpactKind::kMagnitudeCount),
                                 core::AccumulationMode::kCumulative);
  tracker.reset(store);
  ds::Timestamp ts = 1;
  for (auto _ : state) {
    state.PauseTiming();
    ++ts;
    store.put("t", "r0", "c", ts, hash_unit(2, ts));
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker.observe(store));
  }
}
BENCHMARK(BM_TrackerObserve)->Arg(100)->Arg(1000);

/// Whole-wave overhead: the same workflow wave with plain synchronous
/// triggering vs with SmartFlux's training-mode monitoring attached. The
/// paper reports per-task overhead "always close to 0%".
wms::WorkflowSpec overhead_spec() {
  wms::StepSpec src;
  src.id = "src";
  src.outputs = {ds::ContainerRef::whole_table("in")};
  src.fn = [](wms::StepContext& ctx) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      ctx.client.put("in", "r" + std::to_string(i), "v",
                     hash_unit(9, i, ctx.wave));
    }
  };
  wms::StepSpec agg;
  agg.id = "agg";
  agg.predecessors = {"src"};
  agg.inputs = {ds::ContainerRef::whole_table("in")};
  agg.outputs = {ds::ContainerRef::whole_table("out")};
  agg.max_error = 0.1;
  agg.fn = [](wms::StepContext& ctx) {
    double sum = 0.0;
    ctx.client.scan(ds::ContainerRef::whole_table("in"),
                    [&sum](const ds::RowKey&, const ds::ColumnKey&, double v) { sum += v; });
    ctx.client.put("out", "total", "v", sum);
  };
  return wms::WorkflowSpec("overhead", {src, agg});
}

void BM_WaveSynchronousPlain(benchmark::State& state) {
  ds::DataStore store;
  wms::WorkflowEngine engine(overhead_spec(), store);
  wms::SyncController sync;
  ds::Timestamp wave = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_wave(++wave, sync));
  }
}
BENCHMARK(BM_WaveSynchronousPlain);

void BM_WaveWithMonitoring(benchmark::State& state) {
  ds::DataStore store;
  const auto spec = overhead_spec();
  wms::WorkflowEngine engine(spec, store);
  core::TrainingController trainer(spec, store, {});
  ds::Timestamp wave = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_wave(++wave, trainer));
  }
}
BENCHMARK(BM_WaveWithMonitoring);

void BM_WaveParallel(benchmark::State& state) {
  ds::DataStore store;
  wms::WorkflowEngine engine(
      overhead_spec(), store,
      wms::WorkflowEngine::Options{.worker_threads = static_cast<std::size_t>(state.range(0))});
  wms::SyncController sync;
  ds::Timestamp wave = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_wave(++wave, sync));
  }
}
BENCHMARK(BM_WaveParallel)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
