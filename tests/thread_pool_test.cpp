#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "workloads/aqhi/aqhi.h"

namespace smartflux {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, RunAllBlocksUntilComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back([&counter] { ++counter; });
  pool.run_all(std::move(tasks));
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, RunAllRethrowsFirstError) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&completed] { ++completed; });
  tasks.push_back([] { throw std::logic_error("task 1 failed"); });
  tasks.push_back([&completed] { ++completed; });
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::logic_error);
  EXPECT_EQ(completed.load(), 2);  // the other tasks still ran
}

TEST(ThreadPool, NestedRunAllDoesNotDeadlock) {
  // A task running on the pool issues its own run_all on the SAME pool —
  // the sharded put_batch-inside-a-workflow-step shape. The caller-
  // participating design means the inner batch always completes even with
  // every worker occupied by outer tasks.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &inner_total] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) inner.push_back([&inner_total] { ++inner_total; });
      pool.run_all(std::move(inner));
    });
  }
  pool.run_all(std::move(outer));
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, NestedRunAllPropagatesInnerErrors) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> outer;
  outer.push_back([&pool] {
    std::vector<std::function<void()>> inner;
    inner.push_back([] { throw std::logic_error("inner failed"); });
    pool.run_all(std::move(inner));  // rethrows here, inside the outer task
  });
  EXPECT_THROW(pool.run_all(std::move(outer)), std::logic_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 30; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPool, RejectsInvalidArguments) {
  EXPECT_THROW(ThreadPool pool(0), smartflux::InvalidArgument);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), smartflux::InvalidArgument);
}

TEST(ThreadPool, HelperPoolIsOneProcessWidePoolSizedToTheHardware) {
  ThreadPool& pool = helper_pool();
  EXPECT_EQ(&pool, &helper_pool());
  const unsigned hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(pool.thread_count(), hardware > 1 ? hardware - 1 : 1u);
  // Nested use from another pool's task (a workflow step issuing a sharded
  // put_batch) completes even while every helper is busy.
  ThreadPool engine_pool(2);
  std::atomic<int> total{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&total] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 6; ++j) inner.push_back([&total] { ++total; });
      helper_pool().run_all(std::move(inner));
    });
  }
  engine_pool.run_all(std::move(outer));
  EXPECT_EQ(total.load(), 24);
}

// --- Parallel wave execution -----------------------------------------------

TEST(ParallelEngine, MatchesSerialExecutionOnAqhi) {
  // The level-parallel engine must produce exactly the same store state and
  // execution pattern as the serial one for a synchronous run.
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  const workloads::AqhiWorkload workload(params);

  ds::DataStore serial_store, parallel_store;
  wms::WorkflowEngine serial(workload.make_workflow(), serial_store);
  wms::WorkflowEngine parallel(workload.make_workflow(), parallel_store,
                               wms::WorkflowEngine::Options{.worker_threads = 3});
  wms::SyncController sync_a, sync_b;

  for (ds::Timestamp wave = 1; wave <= 12; ++wave) {
    const auto a = serial.run_wave(wave, sync_a);
    const auto b = parallel.run_wave(wave, sync_b);
    ASSERT_EQ(a.executed, b.executed) << "wave " << wave;
  }
  for (const auto& table : serial_store.table_names()) {
    EXPECT_EQ(serial_store.snapshot(ds::ContainerRef::whole_table(table)),
              parallel_store.snapshot(ds::ContainerRef::whole_table(table)))
        << table;
  }
}

TEST(ParallelEngine, AdaptiveRunMatchesSerial) {
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  params.max_error = 0.10;
  const workloads::AqhiWorkload workload(params);

  auto run = [&](std::size_t workers) {
    ds::DataStore store;
    wms::WorkflowEngine engine(workload.make_workflow(), store,
                               wms::WorkflowEngine::Options{.worker_threads = workers});
    core::SmartFluxEngine smartflux(engine, {});
    smartflux.train(1, 60);
    smartflux.build_model();
    std::vector<std::vector<bool>> decisions;
    for (const auto& r : smartflux.run(61, 40)) {
      decisions.emplace_back(r.executed.begin(), r.executed.end());
    }
    return decisions;
  };

  EXPECT_EQ(run(0), run(3));
}

TEST(ParallelEngine, ControllerCallbacksStaySerialized) {
  // on_step_executed must never run concurrently: a counter without atomics
  // would race otherwise (checked indirectly via begin/end ordering).
  workloads::AqhiParams params;
  params.grid = 6;
  params.zone = 2;
  const workloads::AqhiWorkload workload(params);

  class CountingController final : public wms::TriggerController {
   public:
    int in_flight = 0;
    int max_in_flight = 0;
    bool should_execute(const wms::WorkflowSpec&, std::size_t, ds::Timestamp) override {
      return true;
    }
    void on_step_executed(const wms::WorkflowSpec&, std::size_t, ds::Timestamp) override {
      ++in_flight;
      max_in_flight = std::max(max_in_flight, in_flight);
      --in_flight;
    }
  } controller;

  ds::DataStore store;
  wms::WorkflowEngine engine(workload.make_workflow(), store,
                             wms::WorkflowEngine::Options{.worker_threads = 4});
  engine.run_waves(1, 5, controller);
  EXPECT_EQ(controller.max_in_flight, 1);
}

TEST(ParallelEngine, StepExceptionPropagates) {
  wms::StepSpec ok;
  ok.id = "ok";
  ok.fn = [](wms::StepContext&) {};
  wms::StepSpec bad;
  bad.id = "bad";
  bad.fn = [](wms::StepContext&) { throw std::runtime_error("step failure"); };
  ds::DataStore store;
  wms::WorkflowEngine engine(wms::WorkflowSpec("w", {ok, bad}), store,
                             wms::WorkflowEngine::Options{.worker_threads = 2});
  wms::SyncController sync;
  EXPECT_THROW(engine.run_wave(1, sync), std::runtime_error);
}

TEST(WorkflowSpecLevels, GroupByDependencyDepth) {
  auto step = [](wms::StepId id, std::vector<wms::StepId> preds) {
    wms::StepSpec s;
    s.id = std::move(id);
    s.predecessors = std::move(preds);
    s.fn = [](wms::StepContext&) {};
    return s;
  };
  // a -> {b, c}; {b, c} -> d; e independent.
  const wms::WorkflowSpec spec(
      "w", {step("a", {}), step("b", {"a"}), step("c", {"a"}), step("d", {"b", "c"}),
            step("e", {})});
  const auto& levels = spec.levels();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], (std::vector<std::size_t>{0, 4}));  // a, e
  EXPECT_EQ(levels[1], (std::vector<std::size_t>{1, 2}));  // b, c
  EXPECT_EQ(levels[2], (std::vector<std::size_t>{3}));     // d
}

}  // namespace
}  // namespace smartflux
