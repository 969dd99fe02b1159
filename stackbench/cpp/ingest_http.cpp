// ingest_http: the deployed serving shape of `aqhi_monitor --serve` under an
// open-loop HTTP ingest generator. One generator thread POSTs pre-built AQHI
// sensor bodies over kConnections keep-alive connections at fixed rates; a
// driver thread drains the IngestBridge into run_waves_pipelined(w, 1, ...)
// with the compute-only AQHI workflow on a durable 4-shard store (kEveryWave
// flush). Latencies are timed from each request's due time.
#include <sys/epoll.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "datastore/datastore.h"
#include "http_client.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "phases.h"
#include "wms/engine.h"
#include "workloads/aqhi/aqhi.h"

namespace stackbench {

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kRowsPerRequest = 24;
constexpr std::size_t kBodiesPerConnection = 512;
constexpr const char* kTable = "sensors";
// Wave cadence of the serving stack: a wave starts every period and drains
// everything staged since the previous one.
constexpr auto kWavePeriod = std::chrono::milliseconds(10);
constexpr const char* kPollutants[3] = {"o3", "pm25", "no2"};

// Service-level objective that defines max_rows_per_s_in_slo.
constexpr double kAckSloMs = 50.0;
constexpr double kDurableSloMs = 200.0;
// Requests per p99 window (windowed_p99): a quarter second at the nominal
// rate.
constexpr std::size_t kP99Window = 4000;
// Untimed traffic at the nominal rate before the first measured step.
constexpr double kWarmupSeconds = 1.0;
// A run is invalid when the generator itself fell behind: its median send
// lateness (send time - due time) exceeds this. A stall of the generator's
// thread shows in the p99 (reported) but not in the median; a generator too
// slow for its rate drifts further behind with every request and does.
constexpr double kGeneratorLateLimitMs = 5.0;

struct Cell {
  std::string row;
  std::size_t pollutant = 0;
  std::size_t x = 0;
  std::size_t y = 0;
};

/// Every request the generator may send, built during set-up from the seed.
/// Connection c owns the cells with index % kConnections == c, so the last
/// value of each cell is decided by one connection's in-order stream.
struct IngestInputs {
  std::vector<Cell> cells;
  std::vector<std::vector<std::size_t>> cells_of;         // per connection
  std::vector<std::vector<std::string>> requests;         // [conn][body] wire bytes
  std::vector<std::vector<std::vector<double>>> values;   // [conn][body][k]
  std::vector<std::vector<std::size_t>> body_bytes;       // [conn][body] payload bytes

  IngestInputs(std::uint64_t seed, std::size_t bodies) {
    workloads::AqhiParams params;
    params.seed = seed;
    const workloads::AqhiWorkload aqhi(params);
    for (std::size_t x = 0; x < params.grid; ++x) {
      for (std::size_t y = 0; y < params.grid; ++y) {
        for (std::size_t p = 0; p < 3; ++p) {
          cells.push_back(Cell{"d" + std::to_string(x) + "_" + std::to_string(y), p, x, y});
        }
      }
    }
    cells_of.resize(kConnections);
    for (std::size_t i = 0; i < cells.size(); ++i) cells_of[i % kConnections].push_back(i);
    requests.resize(kConnections);
    values.resize(kConnections);
    body_bytes.resize(kConnections);
    const std::uint64_t wave_offset = seed % 997;
    for (std::size_t c = 0; c < kConnections; ++c) {
      const auto& mine = cells_of[c];
      for (std::size_t b = 0; b < bodies; ++b) {
        std::string body;
        std::vector<double> vals;
        for (std::size_t k = 0; k < kRowsPerRequest; ++k) {
          const Cell& cell = cells[mine[(b * kRowsPerRequest + k) % mine.size()]];
          const double v = aqhi.sensor(cell.pollutant, cell.x, cell.y, wave_offset + b) +
                           unit_draw(seed, c * bodies + b, k);
          body += cell.row;
          body += ',';
          body += kPollutants[cell.pollutant];
          body += ',';
          body += format_value(v);
          body += '\n';
          vals.push_back(v);
        }
        body_bytes[c].push_back(body.size());
        requests[c].push_back(post_request("/ingest/sensors", body));
        values[c].push_back(std::move(vals));
      }
    }
  }

  /// Request i goes to connection i % kConnections, which sends its bodies
  /// in order, cycling.
  static std::size_t conn_of(std::size_t i) { return i % kConnections; }
};

struct WaveRecord {
  ds::Timestamp wave = 0;
  Clock::time_point start, drain_start, drain_end, end;
  std::size_t rows = 0;
  double steps_ms = 0.0;  ///< critical path of the step durations
};

/// The serving stack of one set-up repetition.
class IngestStack {
 public:
  IngestStack(const std::string& dir, const workloads::AqhiWorkload& aqhi, SpanLog& spans)
      : dir_(dir), spans_(spans) {
    remove_tree(dir_);
    ds::ShardOptions shard_options;
    shard_options.shards = kShards;
    store_ = std::make_unique<ds::DataStore>(4, shard_options);
    ds::DurabilityOptions durability;
    durability.flush = ds::WalFlushPolicy::kEveryWave;
    // A registry of its own in the traced pass: the scan phase's durable
    // store, running between this phase's stretches, syncs too.
    if (spans.enabled()) registry_ = std::make_unique<obs::MetricsRegistry>();
    durability.metrics = registry_.get();
    store_->enable_durability(dir_, durability);
    engine_ = std::make_unique<wms::WorkflowEngine>(
        traced_steps(aqhi.make_compute_workflow(), spans, &wave_span_), *store_);
    bridge_ = std::make_unique<net::IngestBridge>(net::IngestBridge::Options{});
    net::GatewayOptions gateway;
    gateway.store = store_.get();
    gateway.ingest = bridge_.get();
    net::ServerOptions server_options;
    server_options.loop_threads = 1;
    server_ = std::make_unique<net::Server>(net::make_gateway_router(gateway), server_options);
    server_->start();
    driver_ = std::thread([this] { drive(); });
  }

  ~IngestStack() {
    stop();
    server_.reset();
    engine_.reset();
    store_.reset();
    remove_tree(dir_);
  }

  IngestStack(const IngestStack&) = delete;
  IngestStack& operator=(const IngestStack&) = delete;

  /// Drains what is still staged, then stops the driver and the server.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (driver_.joinable()) driver_.join();
    if (server_) server_->stop();
  }

  std::uint16_t port() const { return server_->port(); }
  net::IngestBridge& bridge() { return *bridge_; }
  ds::DataStore& store() { return *store_; }
  const std::string& dir() const { return dir_; }
  const std::string& driver_error() const { return driver_error_; }
  /// WAL fsyncs so far (`sf_ds_wal_syncs_total`; traced pass only).
  std::uint64_t wal_syncs() const {
    return registry_ ? counter_total(*registry_, "sf_ds_wal_syncs_total") : 0;
  }

  std::vector<WaveRecord> waves() const {
    std::lock_guard lock(waves_mutex_);
    return waves_;
  }
  std::size_t waves_run() const {
    std::lock_guard lock(waves_mutex_);
    return waves_.size();
  }
  /// Blocks until a wave whose drain began after `t` has returned; asks
  /// for one even when nothing is staged.
  bool wait_wave_after(Clock::time_point t, double timeout_s) {
    wave_wanted_.store(true, std::memory_order_release);
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (Clock::now() < deadline) {
      {
        std::lock_guard lock(waves_mutex_);
        if (!waves_.empty() && waves_.back().drain_start > t) return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

 private:
  // Starts a wave every kWavePeriod when rows are staged or a wave was asked
  // for (at once when the previous wave overran its period), the bridge's
  // WaveIngest feeding the sensors table as in aqhi_monitor. On stop it
  // drains what is staged.
  void drive() {
    wms::SyncController sync;
    const wms::WaveIngest drain = bridge_->make_ingest();
    ds::Timestamp wave = 1;
    Clock::time_point next = Clock::now();
    try {
      for (;;) {
        const bool stopping = stop_.load(std::memory_order_acquire);
        if (!stopping) std::this_thread::sleep_until(next);
        next = std::max(next + kWavePeriod, Clock::now());
        const bool wanted = wave_wanted_.exchange(false, std::memory_order_acq_rel);
        if (bridge_->staged_rows() == 0 && !wanted) {
          if (stopping) break;
          continue;
        }
        WaveRecord rec;
        rec.wave = wave;
        const std::uint64_t wave_id = spans_.reserve_id();
        wave_span_.store(wave_id, std::memory_order_relaxed);
        const wms::WaveIngest timed_drain = [&](ds::Client& client, ds::Timestamp w) {
          const std::uint64_t before = bridge_->stats().rows_ingested;
          rec.drain_start = Clock::now();
          drain(client, w);
          rec.drain_end = Clock::now();
          rec.rows = bridge_->stats().rows_ingested - before;
          spans_.record("bridge.drain", "bridge", wave_id, rec.drain_start, rec.drain_end);
        };
        rec.start = Clock::now();
        const auto results = engine_->run_waves_pipelined(wave, 1, sync, timed_drain);
        rec.end = Clock::now();
        spans_.record_with_id(wave_id, "wms.wave", "wms", 0, rec.start, rec.end);
        if (!results.empty()) {
          rec.steps_ms = critical_path_ms(engine_->spec(), results.front().durations);
        }
        std::lock_guard lock(waves_mutex_);
        waves_.push_back(rec);
        ++wave;
      }
    } catch (const std::exception& e) {
      driver_error_ = e.what();
    }
  }

  std::string dir_;
  SpanLog& spans_;
  std::unique_ptr<obs::MetricsRegistry> registry_;  ///< outlives the store that reports to it
  std::unique_ptr<ds::DataStore> store_;
  std::unique_ptr<wms::WorkflowEngine> engine_;
  std::unique_ptr<net::IngestBridge> bridge_;
  std::unique_ptr<net::Server> server_;
  std::atomic<std::uint64_t> wave_span_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> wave_wanted_{false};
  mutable std::mutex waves_mutex_;
  std::vector<WaveRecord> waves_;
  std::string driver_error_;
  std::thread driver_;  // last: joins before the members it uses go away
};

/// One fixed-rate step of the open-loop generator.
struct RateStep {
  double rps = 0.0;
  std::size_t n = 0;
  std::vector<Clock::time_point> due, sent, acked;
  std::vector<int> status;
  std::vector<double> staged_samples;  ///< staged_rows() every ~1 ms
  std::uint64_t refused = 0;
  std::uint64_t errors = 0;
  std::uint64_t acked_rows = 0;
  std::uint64_t acked_payload_bytes = 0;
  double gen_late_p50_ms = 0.0;
  double gen_late_p99_ms = 0.0;
  double active_s = 0.0;  ///< first due time to last ack
  std::vector<double> ack_ms, service_ms, durable_ms;
  bool backlog_grows = false;

  bool meets_slo() const {
    return refused == 0 && errors == 0 && !backlog_grows &&
           windowed_p99(ack_ms, kP99Window) <= kAckSloMs &&
           windowed_p99(durable_ms, kP99Window) <= kDurableSloMs;
  }
};

class Generator {
 public:
  Generator(std::uint16_t port, const IngestInputs& inputs) : inputs_(inputs) {
    epoll_ = ::epoll_create1(0);
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_.push_back(std::make_unique<PipelinedConnection>(port));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conns_[c]->fd(), &ev);
    }
    next_body_.assign(kConnections, 0);
  }
  ~Generator() { ::close(epoll_); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Per connection, the bodies sent so far (in order), for the final
  /// last-value check.
  const std::vector<std::size_t>& sends_per_connection() const { return next_body_; }

  /// Sends `step.n` requests at `step.rps`, collecting every reply.
  void run(RateStep& step, IngestStack& stack) {
    const std::size_t n = step.n;
    step.due.resize(n);
    step.sent.resize(n);
    step.acked.resize(n);
    step.status.assign(n, 0);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    const auto interval = std::chrono::duration<double>(1.0 / step.rps);
    for (std::size_t i = 0; i < n; ++i) {
      step.due[i] =
          t0 + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
    }
    std::vector<std::deque<std::size_t>> inflight(kConnections);
    std::vector<HttpReply> replies;
    std::size_t next = 0;
    std::size_t done = 0;
    Clock::time_point last_sample = t0;
    epoll_event events[kConnections];
    const auto give_up = t0 + std::chrono::duration<double>(static_cast<double>(n) / step.rps + 30);
    while (done < n) {
      Clock::time_point now = Clock::now();
      if (now > give_up) break;
      while (next < n && step.due[next] <= now) {
        const std::size_t c = IngestInputs::conn_of(next);
        const std::size_t body = next_body_[c]++ % inputs_.requests[c].size();
        conns_[c]->queue(inputs_.requests[c][body]);
        step.sent[next] = now;
        inflight[c].push_back(next);
        sent_body_.push_back(body);
        ++next;
      }
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (conns_[c]->has_pending_output()) conns_[c]->flush();
      }
      if (now - last_sample >= std::chrono::milliseconds(1)) {
        step.staged_samples.push_back(static_cast<double>(stack.bridge().staged_rows()));
        last_sample = now;
      }
      // Sleep until the next request is due (at most 1 ms), or a reply.
      auto wait = std::chrono::nanoseconds(1'000'000);
      if (next < n) {
        wait = std::min(wait, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  step.due[next] - Clock::now()));
      }
      wait = std::max(wait, std::chrono::nanoseconds(0));
      const timespec ts{static_cast<time_t>(wait.count() / 1'000'000'000),
                        static_cast<long>(wait.count() % 1'000'000'000)};
      const int ready = ::epoll_pwait2(epoll_, events, kConnections, &ts, nullptr);
      for (int e = 0; e < ready; ++e) {
        const std::size_t c = events[e].data.u64;
        replies.clear();
        const bool open = conns_[c]->read_replies(replies);
        const Clock::time_point at = Clock::now();
        for (const HttpReply& reply : replies) {
          if (inflight[c].empty()) {
            ++step.errors;
            continue;
          }
          const std::size_t i = inflight[c].front();
          inflight[c].pop_front();
          step.acked[i] = at;
          step.status[i] = reply.status;
          ++done;
          if (reply.status == 202) {
            step.acked_rows += kRowsPerRequest;
          } else if (reply.status == 503) {
            ++step.refused;
          } else {
            ++step.errors;
          }
        }
        if (!open) {
          step.errors += n - done;
          done = n;
        }
      }
    }
    if (done < n) step.errors += n - done;
    // Payload bytes of the acked requests (the WAL amplification base).
    for (std::size_t i = 0; i < n; ++i) {
      if (step.status[i] != 202) continue;
      const std::size_t c = IngestInputs::conn_of(i);
      step.acked_payload_bytes += inputs_.body_bytes[c][sent_body_[sent_base_ + i]];
    }
    sent_base_ += n;
  }

 private:
  const IngestInputs& inputs_;
  int epoll_ = -1;
  std::vector<std::unique_ptr<PipelinedConnection>> conns_;
  std::vector<std::size_t> next_body_;
  std::vector<std::size_t> sent_body_;  ///< body index of every request, in send order
  std::size_t sent_base_ = 0;
};

/// Fills the step's latency vectors from its timestamps and the waves.
void finish_step(RateStep& step, const std::vector<WaveRecord>& waves) {
  std::vector<double> late;
  late.reserve(step.n);
  for (std::size_t i = 0; i < step.n; ++i) {
    late.push_back(ms_between(step.due[i], step.sent[i]));
    if (step.status[i] != 202) continue;
    step.ack_ms.push_back(ms_between(step.due[i], step.acked[i]));
    step.service_ms.push_back(ms_between(step.sent[i], step.acked[i]));
    // First wave whose drain began after the ack: by its return the rows
    // are fsynced (commit_wave) and computed.
    const auto it = std::upper_bound(
        waves.begin(), waves.end(), step.acked[i],
        [](Clock::time_point t, const WaveRecord& w) { return t < w.drain_start; });
    if (it == waves.end()) {
      ++step.errors;
      continue;
    }
    step.durable_ms.push_back(ms_between(step.acked[i], it->end));
  }
  step.gen_late_p50_ms = quantile(late, 0.5);
  step.gen_late_p99_ms = quantile(late, 0.99);
  if (step.n > 0) {
    step.active_s = s_between(step.due.front(),
                              *std::max_element(step.acked.begin(), step.acked.end()));
  }
  // Backlog growth: staged rows in the last third of the step against the
  // first third, with slack of 50 ms worth of arrivals.
  const auto& s = step.staged_samples;
  if (s.size() >= 6) {
    const std::size_t third = s.size() / 3;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += s[i];
      last += s[s.size() - 1 - i];
    }
    first /= static_cast<double>(third);
    last /= static_cast<double>(third);
    step.backlog_grows = last > first + step.rps * kRowsPerRequest * 0.05;
  }
}

double p(const std::vector<double>& v, double q) { return quantile(v, q); }
double p99(const std::vector<double>& v) { return windowed_p99(v, kP99Window); }

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// The finished nominal-rate stretches as one step: samples in send order,
/// counters summed, backlog growth when any stretch grew.
RateStep merge_steps(const std::vector<RateStep>& parts) {
  RateStep all;
  std::vector<double> late;
  for (const RateStep& part : parts) {
    all.rps = part.rps;
    all.n += part.n;
    append(all.due, part.due);
    append(all.sent, part.sent);
    append(all.acked, part.acked);
    append(all.status, part.status);
    append(all.staged_samples, part.staged_samples);
    append(all.ack_ms, part.ack_ms);
    append(all.service_ms, part.service_ms);
    append(all.durable_ms, part.durable_ms);
    all.refused += part.refused;
    all.errors += part.errors;
    all.acked_rows += part.acked_rows;
    all.acked_payload_bytes += part.acked_payload_bytes;
    all.active_s += part.active_s;
    all.backlog_grows = all.backlog_grows || part.backlog_grows;
    for (std::size_t i = 0; i < part.n; ++i) late.push_back(ms_between(part.due[i], part.sent[i]));
  }
  all.gen_late_p50_ms = quantile(late, 0.5);
  all.gen_late_p99_ms = quantile(late, 0.99);
  return all;
}

class IngestHttp final : public Phase {
 public:
  IngestHttp(const PhaseConfig& config, SpanLog& spans, Report& report)
      : spans_(spans),
        report_(report),
        seed_(config.seed),
        nominal_rps_(config.short_mode ? 2'000.0 : 16'000.0),
        // The ladder above the nominal rate, as multiples of it.
        ladder_(config.short_mode ? std::vector<double>{2.0} : std::vector<double>{2.0, 3.125}),
        inputs_(config.seed, config.short_mode ? 32 : kBodiesPerConnection),
        aqhi_(aqhi_params(config.seed)) {
    // Set-up: durable store, engine, bridge, server, driver, and one warm-up
    // wave carrying a full sensor grid. Repeated; the last stack is kept.
    for (int rep = 0; rep < config.setup_reps; ++rep) {
      stack_.reset();
      const auto t0 = Clock::now();
      stack_ = std::make_unique<IngestStack>(config.data_dir + "/ingest_http", aqhi_, spans_);
      {
        net::testing::Client client(stack_->port());
        std::string grid;
        for (const Cell& cell : inputs_.cells) {
          grid += cell.row + "," + kPollutants[cell.pollutant] + ",50\n";
        }
        const auto reply = client.request("POST", "/ingest/sensors", grid);
        report_.check(reply.status == 202, "ingest_http: warm-up grid accepted");
      }
      report_.check(stack_->wait_wave_after(t0, 30.0), "ingest_http: warm-up wave ran");
      setup_s_.push_back(s_between(t0, Clock::now()));
    }
    generator_ = std::make_unique<Generator>(stack_->port(), inputs_);
    // Warm-up at the nominal rate, untimed: the first second after set-up
    // also carries the torn-down stacks' file deletions.
    warm_.rps = nominal_rps_;
    warm_.n = static_cast<std::size_t>(nominal_rps_ * kWarmupSeconds);
    send(warm_);
    waves_before_ = stack_->waves_run();
    syncs_before_ = stack_->wal_syncs();
  }

  // One stretch at the nominal rate.
  void run(double seconds) override {
    RateStep step;
    step.rps = nominal_rps_;
    step.n = static_cast<std::size_t>(nominal_rps_ * seconds);
    send(step);
    nominal_seconds_ += seconds;
    nominal_parts_.push_back(std::move(step));
  }

  void finish() override;

 private:
  static workloads::AqhiParams aqhi_params(std::uint64_t seed) {
    workloads::AqhiParams params;
    params.seed = seed;
    return params;
  }

  /// Sends the step, waits until its rows are durable, fills its latencies.
  void send(RateStep& step) {
    {
      const ClientPriority generator_priority;
      generator_->run(step, *stack_);
    }
    Clock::time_point last_ack = Clock::now();
    for (const auto& t : step.acked) last_ack = std::max(last_ack, t);
    report_.check(stack_->wait_wave_after(last_ack, 60.0), "ingest_http: backlog drained");
    finish_step(step, stack_->waves());
  }

  SpanLog& spans_;
  Report& report_;
  const std::uint64_t seed_;
  const double nominal_rps_;
  const std::vector<double> ladder_;
  const IngestInputs inputs_;
  const workloads::AqhiWorkload aqhi_;
  std::unique_ptr<IngestStack> stack_;
  std::unique_ptr<Generator> generator_;
  std::size_t waves_before_ = 0;
  std::uint64_t syncs_before_ = 0;
  RateStep warm_;
  std::vector<RateStep> nominal_parts_;
  double nominal_seconds_ = 0.0;
};

void IngestHttp::finish() {
  const bool traced = spans_.enabled();
  const std::size_t nominal_waves_end = stack_->waves_run();
  std::vector<RateStep> steps{merge_steps(nominal_parts_)};
  // The ladder: each rung for a sixth of the nominal time, in order,
  // stopping at the first miss.
  double max_rows_per_s = 0.0;
  for (std::size_t k = 0; k <= ladder_.size(); ++k) {
    if (k > 0) {
      RateStep rung;
      rung.rps = nominal_rps_ * ladder_[k - 1];
      rung.n = static_cast<std::size_t>(rung.rps * nominal_seconds_ / 6.0);
      send(rung);
      steps.push_back(std::move(rung));
    }
    if (!steps.back().meets_slo()) break;
    // The throughput the rung sustained: acked rows over its active time.
    max_rows_per_s = static_cast<double>(steps.back().acked_rows) /
                     std::max(steps.back().active_s, 1e-9);
  }

  std::uint64_t attempted = warm_.n, failed = 0, acked_rows = warm_.acked_rows;
  std::uint64_t acked_payload = warm_.acked_payload_bytes;
  for (const int status : warm_.status) failed += status == 202 ? 0 : 1;
  bool generator_late = false;
  for (const RateStep& step : steps) {
    attempted += step.n;
    failed += step.errors;
    acked_rows += step.acked_rows;
    acked_payload += step.acked_payload_bytes;
    generator_late = generator_late || step.gen_late_p50_ms > kGeneratorLateLimitMs;
  }
  // Refusals on the ladder are the measurement, not failures; refusals at
  // the nominal rate are failures.
  const RateStep& nominal = steps.front();
  failed += nominal.refused;
  report_.operations(attempted, failed);
  report_.check(!generator_late,
                "ingest_http: generator kept its schedule (median lateness <= 5 ms)");
  report_.check(stack_->driver_error().empty(),
                "ingest_http: waves ran: " + stack_->driver_error());
  headline_p50_ms_ = p(nominal.ack_ms, 0.5);

  // Correctness: conservation and last values, read back directly and over
  // HTTP, after everything staged has been drained.
  const net::IngestBridge::Stats bridge_stats = stack_->bridge().stats();
  const std::uint64_t warmup_grid_rows = inputs_.cells.size();
  report_.check(bridge_stats.rows_staged == acked_rows + warmup_grid_rows,
                "ingest_http: rows acked == rows staged");
  report_.check(bridge_stats.rows_ingested == bridge_stats.rows_staged,
                "ingest_http: rows staged == rows drained");
  std::vector<double> last(inputs_.cells.size(), 50.0);
  const auto& sends = generator_->sends_per_connection();
  for (std::size_t c = 0; c < kConnections; ++c) {
    const std::size_t bodies = inputs_.requests[c].size();
    const std::size_t tail = std::min<std::size_t>(sends[c], 16);
    for (std::size_t s = sends[c] - tail; s < sends[c]; ++s) {
      const std::size_t b = s % bodies;
      const auto& mine = inputs_.cells_of[c];
      for (std::size_t k = 0; k < kRowsPerRequest; ++k) {
        last[mine[(b * kRowsPerRequest + k) % mine.size()]] = inputs_.values[c][b][k];
      }
    }
  }
  std::size_t readable = 0;
  for (std::size_t i = 0; i < inputs_.cells.size(); ++i) {
    const auto v = stack_->store().get(kTable, inputs_.cells[i].row,
                                       kPollutants[inputs_.cells[i].pollutant]);
    if (v && *v == last[i]) ++readable;
  }
  report_.check(readable == inputs_.cells.size(),
                "ingest_http: every posted cell readable with its last posted value");
  {
    net::testing::Client client(stack_->port());
    std::size_t spot_ok = 0;
    constexpr std::size_t kSpots = 32;
    for (std::size_t s = 0; s < kSpots; ++s) {
      const std::size_t i = mix64(seed_ * 131 + s) % inputs_.cells.size();
      const auto reply =
          client.request("GET", "/get?table=sensors&row=" + inputs_.cells[i].row +
                                    "&col=" + kPollutants[inputs_.cells[i].pollutant]);
      double got = 0.0;
      const auto colon = reply.body.find(':');
      if (reply.status == 200 && colon != std::string::npos) {
        std::from_chars(reply.body.data() + colon + 1, reply.body.data() + reply.body.size(), got);
        if (got == last[i]) ++spot_ok;
      }
    }
    report_.check(spot_ok == kSpots, "ingest_http: spot /get values equal the posted values");
  }

  std::string rates = "[";
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const RateStep& s = steps[k];
    char buf[640];
    std::snprintf(buf, sizeof buf,
                  "%s{\"rows_per_s\": %.0f, \"requests\": %zu, \"ack_p50_ms\": %.4f, "
                  "\"ack_p99_ms\": %.4f, \"durable_p50_ms\": %.4f, \"durable_p99_ms\": %.4f, "
                  "\"refused\": %llu, \"backlog_grows\": %s, \"gen_late_p99_ms\": %.4f, "
                  "\"meets_slo\": %s}",
                  k ? ", " : "", s.rps * kRowsPerRequest, s.n, p(s.ack_ms, 0.5), p99(s.ack_ms),
                  p(s.durable_ms, 0.5), p99(s.durable_ms),
                  static_cast<unsigned long long>(s.refused), s.backlog_grows ? "true" : "false",
                  s.gen_late_p99_ms, s.meets_slo() ? "true" : "false");
    rates += buf;
  }
  rates += "]";
  report_.detail(traced ? "ingest_http.traced_rates" : "ingest_http.rates", rates);

  if (!traced) {
    report_.metric("ack_p50_ms", p(nominal.ack_ms, 0.5), "ms");
    report_.metric("durable_p50_ms", p(nominal.durable_ms, 0.5), "ms");
    // Tails follow the host's scheduling and fsync noise more than the
    // stack: reported with the per-layer set, outside the bounded one.
    report_.layer("ack_p99_ms", p99(nominal.ack_ms), "ms");
    report_.layer("durable_p99_ms", p99(nominal.durable_ms), "ms");
    report_.metric("max_rows_per_s_in_slo", max_rows_per_s, "rows/s");
    return;
  }
  // Waves of the nominal stretches, without the empty ones that close a
  // stretch (asked for so its last requests have a wave to be durable in).
  const std::vector<WaveRecord> all_waves = stack_->waves();
  const std::vector<WaveRecord> waves(all_waves.begin() + static_cast<long>(waves_before_),
                                      all_waves.begin() + static_cast<long>(nominal_waves_end));
  std::vector<double> drain_ms, wave_ms, overhead_ms, rows;
  for (const WaveRecord& w : waves) {
    if (w.rows == 0) continue;
    drain_ms.push_back(ms_between(w.drain_start, w.drain_end));
    wave_ms.push_back(ms_between(w.start, w.end));
    overhead_ms.push_back(wave_ms.back() - drain_ms.back() - w.steps_ms);
    rows.push_back(static_cast<double>(w.rows));
  }
  std::uint64_t refused = 0;
  for (const RateStep& s : steps) refused += s.refused;
  report_.layer("gen.late_p99_ms", nominal.gen_late_p99_ms, "ms");
  report_.layer("net.ingest_service_p50_ms", p(nominal.service_ms, 0.5), "ms");
  report_.layer("net.ingest_service_p99_ms", p99(nominal.service_ms), "ms");
  report_.layer("net.ingest_refused_ratio",
                static_cast<double>(refused) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
                "ratio");
  report_.layer("bridge.drain_p50_ms", p(drain_ms, 0.5), "ms");
  report_.layer("bridge.drain_p99_ms", p(drain_ms, 0.99), "ms");
  report_.layer("bridge.rows_per_drain", rows.empty() ? 0.0 : sum(rows) / rows.size(), "rows");
  report_.layer("bridge.staged_rows_peak",
                nominal.staged_samples.empty()
                    ? 0.0
                    : *std::max_element(nominal.staged_samples.begin(), nominal.staged_samples.end()),
                "rows");
  report_.layer("wms.wave_p50_ms", p(wave_ms, 0.5), "ms");
  report_.layer("wms.wave_p99_ms", p(wave_ms, 0.99), "ms");
  report_.layer("wms.overhead_p50_ms", p(overhead_ms, 0.5), "ms");
  const std::uint64_t syncs = stack_->wal_syncs() - syncs_before_;
  const std::size_t waves_run = all_waves.size() - waves_before_;
  report_.layer("ds.fsyncs_per_wave",
                static_cast<double>(syncs) / static_cast<double>(std::max<std::size_t>(waves_run, 1)),
                "count");
  std::uintmax_t wal_bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(stack_->dir())) {
    if (entry.is_regular_file()) wal_bytes += entry.file_size();
  }
  report_.layer("ds.wal_bytes_per_user_byte",
                static_cast<double>(wal_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(acked_payload, 1)),
                "ratio");
  report_.detail("ingest_http.waves", static_cast<double>(waves_run));
  report_.detail("ingest_http.wal_bytes", static_cast<double>(wal_bytes));
  report_.detail("ingest_http.acked_payload_bytes", static_cast<double>(acked_payload));

  // Request spans (1 in 8) of the nominal stretches, each with a child
  // `ingest.durable:wave<N>` span from its ack to the return of the wave
  // that made it durable.
  for (std::size_t i = 0; i < nominal.n; i += 8) {
    if (nominal.status[i] != 202) continue;
    const std::uint64_t req =
        spans_.record("net.request", "net", 0, nominal.sent[i], nominal.acked[i]);
    const auto it = std::upper_bound(
        all_waves.begin(), all_waves.end(), nominal.acked[i],
        [](Clock::time_point t, const WaveRecord& w) { return t < w.drain_start; });
    if (it != all_waves.end()) {
      spans_.record("ingest.durable:wave" + std::to_string(it->wave), "wait", req,
                    nominal.acked[i], it->end);
    }
  }
}

}  // namespace

std::unique_ptr<Phase> make_ingest_http(const PhaseConfig& config, SpanLog& spans,
                                        Report& report) {
  return std::make_unique<IngestHttp>(config, spans, report);
}

}  // namespace stackbench
