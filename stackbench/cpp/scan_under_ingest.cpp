// scan_under_ingest: a durable 4-shard store preloaded with a 10^5-cell
// table, served over HTTP. One reader thread runs closed loop, mixing
// streamed column scans (/scan?stream=1) and point reads (/get); one writer
// thread runs open loop, calling put_batch + commit_wave on the same table
// at a fixed rate. Writes time from their due time.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <thread>

#include "datastore/datastore.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "phases.h"

namespace stackbench {

namespace {

constexpr const char* kTable = "grid";
// Writer: kWriteBatch cells per wave at kWriteRate waves/s.
constexpr double kWriteRate = 100.0;
constexpr std::size_t kWriteBatch = 200;
// Reader: one column scan per kGetsPerScan point reads.
constexpr std::size_t kGetsPerScan = 16;
// Point reads per p99 window (windowed_p99).
constexpr std::size_t kGetWindow = 1000;
// Untimed reader and writer traffic before the measured window.
constexpr double kWarmupSeconds = 0.5;
// The writer's own lateness: wake-up time minus the later of its due time
// and the end of its previous write (a slow store is measured, not blamed).
// A run is invalid when its median exceeds this (see ingest_http.cpp).
constexpr double kWriterLateLimitMs = 5.0;

struct Shape {
  std::size_t rows;
  std::size_t cols;
  std::size_t cells() const { return rows * cols; }
};

std::string row_key(std::size_t r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%05zu", r);
  return buf;
}
std::string col_key(std::size_t c) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "c%02zu", c);
  return buf;
}

/// Everything the reader and writer send, generated from the seed.
struct ScanInputs {
  Shape shape;
  std::vector<std::string> rows, cols;
  std::vector<double> initial;                  ///< preload value per cell
  std::vector<std::vector<std::size_t>> batch_cells;  ///< per write wave
  std::vector<std::vector<double>> batch_values;
  std::vector<std::string> reads;               ///< request targets, cycled
  std::vector<std::size_t> read_cell;           ///< cell of a /get
  std::vector<int> scan_column;                 ///< column of a scan, -1 for a /get

  ScanInputs(std::uint64_t seed, Shape s, std::size_t batches, std::size_t read_ops) : shape(s) {
    for (std::size_t r = 0; r < s.rows; ++r) rows.push_back(row_key(r));
    for (std::size_t c = 0; c < s.cols; ++c) cols.push_back(col_key(c));
    for (std::size_t i = 0; i < s.cells(); ++i) initial.push_back(100.0 * unit_draw(seed, 1, i));
    for (std::size_t b = 0; b < batches; ++b) {
      std::vector<std::size_t> cells;
      std::vector<double> values;
      for (std::size_t k = 0; k < kWriteBatch; ++k) {
        cells.push_back(mix64(seed * 7919 + b * kWriteBatch + k) % s.cells());
        values.push_back(100.0 * unit_draw(seed, 2 + b, k));
      }
      // put_batch applies in op order; sorting by cell keeps "last op wins"
      // simple for the final check.
      std::vector<std::size_t> order(cells.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b2) { return cells[a] < cells[b2]; });
      std::vector<std::size_t> sorted_cells;
      std::vector<double> sorted_values;
      for (const std::size_t k : order) {
        sorted_cells.push_back(cells[k]);
        sorted_values.push_back(values[k]);
      }
      batch_cells.push_back(std::move(sorted_cells));
      batch_values.push_back(std::move(sorted_values));
    }
    for (std::size_t i = 0; i < read_ops; ++i) {
      if (i % (kGetsPerScan + 1) == 0) {
        const std::size_t c = mix64(seed * 31 + i) % s.cols;
        reads.push_back(std::string("/scan?table=grid&stream=1&column=") + cols[c]);
        read_cell.push_back(0);
        scan_column.push_back(static_cast<int>(c));
      } else {
        const std::size_t cell = mix64(seed * 37 + i) % s.cells();
        reads.push_back("/get?table=grid&row=" + rows[cell / s.cols] + "&col=" + cols[cell % s.cols]);
        read_cell.push_back(cell);
        scan_column.push_back(-1);
      }
    }
  }
  bool is_scan(std::size_t i) const { return scan_column[i] >= 0; }
};

/// The gateway's csv rendering of a snapshot (`row,col,%.17g\n`).
std::string render(const ds::FlatSnapshot& snapshot) {
  std::string out;
  for (const ds::FlatEntry& e : snapshot) {
    out += *e.row;
    out += ',';
    out += *e.col;
    out += ',';
    out += format_value(e.value);
    out += '\n';
  }
  return out;
}

struct ScanStack {
  std::string dir;
  std::unique_ptr<ds::DataStore> store;
  std::unique_ptr<net::Server> server;

  ScanStack(const std::string& d, const ScanInputs& inputs, SpanLog& spans) : dir(d) {
    remove_tree(dir);
    ds::ShardOptions shard_options;
    shard_options.shards = kShards;
    store = std::make_unique<ds::DataStore>(2, shard_options);
    ds::DurabilityOptions durability;
    durability.flush = ds::WalFlushPolicy::kEveryWave;
    durability.metrics = spans.registry();
    store->enable_durability(dir, durability);
    if (spans.enabled()) store->set_instrumentation(spans.registry(), spans.tracer());
    std::vector<ds::PutOp> ops;
    ops.reserve(inputs.shape.cells());
    for (std::size_t i = 0; i < inputs.shape.cells(); ++i) {
      ops.push_back(ds::PutOp{inputs.rows[i / inputs.shape.cols], inputs.cols[i % inputs.shape.cols],
                              inputs.initial[i]});
    }
    store->put_batch(kTable, 1, ops);
    store->commit_wave(1);
    net::GatewayOptions gateway;
    gateway.store = store.get();
    net::ServerOptions server_options;
    server_options.loop_threads = 1;
    server = std::make_unique<net::Server>(net::make_gateway_router(gateway), server_options);
    server->start();
  }
  ~ScanStack() {
    server.reset();
    store.reset();
    remove_tree(dir);
  }
  ScanStack(const ScanStack&) = delete;
  ScanStack& operator=(const ScanStack&) = delete;
};

double parse_get_value(const net::testing::ClientResponse& reply, bool* ok) {
  double got = 0.0;
  const auto colon = reply.body.find(':');
  *ok = reply.status == 200 && colon != std::string::npos &&
        std::from_chars(reply.body.data() + colon + 1, reply.body.data() + reply.body.size(), got)
                .ec == std::errc{};
  return got;
}

class ScanUnderIngest final : public Phase {
 public:
  ScanUnderIngest(const PhaseConfig& config, SpanLog& spans, Report& report)
      : spans_(spans),
        report_(report),
        seed_(config.seed),
        shape_(config.short_mode ? Shape{500, 20} : Shape{5000, 20}),
        batches_(static_cast<std::size_t>(kWriteRate * (config.seconds + kWarmupSeconds)) + 64),
        inputs_(config.seed, shape_, batches_, 4096),
        last_(inputs_.initial) {
    for (int rep = 0; rep < config.setup_reps; ++rep) {
      stack_.reset();
      const auto t0 = Clock::now();
      stack_ = std::make_unique<ScanStack>(config.data_dir + "/scan_under_ingest", inputs_, spans);
      setup_s_.push_back(s_between(t0, Clock::now()));
    }
  }

  // Writer and reader together for `seconds` (the first stretch also runs an
  // untimed warm-up before it).
  void run(double seconds) override;
  void finish() override;

 private:
  SpanLog& spans_;
  Report& report_;
  const std::uint64_t seed_;
  const Shape shape_;
  const std::size_t batches_;
  const ScanInputs inputs_;
  std::unique_ptr<ScanStack> stack_;
  std::vector<double> last_;  ///< last value written per cell
  std::size_t next_batch_ = 0;
  std::size_t next_read_ = 0;
  bool warmed_up_ = false;
  std::vector<double> write_ms_, put_ms_, commit_ms_, late_ms_;
  std::vector<double> scan_ms_, get_ms_, snapshot_ms_, direct_get_us_;
  std::uint64_t reads_ = 0, read_failures_ = 0;
  std::string writer_error_;
};

void ScanUnderIngest::run(double seconds) {
  const bool traced = spans_.enabled();
  ds::DataStore& store = *stack_->store;
  // Samples count from measured_from, after the warm-up of the first call.
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto measured_from =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(warmed_up_ ? 0.0 : kWarmupSeconds));
  const auto deadline = measured_from + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
  warmed_up_ = true;

  // Writer: open loop, put_batch + commit_wave per due time.
  std::thread writer([&] {
    try {
      std::vector<ds::PutOp> ops;
      Clock::time_point previous_end = t0;
      for (std::size_t k = 0; next_batch_ < batches_; ++k) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(static_cast<double>(k) / kWriteRate));
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        const std::size_t b = next_batch_++;
        ops.clear();
        const auto& cells = inputs_.batch_cells[b];
        for (std::size_t c = 0; c < cells.size(); ++c) {
          ops.push_back(ds::PutOp{inputs_.rows[cells[c] / shape_.cols],
                                  inputs_.cols[cells[c] % shape_.cols], inputs_.batch_values[b][c]});
          last_[cells[c]] = inputs_.batch_values[b][c];
        }
        const ds::Timestamp ts = 2 + b;
        const auto a = Clock::now();
        store.put_batch(kTable, ts, ops);
        const auto m = Clock::now();
        store.commit_wave(ts);
        const auto z = Clock::now();
        const Clock::time_point ready = std::max(due, previous_end);
        previous_end = z;
        if (due < measured_from) continue;
        spans_.record("ds.put_batch", "ds", 0, a, m);
        spans_.record("ds.commit_wave", "ds", 0, m, z);
        late_ms_.push_back(ms_between(ready, a));
        put_ms_.push_back(ms_between(a, m));
        commit_ms_.push_back(ms_between(m, z));
        write_ms_.push_back(ms_between(due, z));
      }
    } catch (const std::exception& e) {
      writer_error_ = e.what();
    }
  });

  // Reader: closed loop over HTTP, one keep-alive connection.
  {
    const ClientPriority reader_priority;
    net::testing::Client client(stack_->server->port());
    std::this_thread::sleep_until(t0);
    while (Clock::now() < deadline) {
      const std::size_t op = next_read_++ % inputs_.reads.size();
      ++reads_;
      const auto a = Clock::now();
      const auto reply = client.request("GET", inputs_.reads[op]);
      const auto b = Clock::now();
      if (a < measured_from) {
        read_failures_ += reply.status == 200 ? 0 : 1;
        continue;
      }
      if (inputs_.is_scan(op)) {
        const std::uint64_t id = spans_.record("net.scan", "net", 0, a, b);
        const auto lines =
            static_cast<std::size_t>(std::count(reply.body.begin(), reply.body.end(), '\n'));
        if (reply.status != 200 || !reply.chunked || lines != shape_.rows) ++read_failures_;
        scan_ms_.push_back(ms_between(a, b));
        if (traced) {
          const ds::ContainerRef column(
              kTable, inputs_.cols[static_cast<std::size_t>(inputs_.scan_column[op])]);
          const auto c = Clock::now();
          const ds::FlatSnapshot snap = store.snapshot_flat(column);
          const auto d = Clock::now();
          spans_.record("ds.snapshot_flat", "ds", id, c, d);
          snapshot_ms_.push_back(ms_between(c, d));
          if (snap.size() != shape_.rows) ++read_failures_;
        }
      } else {
        bool ok = false;
        parse_get_value(reply, &ok);
        if (!ok) ++read_failures_;
        get_ms_.push_back(ms_between(a, b));
        if (traced) {
          const std::size_t cell = inputs_.read_cell[op];
          const auto c = Clock::now();
          const auto v = store.get(kTable, inputs_.rows[cell / shape_.cols],
                                   inputs_.cols[cell % shape_.cols]);
          const auto d = Clock::now();
          direct_get_us_.push_back(ms_between(c, d) * 1e3);
          if (!v) ++read_failures_;
        }
      }
    }
  }
  writer.join();
}

void ScanUnderIngest::finish() {
  const bool traced = spans_.enabled();
  ds::DataStore& store = *stack_->store;
  const std::size_t written = next_batch_;
  report_.operations(reads_ + written, read_failures_);
  report_.check(writer_error_.empty(), "scan_under_ingest: writer ran: " + writer_error_);
  report_.check(written < batches_, "scan_under_ingest: writer inputs lasted the run");
  const double writer_late_p99 = quantile(late_ms_, 0.99);
  report_.check(quantile(late_ms_, 0.5) <= kWriterLateLimitMs,
                "scan_under_ingest: writer kept its schedule (median lateness <= 5 ms)");
  headline_p50_ms_ = median(scan_ms_);

  // Correctness at rest: the streamed scan equals a rendering of
  // snapshot_flat, and spot reads return the last written values.
  {
    net::testing::Client client(stack_->server->port());
    const auto whole = client.request("GET", "/scan?table=grid&stream=1");
    report_.check(whole.status == 200 && whole.chunked &&
                      whole.body ==
                          render(store.snapshot_flat(ds::ContainerRef::whole_table(kTable))),
                  "scan_under_ingest: streamed /scan bytes equal the snapshot_flat rendering");
    std::size_t spot_ok = 0;
    constexpr std::size_t kSpots = 64;
    for (std::size_t s = 0; s < kSpots; ++s) {
      // Half the spots are cells the writer touched last.
      const std::size_t cell = s % 2 == 0 && written > 0
                                   ? inputs_.batch_cells[written - 1][s % kWriteBatch]
                                   : mix64(seed_ * 41 + s) % shape_.cells();
      bool ok = false;
      const double got = parse_get_value(
          client.request("GET", "/get?table=grid&row=" + inputs_.rows[cell / shape_.cols] +
                                    "&col=" + inputs_.cols[cell % shape_.cols]),
          &ok);
      if (ok && got == last_[cell]) ++spot_ok;
    }
    report_.check(spot_ok == kSpots,
                  "scan_under_ingest: spot /get values equal the written values");
    report_.check(store.cell_count(kTable) == shape_.cells(), "scan_under_ingest: cell count kept");
  }
  report_.detail("scan_under_ingest.scans", static_cast<double>(scan_ms_.size()));
  report_.detail("scan_under_ingest.gets", static_cast<double>(get_ms_.size()));
  report_.detail("scan_under_ingest.writes", static_cast<double>(write_ms_.size()));
  report_.detail("scan_under_ingest.table_cells", static_cast<double>(shape_.cells()));

  if (!traced) {
    report_.metric("get_p50_ms", quantile(get_ms_, 0.5), "ms");
    // Tails follow the host's scheduling and fsync noise more than the
    // stack, and the scan's p50 jumps by a third between runs (with where
    // the reader and the server loop land on the vCPUs): reported with the
    // per-layer set, outside the bounded one.
    report_.layer("scan_p50_ms", quantile(scan_ms_, 0.5), "ms");
    report_.layer("scan_p99_ms", quantile(scan_ms_, 0.99), "ms");
    report_.layer("get_p99_ms", windowed_p99(get_ms_, kGetWindow), "ms");
    report_.layer("write_p99_ms", quantile(write_ms_, 0.99), "ms");
  } else {
    report_.layer("gen.writer_late_p99_ms", writer_late_p99, "ms");
    report_.layer("ds.snapshot_p50_ms", quantile(snapshot_ms_, 0.5), "ms");
    report_.layer("ds.snapshot_p99_ms", quantile(snapshot_ms_, 0.99), "ms");
    report_.layer("net.scan_transfer_p50_ms",
                  quantile(scan_ms_, 0.5) - quantile(snapshot_ms_, 0.5), "ms");
    report_.layer("ds.get_p50_us", quantile(direct_get_us_, 0.5), "us");
    report_.layer("ds.put_batch_p99_ms", quantile(put_ms_, 0.99), "ms");
    report_.layer("ds.commit_wave_p99_ms", quantile(commit_ms_, 0.99), "ms");
  }
}

}  // namespace

std::unique_ptr<Phase> make_scan_under_ingest(const PhaseConfig& config, SpanLog& spans,
                                              Report& report) {
  return std::make_unique<ScanUnderIngest>(config, spans, report);
}

}  // namespace stackbench
