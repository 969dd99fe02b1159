#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace smartflux::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Iovec fan-out per sendmsg call; a queue deeper than this just takes
/// another syscall on the next flush round.
constexpr int kMaxIov = 64;

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error("net: " + what + ": " + std::strerror(errno));
}

void set_nonblocking_fd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

/// Pre-resolved sf_net_* metric handles, shared by every loop thread (all
/// increments use the thread-safe variants — with loop_threads > 1 a family
/// has several writers).
struct Server::Metrics {
  obs::Counter* m_connections = nullptr;
  obs::Counter* m_refused = nullptr;
  obs::Counter* m_requests_by_class[4] = {};
  obs::Counter* m_parse_errors = nullptr;
  obs::Counter* m_slow_disconnects = nullptr;
  obs::Counter* m_idle_disconnects = nullptr;
  obs::Counter* m_read_timeouts = nullptr;
  obs::Counter* m_streams = nullptr;
  obs::Counter* m_bytes_read = nullptr;
  obs::Counter* m_bytes_written = nullptr;
  obs::Gauge* m_active = nullptr;
  obs::Histogram* m_request_duration = nullptr;

  explicit Metrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    auto& reg = *registry;
    m_connections = &reg.counter("sf_net_connections_total", {},
                                 "TCP connections accepted by the HTTP front-end");
    m_refused = &reg.counter("sf_net_connections_refused_total", {},
                             "connections closed immediately (max_connections)");
    const char* classes[4] = {"2xx", "3xx", "4xx", "5xx"};
    for (int i = 0; i < 4; ++i) {
      m_requests_by_class[i] = &reg.counter("sf_net_requests_total", {{"status", classes[i]}},
                                            "HTTP requests served, by status class");
    }
    m_parse_errors = &reg.counter("sf_net_parse_errors_total", {},
                                  "connections dropped on a protocol error");
    m_slow_disconnects = &reg.counter("sf_net_slow_disconnects_total", {},
                                      "connections dropped for exceeding the write-buffer bound");
    m_idle_disconnects = &reg.counter("sf_net_idle_disconnects_total", {},
                                      "keep-alive connections reaped past idle_timeout_ms");
    m_read_timeouts = &reg.counter("sf_net_read_timeouts_total", {},
                                   "connections answered 408 past request_read_timeout_ms");
    m_streams = &reg.counter("sf_net_streams_total", {},
                             "chunked streaming responses begun");
    m_bytes_read = &reg.counter("sf_net_bytes_read_total", {}, "bytes read from clients");
    m_bytes_written = &reg.counter("sf_net_bytes_written_total", {}, "bytes written to clients");
    m_active = &reg.gauge("sf_net_active_connections", {}, "currently open connections");
    m_request_duration =
        &reg.histogram("sf_net_request_duration_seconds", obs::duration_buckets(), {},
                       "handler dispatch latency (parse-complete to response queued)");
  }
};

struct Server::Connection {
  int fd = -1;
  RequestParser parser;
  /// FIFO of pending response chunks (head / body / chunked frames kept as
  /// separate strings — flush sends them with one vectored write, so header
  /// and body are never concatenated).
  std::deque<std::string> out;
  std::size_t head_offset = 0;  ///< already-written prefix of out.front()
  std::size_t out_bytes = 0;    ///< total unsent bytes across the queue
  bool want_write = false;      ///< loop interest currently includes writable
  bool closing = false;         ///< close once out drains
  /// Active streaming response; while set, pipelined requests wait (the
  /// stream owns the response order).
  ChunkProducer stream;
  Clock::time_point last_activity;
  /// Read-deadline tracking: set when the parser first sits mid-request
  /// (partial head or incomplete body); the sweep answers 408 once
  /// now - request_start exceeds request_read_timeout_ms.
  bool mid_request = false;
  Clock::time_point request_start;
  std::size_t requests_served = 0;  ///< toward max_requests_per_connection
  explicit Connection(HttpLimits limits) : parser(limits), last_activity(Clock::now()) {}
};

/// One shared-nothing event loop: its thread, its listener (when
/// SO_REUSEPORT shards the accepts), its connections, and its lifetime
/// counters. Counters are relaxed atomics with a single writer (the loop
/// thread); stats() readers merge across loops and race benignly.
struct Server::Loop {
  explicit Loop(PollerBackend backend) : loop(backend) {}

  EventLoop loop;
  std::thread thread;
  int listen_fd = -1;  ///< own SO_REUSEPORT listener; -1 = shared fallback
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  Clock::time_point last_sweep{Clock::now()};

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> slow_disconnects{0};
  std::atomic<std::uint64_t> idle_disconnects{0};
  std::atomic<std::uint64_t> read_timeouts{0};
  std::atomic<std::uint64_t> streams_started{0};
  std::atomic<std::uint64_t> streams_completed{0};
  std::atomic<std::uint64_t> streams_aborted{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> peak_write_buffer{0};
};

Server::Server(Router router, ServerOptions options)
    : router_(std::move(router)),
      options_(std::move(options)),
      metrics_(std::make_unique<Metrics>(options_.metrics)) {
  const std::size_t n = std::max<std::size_t>(1, options_.loop_threads);
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<Loop>(options_.backend));
  }
}

Server::~Server() { stop(); }

const char* Server::backend_name() const noexcept { return loops_[0]->loop.backend_name(); }

namespace {

/// True when the kernel holds received bytes the loop has not read yet.
bool has_unread_input(int fd) {
  int pending = 0;
  return ::ioctl(fd, FIONREAD, &pending) == 0 && pending > 0;
}

int open_listener(const ServerOptions& options, std::uint16_t port, bool want_reuse_port,
                  bool* reuse_port_ok) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  bool reuse_port_set = false;
#ifdef SO_REUSEPORT
  if (want_reuse_port) {
    reuse_port_set = ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) == 0;
  }
#endif
  if (reuse_port_ok != nullptr) *reuse_port_ok = reuse_port_set;
  if (want_reuse_port && !reuse_port_set) {
    // Caller asked for a sharded listener but the kernel has no
    // SO_REUSEPORT: report failure so it can fall back to a shared fd.
    ::close(fd);
    return -1;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw InvalidArgument("net: invalid bind address '" + options.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, options.listen_backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind/listen on " + options.bind_address + ":" + std::to_string(port));
  }
  set_nonblocking_fd(fd);
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(bound.sin_port);
}

}  // namespace

void Server::bind_listeners() {
  const std::size_t n = loops_.size();
  if (n > 1 && options_.reuse_port) {
    // Shared-nothing sharding: one SO_REUSEPORT listener per loop, all on
    // the same port (the first bind resolves an ephemeral port for the
    // rest). The kernel load-balances incoming connections across them.
    const int first = open_listener(options_, options_.port, /*want_reuse_port=*/true, nullptr);
    if (first >= 0) {
      const std::uint16_t port = bound_port(first);
      loops_[0]->listen_fd = first;
      try {
        for (std::size_t i = 1; i < n; ++i) {
          loops_[i]->listen_fd = open_listener(options_, port, /*want_reuse_port=*/true, nullptr);
        }
      } catch (...) {
        for (auto& loop : loops_) {
          if (loop->listen_fd >= 0) ::close(loop->listen_fd);
          loop->listen_fd = -1;
        }
        throw;
      }
      port_.store(port, std::memory_order_release);
      reuse_port_active_.store(true, std::memory_order_release);
      return;
    }
    SF_LOG_WARN("net") << "SO_REUSEPORT unavailable; falling back to one shared listener";
  }
  // Single loop, or fallback: one listener. With several loops it is
  // watched by every loop and accepts are serialized by accept_mutex_.
  shared_listen_fd_ = open_listener(options_, options_.port, /*want_reuse_port=*/false, nullptr);
  port_.store(bound_port(shared_listen_fd_), std::memory_order_release);
  reuse_port_active_.store(false, std::memory_order_release);
}

void Server::start() {
  SF_CHECK(!running_.load(std::memory_order_acquire), "server already running");
  bind_listeners();

  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    const int fd = loop.listen_fd >= 0 ? loop.listen_fd : shared_listen_fd_;
    loop.loop.watch(fd, true, false, [this, &loop](bool, bool, bool) { on_accept(loop); });
  }

  running_.store(true, std::memory_order_release);
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.thread = std::thread([this, &loop] { loop_main(loop); });
  }
  SF_LOG_INFO("net") << "serving on " << options_.bind_address << ":" << port() << " ("
                     << loops_[0]->loop.backend_name() << ", " << loops_.size() << " loop"
                     << (loops_.size() == 1 ? "" : "s")
                     << (reuse_port_active() ? ", SO_REUSEPORT" : "") << ")";
}

int Server::sweep_tick_ms() const {
  // Tick often enough that a deadline is enforced within ~1.25x its value,
  // without busy-waking an idle loop; drain() also rides this tick to close
  // the listeners, so the cap keeps shutdown responsive.
  std::size_t tick = 250;
  if (options_.idle_timeout_ms > 0) tick = std::min(tick, options_.idle_timeout_ms / 4);
  if (options_.request_read_timeout_ms > 0) {
    tick = std::min(tick, options_.request_read_timeout_ms / 4);
  }
  return static_cast<int>(std::clamp<std::size_t>(tick, 10, 250));
}

void Server::loop_main(Loop& loop) {
  // Always tick: the sweep enforces the idle and read deadlines and is also
  // how a drain() request reaches the loop thread (listener close, idle
  // keep-alive reap).
  loop.loop.run(sweep_tick_ms(), [this, &loop] { sweep_idle(loop); });
}

void Server::sweep_idle(Loop& loop) {
  const auto now = Clock::now();
  const bool draining = draining_.load(std::memory_order_acquire);
  if (!draining) {
    // Steady state: the loop may wake far more often than the sweep needs
    // to run. While draining every tick counts — connections must be
    // reaped as they go quiet.
    const auto interval = std::chrono::milliseconds(static_cast<std::size_t>(sweep_tick_ms()));
    if (now - loop.last_sweep < interval) return;
  }
  loop.last_sweep = now;

  if (draining) {
    // Stop accepting: close our own listener, or hand back the shared one
    // (the last loop out closes the fd).
    if (loop.listen_fd >= 0) {
      loop.loop.unwatch(loop.listen_fd);
      ::close(loop.listen_fd);
      loop.listen_fd = -1;
    } else {
      // Shared fallback: every loop watches the one fd, so each unwatches
      // its own interest and the last one out closes it. accept_mutex_
      // orders this against concurrent accepts and the peers' sweeps.
      std::lock_guard lock(accept_mutex_);
      if (shared_listen_fd_ >= 0 && loop.loop.watching(shared_listen_fd_)) {
        loop.loop.unwatch(shared_listen_fd_);
        if (shared_unwatched_.fetch_add(1, std::memory_order_acq_rel) + 1 == loops_.size()) {
          ::close(shared_listen_fd_);
          shared_listen_fd_ = -1;
        }
      }
    }
  }

  const auto idle_timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
  const auto read_timeout = std::chrono::milliseconds(options_.request_read_timeout_ms);
  // Collect first: close_connection mutates the map.
  std::vector<int> read_expired;
  std::vector<int> drain_quiet;
  std::vector<int> idle_expired;
  for (const auto& [fd, conn] : loop.connections) {
    if (options_.request_read_timeout_ms > 0 && conn->mid_request &&
        now - conn->request_start > read_timeout) {
      read_expired.push_back(fd);
    } else if (draining && conn->out_bytes == 0 && !conn->stream && !conn->mid_request &&
               !has_unread_input(fd)) {
      // Keep-alive connection idle at a request boundary: nothing is owed
      // either way, so the drain ends it now. Bytes still in the kernel's
      // receive buffer are a request the loop has not read yet: it is in
      // flight, and closing over unread input would send RST instead of
      // its answer.
      drain_quiet.push_back(fd);
    } else if (options_.idle_timeout_ms > 0 && now - conn->last_activity > idle_timeout) {
      idle_expired.push_back(fd);
    }
  }
  for (const int fd : read_expired) {
    Connection& conn = *loop.connections.at(fd);
    loop.read_timeouts.fetch_add(1, std::memory_order_relaxed);
    if (metrics_->m_read_timeouts != nullptr) metrics_->m_read_timeouts->inc();
    enqueue(loop, conn, text_response(408, "request read timeout\n"),
            /*keep_alive=*/false, /*version_minor=*/1);
    conn.closing = true;
    flush(loop, conn);  // closes once the 408 is out (or on error)
  }
  for (const int fd : drain_quiet) close_connection(loop, fd);
  for (const int fd : idle_expired) {
    loop.idle_disconnects.fetch_add(1, std::memory_order_relaxed);
    if (metrics_->m_idle_disconnects != nullptr) metrics_->m_idle_disconnects->inc();
    close_connection(loop, fd);
  }
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& loop_ptr : loops_) loop_ptr->loop.stop();
  for (auto& loop_ptr : loops_) {
    if (loop_ptr->thread.joinable()) loop_ptr->thread.join();
  }
  // The loop threads are gone: tear down every socket from this thread.
  // A stream abandoned here (producer never pulled to completion) is
  // destroyed with its connection — counted, and its captured state
  // released, so stop-mid-stream cannot leak.
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    for (auto& [fd, conn] : loop.connections) {
      if (conn->stream) {
        conn->stream = nullptr;
        loop.streams_aborted.fetch_add(1, std::memory_order_relaxed);
      }
      loop.loop.unwatch(fd);
      ::close(fd);
    }
    loop.connections.clear();
    if (loop.listen_fd >= 0) {
      loop.loop.unwatch(loop.listen_fd);
      ::close(loop.listen_fd);
      loop.listen_fd = -1;
    } else if (shared_listen_fd_ >= 0 && loop.loop.watching(shared_listen_fd_)) {
      loop.loop.unwatch(shared_listen_fd_);
    }
  }
  if (shared_listen_fd_ >= 0) {
    ::close(shared_listen_fd_);
    shared_listen_fd_ = -1;
  }
  total_connections_.store(0, std::memory_order_relaxed);
  draining_.store(false, std::memory_order_release);
  shared_unwatched_.store(0, std::memory_order_relaxed);
  if (metrics_->m_active != nullptr) metrics_->m_active->set(0.0);
}

bool Server::drain(std::size_t deadline_ms, const std::function<void()>& flush) {
  if (!running_.load(std::memory_order_acquire)) {
    if (flush) flush();
    return true;
  }
  draining_.store(true, std::memory_order_release);
  // The loop threads do the actual work on their sweep tick: close the
  // listeners, refuse late accepts, mark keep-alive responses
  // `Connection: close`, reap connections as they go quiet. This thread
  // just waits for the population to hit zero (or the deadline).
  const auto deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  bool quiesced;
  while (!(quiesced = total_connections_.load(std::memory_order_acquire) == 0) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!quiesced) {
    SF_LOG_WARN("net") << "drain deadline passed with "
                       << total_connections_.load(std::memory_order_relaxed)
                       << " connection(s) still open; aborting them";
  }
  stop();  // joins the loops; stragglers (and their streams) are aborted
  if (flush) flush();
  return quiesced;
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  for (const auto& loop_ptr : loops_) {
    const Loop& l = *loop_ptr;
    s.connections_accepted += l.accepted.load(std::memory_order_relaxed);
    s.connections_refused += l.refused.load(std::memory_order_relaxed);
    s.connections_closed += l.closed.load(std::memory_order_relaxed);
    s.requests += l.requests.load(std::memory_order_relaxed);
    s.parse_errors += l.parse_errors.load(std::memory_order_relaxed);
    s.slow_disconnects += l.slow_disconnects.load(std::memory_order_relaxed);
    s.idle_disconnects += l.idle_disconnects.load(std::memory_order_relaxed);
    s.read_timeouts += l.read_timeouts.load(std::memory_order_relaxed);
    s.streams_started += l.streams_started.load(std::memory_order_relaxed);
    s.streams_completed += l.streams_completed.load(std::memory_order_relaxed);
    s.streams_aborted += l.streams_aborted.load(std::memory_order_relaxed);
    s.bytes_read += l.bytes_read.load(std::memory_order_relaxed);
    s.bytes_written += l.bytes_written.load(std::memory_order_relaxed);
    s.peak_write_buffer =
        std::max(s.peak_write_buffer, l.peak_write_buffer.load(std::memory_order_relaxed));
  }
  s.active_connections = s.connections_accepted - s.connections_closed;
  return s;
}

void Server::on_accept(Loop& loop) {
  // Drain the accept queue: level-triggered, but one readable event can
  // carry many pending connections.
  for (;;) {
    int fd;
    if (loop.listen_fd >= 0) {
      fd = ::accept(loop.listen_fd, nullptr, nullptr);
    } else {
      // Shared-listener fallback: every loop polls the same fd, so the
      // actual accept is serialized (classic locked accept).
      std::lock_guard lock(accept_mutex_);
      if (shared_listen_fd_ < 0) return;  // a draining peer closed it
      fd = ::accept(shared_listen_fd_, nullptr, nullptr);
    }
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      SF_LOG_WARN("net") << "accept failed: " << std::strerror(errno);
      return;
    }
    // A refusal is counted before the close: once the client sees EOF,
    // stats() already reports it.
    if (draining_.load(std::memory_order_acquire)) {
      // Late arrival in the window before the sweep closes the listener:
      // refuse outright rather than admit work the drain will abandon.
      loop.refused.fetch_add(1, std::memory_order_relaxed);
      if (metrics_->m_refused != nullptr) metrics_->m_refused->inc();
      ::close(fd);
      continue;
    }
    if (total_connections_.fetch_add(1, std::memory_order_relaxed) >= options_.max_connections) {
      total_connections_.fetch_sub(1, std::memory_order_relaxed);
      loop.refused.fetch_add(1, std::memory_order_relaxed);
      if (metrics_->m_refused != nullptr) metrics_->m_refused->inc();
      ::close(fd);
      continue;
    }
    set_nonblocking_fd(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    loop.connections[fd] = std::move(conn);
    loop.accepted.fetch_add(1, std::memory_order_relaxed);
    if (metrics_->m_connections != nullptr) {
      metrics_->m_connections->inc();
      metrics_->m_active->add(1.0);
    }
    loop.loop.watch(fd, true, false, [this, &loop, fd](bool r, bool w, bool e) {
      on_connection_event(loop, fd, r, w, e);
    });
  }
}

void Server::on_connection_event(Loop& loop, int fd, bool readable, bool writable, bool error) {
  const auto it = loop.connections.find(fd);
  if (it == loop.connections.end()) return;
  Connection& conn = *it->second;

  if (readable || error) {
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        loop.bytes_read.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        if (metrics_->m_bytes_read != nullptr) {
          metrics_->m_bytes_read->inc(static_cast<std::uint64_t>(n));
        }
        conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        conn.last_activity = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error: nothing more will arrive. Flush what we owe and
      // close (a half-closed peer may still be reading).
      conn.closing = true;
      break;
    }
  }
  (void)writable;

  // Service cycle: parse/dispatch, then flush (which pumps any active
  // stream). When a stream finishes inside flush, loop once more so
  // pipelined requests buffered behind it are answered.
  for (;;) {
    if (!conn.stream) process_requests(loop, conn);
    const bool had_stream = static_cast<bool>(conn.stream);
    if (!flush(loop, conn)) return;  // connection closed (conn is gone)
    if (had_stream && !conn.stream) continue;
    break;
  }

  // Read-deadline bookkeeping: the clock starts when the parser first sits
  // mid-request and resets at each request boundary, so a slow-loris trickle
  // cannot stay under the deadline by keeping the socket merely non-idle.
  if (!conn.stream && conn.parser.mid_request()) {
    if (!conn.mid_request) {
      conn.mid_request = true;
      conn.request_start = Clock::now();
    }
  } else {
    conn.mid_request = false;
  }
}

void Server::process_requests(Loop& loop, Connection& conn) {
  Request request;
  while (!conn.stream) {
    const RequestParser::Result result = conn.parser.next(&request);
    if (result == RequestParser::Result::kNeedMore) break;
    if (result == RequestParser::Result::kError) {
      // Answer with the parser's verdict and drop the connection: framing
      // is unrecoverable after a protocol error.
      loop.parse_errors.fetch_add(1, std::memory_order_relaxed);
      if (metrics_->m_parse_errors != nullptr) metrics_->m_parse_errors->inc();
      enqueue(loop, conn,
              text_response(conn.parser.error_status(), conn.parser.error_reason() + "\n"),
              /*keep_alive=*/false, request.version_minor);
      conn.closing = true;
      break;
    }
    const auto start = Clock::now();
    Response response = router_.dispatch(request);
    // The cap and the drain both end the connection the polite way: this
    // response carries `Connection: close` and later pipelined requests die
    // with the connection, exactly as that header promises.
    const bool cap_hit = options_.max_requests_per_connection > 0 &&
                         ++conn.requests_served >= options_.max_requests_per_connection;
    const bool keep_alive = request.keep_alive && !conn.closing && !cap_hit &&
                            !draining_.load(std::memory_order_acquire);
    const int status = response.status;
    enqueue(loop, conn, std::move(response), keep_alive, request.version_minor);
    loop.requests.fetch_add(1, std::memory_order_relaxed);
    if (metrics_->m_connections != nullptr) {
      const int idx = status < 300 ? 0 : status < 400 ? 1 : status < 500 ? 2 : 3;
      metrics_->m_requests_by_class[idx]->inc();
    }
    if (metrics_->m_request_duration != nullptr) {
      metrics_->m_request_duration->observe(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
    if (!keep_alive) {
      // Later pipelined requests (if any) die with the connection, exactly
      // as "Connection: close" promises.
      conn.closing = true;
      break;
    }
  }
}

void Server::push_chunk(Loop& loop, Connection& conn, std::string data) {
  if (data.empty()) return;
  conn.out_bytes += data.size();
  if (conn.out_bytes > loop.peak_write_buffer.load(std::memory_order_relaxed)) {
    loop.peak_write_buffer.store(conn.out_bytes, std::memory_order_relaxed);
  }
  conn.out.push_back(std::move(data));
}

void Server::enqueue(Loop& loop, Connection& conn, Response&& response, bool keep_alive,
                     int version_minor) {
  if (response.stream && version_minor == 0) {
    // HTTP/1.0 peers cannot parse chunked framing: drain the producer into
    // a buffered body instead.
    std::string chunk;
    response.body.clear();
    for (;;) {
      chunk.clear();
      const bool more = response.stream(chunk);
      response.body += chunk;
      if (!more) break;
    }
    response.stream = nullptr;
  }
  const bool chunked = static_cast<bool>(response.stream);
  std::string head;
  head.reserve(160);
  append_head(head, response, keep_alive, chunked);
  push_chunk(loop, conn, std::move(head));
  if (chunked) {
    conn.stream = std::move(response.stream);
    loop.streams_started.fetch_add(1, std::memory_order_relaxed);
    if (metrics_->m_streams != nullptr) metrics_->m_streams->inc();
  } else if (!response.body.empty()) {
    // The body is moved, never copied into a combined buffer — flush sends
    // head + body with one vectored write.
    push_chunk(loop, conn, std::move(response.body));
  }
}

void Server::pump_stream(Loop& loop, Connection& conn) {
  // Bounded in-flight: stop pulling once half the write bound is pending;
  // flush pulls again as the socket drains. The stream therefore never
  // trips the slow-reader bound, and a scan of millions of rows holds at
  // most ~max_write_buffer/2 bytes in memory per connection.
  const std::size_t watermark = std::max<std::size_t>(1, options_.max_write_buffer / 2);
  while (conn.stream && conn.out_bytes < watermark) {
    std::string chunk;
    const bool more = conn.stream(chunk);
    const std::size_t produced = chunk.size();
    if (produced > 0) {
      char frame[20];
      const int n = std::snprintf(frame, sizeof frame, "%zx\r\n", produced);
      push_chunk(loop, conn, std::string(frame, static_cast<std::size_t>(n)));
      chunk += "\r\n";
      push_chunk(loop, conn, std::move(chunk));
    }
    if (!more) {
      push_chunk(loop, conn, "0\r\n\r\n");
      conn.stream = nullptr;
      loop.streams_completed.fetch_add(1, std::memory_order_relaxed);
    } else if (produced == 0) {
      // Contract violation guard: a producer that reports "more" without
      // progress would spin the loop thread forever.
      SF_LOG_WARN("net") << "stream producer returned an empty chunk; aborting stream";
      push_chunk(loop, conn, "0\r\n\r\n");
      conn.stream = nullptr;
      break;
    }
  }
}

bool Server::flush(Loop& loop, Connection& conn) {
  const int fd = conn.fd;
  for (;;) {
    if (conn.stream) pump_stream(loop, conn);
    if (conn.out_bytes == 0) break;

    // Vectored write across the chunk queue: header + body (+ chunk
    // frames) go out in one sendmsg without ever being concatenated.
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t first_offset = conn.head_offset;
    for (const std::string& chunk : conn.out) {
      iov[iovcnt].iov_base = const_cast<char*>(chunk.data()) + first_offset;
      iov[iovcnt].iov_len = chunk.size() - first_offset;
      first_offset = 0;
      if (++iovcnt == kMaxIov) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(loop, fd);  // peer reset mid-write
      return false;
    }
    loop.bytes_written.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    if (metrics_->m_bytes_written != nullptr) {
      metrics_->m_bytes_written->inc(static_cast<std::uint64_t>(n));
    }
    conn.last_activity = Clock::now();
    // Advance the queue past the written prefix; a short write leaves
    // head_offset mid-chunk and the next round resumes there.
    std::size_t left = static_cast<std::size_t>(n);
    conn.out_bytes -= left;
    while (left > 0) {
      std::string& front = conn.out.front();
      const std::size_t avail = front.size() - conn.head_offset;
      if (left >= avail) {
        left -= avail;
        conn.out.pop_front();
        conn.head_offset = 0;
      } else {
        conn.head_offset += left;
        left = 0;
      }
    }
  }

  if (conn.out_bytes == 0 && !conn.stream) {
    if (conn.closing) {
      close_connection(loop, fd);
      return false;
    }
    if (conn.want_write) {
      conn.want_write = false;
      loop.loop.update(fd, true, false);
    }
    return true;
  }

  // Still owing bytes (or a stream is parked on a full buffer). A peer that
  // will not read its responses must not buffer us into the ground: past
  // the bound, disconnect. Streams stay under the bound by construction.
  if (conn.out_bytes > options_.max_write_buffer) {
    loop.slow_disconnects.fetch_add(1, std::memory_order_relaxed);
    if (metrics_->m_slow_disconnects != nullptr) metrics_->m_slow_disconnects->inc();
    SF_LOG_WARN("net") << "slow reader: dropping connection with " << conn.out_bytes
                       << " pending bytes";
    close_connection(loop, fd);
    return false;
  }
  if (!conn.want_write) {
    conn.want_write = true;
    loop.loop.update(fd, true, true);
  }
  return true;
}

void Server::close_connection(Loop& loop, int fd) {
  const auto it = loop.connections.find(fd);
  if (it == loop.connections.end()) return;
  if (it->second->stream) {
    it->second->stream = nullptr;
    loop.streams_aborted.fetch_add(1, std::memory_order_relaxed);
  }
  loop.loop.unwatch(fd);
  ::close(fd);
  loop.connections.erase(it);
  total_connections_.fetch_sub(1, std::memory_order_relaxed);
  loop.closed.fetch_add(1, std::memory_order_relaxed);
  if (metrics_->m_active != nullptr) metrics_->m_active->add(-1.0);
}

}  // namespace smartflux::net
