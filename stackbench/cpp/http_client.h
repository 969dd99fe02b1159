// Non-blocking HTTP/1.1 connections for the open-loop ingest generator: one
// thread keeps several keep-alive connections busy with pipelined requests
// and never waits for a reply before sending the next due request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace stackbench {

/// One parsed response: status and body (Content-Length framing only — the
/// ingest route never streams).
struct HttpReply {
  int status = 0;
  std::string body;
};

class PipelinedConnection {
 public:
  explicit PipelinedConnection(std::uint16_t port);
  ~PipelinedConnection();
  PipelinedConnection(const PipelinedConnection&) = delete;
  PipelinedConnection& operator=(const PipelinedConnection&) = delete;

  int fd() const noexcept { return fd_; }
  /// Queues request bytes; they go out on the next flush().
  void queue(std::string_view bytes) { out_.append(bytes); }
  /// Writes what the socket takes; true when nothing is left queued.
  bool flush();
  bool has_pending_output() const noexcept { return out_sent_ < out_.size(); }
  /// Reads what is available and appends complete replies to `replies`.
  /// Returns false when the peer closed or the stream is malformed.
  bool read_replies(std::vector<HttpReply>& replies);

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_sent_ = 0;
  std::string in_;
};

/// Request bytes for POST `target` with `body`.
std::string post_request(std::string_view target, std::string_view body);

}  // namespace stackbench
