#include "http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <stdexcept>

namespace stackbench {

PipelinedConnection::PipelinedConnection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

PipelinedConnection::~PipelinedConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool PipelinedConnection::flush() {
  while (out_sent_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_sent_, out_.size() - out_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      out_sent_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN: the server is behind; the rest goes out on a later flush
  }
  if (out_sent_ == out_.size()) {
    out_.clear();
    out_sent_ = 0;
    return true;
  }
  if (out_sent_ > (1u << 20)) {
    out_.erase(0, out_sent_);
    out_sent_ = 0;
  }
  return false;
}

bool PipelinedConnection::read_replies(std::vector<HttpReply>& replies) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  std::size_t pos = 0;
  for (;;) {
    const std::size_t head_end = in_.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) break;
    const std::string_view head(in_.data() + pos, head_end - pos);
    // "HTTP/1.1 202 Accepted"
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return false;
    int status = 0;
    std::from_chars(head.data() + 9, head.data() + 12, status);
    std::size_t length = 0;
    std::size_t at = 0;
    while ((at = head.find("\r\n", at)) != std::string_view::npos) {
      at += 2;
      const std::string_view line = head.substr(at, head.find("\r\n", at) - at);
      if (line.size() > 15 && (line[0] == 'C' || line[0] == 'c') &&
          line.substr(1, 14) == "ontent-Length:") {
        std::size_t i = 15;
        while (i < line.size() && line[i] == ' ') ++i;
        std::from_chars(line.data() + i, line.data() + line.size(), length);
      }
    }
    const std::size_t body_start = head_end + 4;
    if (in_.size() < body_start + length) break;
    replies.push_back(HttpReply{status, in_.substr(body_start, length)});
    pos = body_start + length;
  }
  in_.erase(0, pos);
  return true;
}

std::string post_request(std::string_view target, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 96);
  out += "POST ";
  out += target;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n\r\n";
  out += body;
  return out;
}

}  // namespace stackbench
