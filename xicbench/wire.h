// Client side of the xic/1 wire protocol for the benchmark's tools:
// reading request files, connecting to a daemon, sending frames and
// reading reply frames. The framing itself is serve/protocol.h's.

#ifndef XICBENCH_WIRE_H_
#define XICBENCH_WIRE_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.h"

namespace xicbench {

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The request frames of a file that holds them back to back.
inline xic::Result<std::vector<xic::serve::Request>> ReadFrames(
    const std::string& path) {
  const std::string data = ReadFile(path);
  std::vector<xic::serve::Request> frames;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t eol = data.find('\n', pos);
    if (eol == std::string::npos) {
      return xic::Status::ParseError(path + ": unterminated frame header");
    }
    xic::Result<xic::serve::Request> r = xic::serve::ParseRequestLine(
        std::string_view(data).substr(pos, eol - pos));
    if (!r.ok()) return r.status();
    r.value().body = data.substr(eol + 1, r.value().body_length);
    pos = eol + 1 + r.value().body_length;
    frames.push_back(std::move(r.value()));
  }
  return frames;
}

// A frame header `schema=@K` names the workload's K-th schema file; this
// replaces it with the hash the daemon gave that schema (hashes[K]).
inline void ResolveSchema(const std::vector<std::string>& hashes,
                          xic::serve::Request* request) {
  const std::string schema = request->header("schema");
  if (schema.size() != 2 || schema[0] != '@') return;
  const size_t k = static_cast<size_t>(schema[1] - '0');
  request->headers["schema"] = k < hashes.size() ? hashes[k] : "missing";
}

// A TCP connection to PORT on the loopback interface, or -1. Sends are
// not delayed, and a daemon that stalls for 10 s fails the call instead
// of hanging it.
inline int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  return fd;
}

inline bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// Reads reply frames from a connection, in order.
class ReplyReader {
 public:
  explicit ReplyReader(int fd) : fd_(fd) {}

  // The next reply's head and body; false when the connection ends or
  // the header line does not parse.
  bool Next(xic::serve::ResponseHead* head, std::string* body) {
    size_t eol;
    while ((eol = buf_.find('\n', pos_)) == std::string::npos) {
      if (!Fill()) return false;
    }
    xic::Result<xic::serve::ResponseHead> parsed =
        xic::serve::ParseResponseLine(
            std::string_view(buf_).substr(pos_, eol - pos_));
    if (!parsed.ok()) return false;
    pos_ = eol + 1;
    *head = std::move(parsed.value());
    while (buf_.size() - pos_ < head->body_length) {
      if (!Fill()) return false;
    }
    body->assign(buf_, pos_, head->body_length);
    pos_ += head->body_length;
    return true;
  }

 private:
  bool Fill() {
    buf_.erase(0, pos_);
    pos_ = 0;
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace xicbench

#endif  // XICBENCH_WIRE_H_
