// The test client of buffyd and buffyd-router: a minimal blocking
// line-oriented client over TCP loopback or a Unix socket, plus helpers
// that build requests and pick responses apart. Shape violations fail the
// running gtest with one readable assertion instead of a null dereference.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "base/checked_math.hpp"
#include "service/json.hpp"

namespace buffy::testing {

// A 120 s receive timeout turns a wedged daemon into a test failure
// instead of a hung CI job.
class Client {
 public:
  static Client tcp(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    return Client(fd);
  }

  // Retries while the daemon is still binding its socket.
  static Client unix_socket(const std::string& path) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      EXPECT_GE(fd, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        return Client(fd);
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ADD_FAILURE() << "cannot connect to " << path;
    return Client(-1);
  }

  Client(Client&& other) noexcept
      : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client& operator=(Client&&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) const {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  // Empty string on orderly EOF.
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      EXPECT_GE(n, 0) << std::strerror(errno);
      if (n <= 0) return std::string();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Sends a request and parses the single next response line.
  service::JsonValue call(const std::string& request) {
    send_line(request);
    const std::string line = recv_line();
    EXPECT_FALSE(line.empty()) << "connection closed instead of responding";
    return service::JsonValue::parse(line.empty() ? "null" : line);
  }

 private:
  explicit Client(int fd) : fd_(fd) {
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = 120;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  int fd_ = -1;
  std::string buf_;
};

inline std::string explore_request(i64 id, const std::string& graph_text,
                                   const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"explore_pareto\",\"graph\":" +
         service::json_quote(graph_text) + extra + "}";
}

inline bool response_ok(const service::JsonValue& resp) {
  const service::JsonValue* ok = resp.find("ok");
  EXPECT_NE(ok, nullptr) << resp.dump();
  return ok != nullptr && ok->as_bool();
}

inline std::string error_code(const service::JsonValue& resp) {
  EXPECT_FALSE(response_ok(resp)) << resp.dump();
  const service::JsonValue* err = resp.find("error");
  EXPECT_NE(err, nullptr) << resp.dump();
  if (err == nullptr) return std::string();
  return err->find("code")->as_string();
}

inline const service::JsonValue& result_of(const service::JsonValue& resp) {
  EXPECT_TRUE(response_ok(resp)) << resp.dump();
  const service::JsonValue* result = resp.find("result");
  EXPECT_NE(result, nullptr) << resp.dump();
  static const service::JsonValue null_value;
  return result != nullptr ? *result : null_value;
}

inline i64 response_id(const service::JsonValue& resp) {
  const service::JsonValue* id = resp.find("id");
  EXPECT_NE(id, nullptr) << resp.dump();
  return id != nullptr ? id->as_int() : -1;
}

// Polls a buffyd-router's `status` until `workers` shards report up
// (workers fork/exec and bind their sockets asynchronously).
inline void wait_for_fleet_up(Client& client, u64 workers) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    const service::JsonValue resp = client.call("{\"method\":\"status\"}");
    const service::JsonValue& result = result_of(resp);
    const service::JsonValue* fleet = result.find("fleet");
    ASSERT_NE(fleet, nullptr) << resp.dump();
    if (static_cast<u64>(fleet->find("up")->as_int()) >= workers) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  FAIL() << "fleet did not come up";
}

}  // namespace buffy::testing
