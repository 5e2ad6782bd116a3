#include "svc/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace topomap::svc {

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw io_error("client: socket path '" + path +
                   "' is empty or too long for a unix socket");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw io_error(std::string("client: socket() failed: ") +
                   std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw io_error("client: cannot connect to '" + path +
                   "': " + std::strerror(err) +
                   " (is topomapd running there?)");
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  checked_tcp_port(port, "client");
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0 || res == nullptr)
    throw io_error("client: cannot resolve '" + host +
                   "': " + ::gai_strerror(rc));
  int fd = -1;
  int err = 0;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0)
    throw io_error("client: cannot connect to " + host + ":" +
                   std::to_string(port) + ": " + std::strerror(err));
  return Client(fd);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Response Client::call(const Request& req) {
  write_frame(fd_, req.to_json().dump());
  std::string payload;
  if (!read_frame(fd_, payload))
    throw io_error("client: daemon closed the connection before responding");
  const Response resp = Response::from_json(json::Value::parse(payload));
  TOPOMAP_ASSERT(resp.id == req.id,
                 "client: response id '" + resp.id +
                     "' does not echo request id '" + req.id + "'");
  return resp;
}

}  // namespace topomap::svc
