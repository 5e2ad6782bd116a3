// svc::Client — blocking topomapd client connection.
//
// One framed request/response exchange per call().  Used by the `topomap
// client` subcommand, the svc tests, and the load bench; it reuses the
// exact protocol structs the server parses, so the two sides cannot drift.
#pragma once

#include <string>

#include "svc/frame.hpp"
#include "svc/protocol.hpp"

namespace topomap::svc {

class Client {
 public:
  /// Connect to a daemon's unix-domain socket; throws io_error when the
  /// daemon is not there.
  static Client connect_unix(const std::string& path);

  /// Connect to the optional TCP listener (same framing); throws
  /// precondition_error on a port outside 1..65535.
  static Client connect_tcp(const std::string& host, int port);

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request and block for its response.  Throws io_error when
  /// the connection drops, precondition_error on a malformed response, and
  /// invariant_error when the response id does not echo the request id
  /// (calls on one Client are strictly sequential, so ids must match).
  Response call(const Request& req);

 private:
  explicit Client(int fd) : fd_(fd) {}
  int fd_;
};

}  // namespace topomap::svc
