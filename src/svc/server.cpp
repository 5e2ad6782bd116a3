#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "svc/protocol.hpp"

namespace topomap::svc {

namespace {

struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::mutex write_mu;  // responses may race from several workers
};

using ConnectionPtr = std::shared_ptr<Connection>;

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw io_error("topomapd: socket path '" + path +
                   "' is empty or too long for a unix socket");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw io_error(std::string("topomapd: socket() failed: ") +
                   std::strerror(errno));
  ::unlink(path.c_str());  // replace a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw io_error("topomapd: cannot listen on '" + path +
                   "': " + std::strerror(err));
  }
  return fd;
}

int listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw io_error(std::string("topomapd: socket() failed: ") +
                   std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw io_error("topomapd: cannot listen on 127.0.0.1:" +
                   std::to_string(port) + ": " + std::strerror(err));
  }
  return fd;
}

}  // namespace

struct Server::Impl {
  ServerOptions options;
  Service service;

  int unix_fd = -1;
  int tcp_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  bool started = false;
  bool joined = false;

  std::thread accept_thread;
  std::vector<std::thread> worker_threads;

  // Connection registry: readers are detached; shutdown EOFs every live
  // connection and waits for the active count to reach zero.
  std::mutex conn_mu;
  std::condition_variable readers_done;
  int active_readers = 0;
  std::vector<std::weak_ptr<Connection>> connections;

  struct Job {
    ConnectionPtr conn;
    Request req;
    RequestContext ctx;    // correlation id + queue-wait timestamps
    std::string affinity;  // machine key; "" when it could not be computed
  };
  std::mutex queue_mu;
  std::condition_variable queue_push;  // space freed
  std::condition_variable queue_pop;   // work available / draining
  std::deque<Job> queue;
  bool draining = false;

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), service(options.service) {}

  void send_payload(const ConnectionPtr& conn, const std::string& payload) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    try {
      write_frame(conn->fd, payload, options.max_payload);
    } catch (const std::exception&) {
      // Peer went away mid-response; its reader will see EOF and retire.
    }
  }

  void send_response(const ConnectionPtr& conn, const Response& resp) {
    send_payload(conn, resp.to_json().dump());
  }

  void enqueue(ConnectionPtr conn, Request req, RequestContext ctx) {
    std::string affinity;
    try {
      affinity = machine_key(req.topology, req.fault_spec());
    } catch (const std::exception&) {
      // Malformed fault flags: let the worker raise the structured error.
    }
    std::unique_lock<std::mutex> lock(queue_mu);
    // Backpressure: a full queue blocks this connection's reader, pushing
    // the stall back into the socket instead of buffering unboundedly.
    queue_push.wait(lock, [&] {
      return queue.size() < options.queue_capacity || draining;
    });
    if (draining) return;  // shutdown raced the read; connection is closing
    ctx.enqueue_ns = obs::now_ns();
    service.flight().record(ctx.corr, to_string(req.kind), "enqueue",
                            ctx.enqueue_ns, 0);
    queue.push_back(Job{std::move(conn), std::move(req), std::move(ctx),
                        std::move(affinity)});
    OBS_HISTOGRAM("svc/queue_depth", static_cast<double>(queue.size()));
    queue_pop.notify_one();
  }

  void reader_main(ConnectionPtr conn) {
    std::string payload;
    for (;;) {
      try {
        if (!read_frame(conn->fd, payload, options.max_payload)) break;
      } catch (const precondition_error&) {
        // Framing desync (bad magic / oversized declaration): answer, then
        // drop the connection — the byte stream can't be trusted anymore.
        send_response(conn,
                      make_error_response("", std::current_exception()));
        // The receive buffer may still hold unread garbage; closing now
        // would turn the close into an RST that can discard the queued
        // error response before the client reads it.  FIN our side and
        // drain (bounded) until the peer hangs up.
        ::shutdown(conn->fd, SHUT_WR);
        char scratch[1024];
        std::size_t drained = 0;
        while (drained < (std::size_t{1} << 20)) {
          const ssize_t n = ::recv(conn->fd, scratch, sizeof(scratch), 0);
          if (n <= 0) break;
          drained += static_cast<std::size_t>(n);
        }
        break;
      } catch (const std::exception&) {
        break;  // mid-frame EOF or hard read error
      }
      json::Value doc;
      try {
        doc = json::Value::parse(payload);
      } catch (...) {
        send_response(conn,
                      make_error_response("", std::current_exception()));
        continue;  // framing is still in sync; keep serving
      }
      std::string id;
      if (doc.is_object())
        if (const json::Value* v = doc.find("id"); v != nullptr &&
            v->is_string())
          id = v->as_string();
      Request req;
      try {
        req = Request::from_json(doc);
      } catch (...) {
        send_response(conn,
                      make_error_response(id, std::current_exception()));
        continue;
      }
      // A request exists the moment it parses: mint its correlation id
      // here so the accept→done lifecycle is attributable end to end.
      RequestContext ctx;
      ctx.corr = service.mint_correlation_id();
      service.flight().record(ctx.corr, to_string(req.kind), "accept",
                              obs::now_ns(), 0);
      enqueue(conn, std::move(req), std::move(ctx));
    }
    std::lock_guard<std::mutex> lock(conn_mu);
    --active_readers;
    readers_done.notify_all();
  }

  void worker_main() {
    std::string last_key;
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_pop.wait(lock, [&] { return !queue.empty() || draining; });
        if (queue.empty()) return;  // draining and nothing left
        // Topology-affine pick: prefer a request on the machine this
        // worker just served so its warm pool entry drains back-to-back.
        auto it = queue.begin();
        if (!last_key.empty()) {
          for (auto j = queue.begin(); j != queue.end(); ++j) {
            if (j->affinity == last_key) {
              it = j;
              break;
            }
          }
        }
        job = std::move(*it);
        queue.erase(it);
        queue_push.notify_one();
      }
      last_key = job.affinity;
      job.ctx.dequeue_ns = obs::now_ns();
      const Response resp = service.handle(job.req, job.ctx);
      // Serialize is its own lifecycle stage: the response is rendered
      // here, outside the connection write lock, so its cost is separable
      // from both the kernel and the socket write.
      const std::uint64_t t0 = obs::now_ns();
      const std::string payload = resp.to_json().dump();
      const std::uint64_t dur = obs::now_ns() - t0;
      service.flight().record(job.ctx.corr, to_string(job.req.kind),
                              "serialize", t0, dur);
      OBS_HISTOGRAM(std::string("svc/") + to_string(job.req.kind) +
                        "/serialize_us",
                    static_cast<double>(dur / 1000));
      send_payload(job.conn, payload);
    }
  }

  void accept_main() {
    for (;;) {
      pollfd fds[3];
      nfds_t n = 0;
      fds[n++] = {wake_rd, POLLIN, 0};
      if (unix_fd >= 0) fds[n++] = {unix_fd, POLLIN, 0};
      if (tcp_fd >= 0) fds[n++] = {tcp_fd, POLLIN, 0};
      if (::poll(fds, n, -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[0].revents != 0) {
        // The self-pipe carries one byte per wake: 'x' = stop() (shutdown),
        // 'u' = request_flight_dump() (SIGUSR1).  Drain whatever is
        // pending; a read failure means the pipe is gone, so shut down.
        char bytes[16];
        const ssize_t nread = ::read(wake_rd, bytes, sizeof(bytes));
        bool stop_requested = nread <= 0;
        bool dump_requested = false;
        for (ssize_t i = 0; i < nread; ++i) {
          if (bytes[i] == 'u') dump_requested = true;
          else stop_requested = true;
        }
        if (dump_requested) service.flight().dump_text(std::cerr);
        if (stop_requested) break;
      }
      for (nfds_t i = 1; i < n; ++i) {
        if (fds[i].revents == 0) continue;
        const int client = ::accept(fds[i].fd, nullptr, nullptr);
        if (client < 0) continue;
        auto conn = std::make_shared<Connection>(client);
        std::lock_guard<std::mutex> lock(conn_mu);
        connections.erase(
            std::remove_if(connections.begin(), connections.end(),
                           [](const std::weak_ptr<Connection>& w) {
                             return w.expired();
                           }),
            connections.end());
        connections.push_back(conn);
        ++active_readers;
        std::thread([this, conn = std::move(conn)]() mutable {
          reader_main(std::move(conn));
        }).detach();
      }
    }
    // Clean-shutdown drain: no new connections, EOF the live ones, wait
    // for their readers, finish every queued request, retire the workers.
    close_if_open(unix_fd);
    close_if_open(tcp_fd);
    if (!options.socket_path.empty()) ::unlink(options.socket_path.c_str());
    {
      std::unique_lock<std::mutex> lock(conn_mu);
      for (const std::weak_ptr<Connection>& w : connections)
        if (const ConnectionPtr c = w.lock()) ::shutdown(c->fd, SHUT_RD);
      readers_done.wait(lock, [&] { return active_readers == 0; });
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      draining = true;
      queue_pop.notify_all();
      queue_push.notify_all();
    }
    for (std::thread& w : worker_threads) w.join();
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  if (impl_->started && !impl_->joined) {
    stop();
    join();
  }
  close_if_open(impl_->wake_rd);
  close_if_open(impl_->wake_wr);
}

void Server::start() {
  TOPOMAP_REQUIRE(!impl_->started, "topomapd server already started");
  // Before any fd exists, so a bad port leaves nothing to clean up.
  if (impl_->options.tcp_port != 0)
    checked_tcp_port(impl_->options.tcp_port, "topomapd: tcp_port");
  int pipefd[2];
  if (::pipe(pipefd) < 0)
    throw io_error(std::string("topomapd: pipe() failed: ") +
                   std::strerror(errno));
  impl_->wake_rd = pipefd[0];
  impl_->wake_wr = pipefd[1];
  impl_->service.set_queue_depth_probe([impl = impl_.get()] {
    std::lock_guard<std::mutex> lock(impl->queue_mu);
    return impl->queue.size();
  });
  impl_->unix_fd = listen_unix(impl_->options.socket_path);
  if (impl_->options.tcp_port != 0)
    impl_->tcp_fd = listen_tcp(impl_->options.tcp_port);
  const std::size_t workers = std::max<std::size_t>(impl_->options.workers, 1);
  impl_->worker_threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    impl_->worker_threads.emplace_back([this] { impl_->worker_main(); });
  impl_->accept_thread = std::thread([this] { impl_->accept_main(); });
  impl_->started = true;
}

void Server::stop() {
  // Async-signal-safe: one write on the self-pipe, nothing else.
  if (impl_->wake_wr >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t r = ::write(impl_->wake_wr, &byte, 1);
  }
}

void Server::request_flight_dump() {
  // Async-signal-safe, like stop(): one self-pipe write.
  if (impl_->wake_wr >= 0) {
    const char byte = 'u';
    [[maybe_unused]] const ssize_t r = ::write(impl_->wake_wr, &byte, 1);
  }
}

void Server::join() {
  if (!impl_->started || impl_->joined) return;
  impl_->accept_thread.join();
  impl_->joined = true;
}

CachePoolStats Server::cache_stats() const {
  return impl_->service.cache_stats();
}

Service& Server::service() { return impl_->service; }

}  // namespace topomap::svc
