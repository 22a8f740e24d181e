#include "obs/server.hpp"

#include <cstring>
#include <sstream>

#include "common/logging.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LBMIB_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#else
#define LBMIB_HAVE_SOCKETS 0
#endif

namespace lbmib::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

#if LBMIB_HAVE_SOCKETS
void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer went away; this is best-effort telemetry
    off += static_cast<std::size_t>(n);
  }
}
#endif

}  // namespace

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::handle(const std::string& path, HttpHandler handler) {
  MutexLock lock(mutex_);
  for (auto& entry : handlers_) {
    if (entry.first == path) {
      entry.second = std::move(handler);
      return;
    }
  }
  handlers_.emplace_back(path, std::move(handler));
}

bool TelemetryServer::start(int port) {
#if LBMIB_HAVE_SOCKETS
  MutexLock lock(mutex_);
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    log_warn("telemetry: socket() failed (", std::strerror(errno),
             ") — live endpoint disabled");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback-only, by design
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(fd, 8) < 0) {
    log_warn("telemetry: cannot bind 127.0.0.1:", port, " (",
             std::strerror(errno), ") — live endpoint disabled");
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  listen_fd_.store(fd, std::memory_order_release);
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  requests_.store(0, std::memory_order_relaxed);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  // NOLINTNEXTLINE(lbmib-raw-sync) daemon thread; see the header comment
  server_ = std::thread([this] { serve_loop(); });
  log_info("telemetry: serving http://127.0.0.1:", this->port(),
           "/metrics /healthz /status /trace");
  return true;
#else
  (void)port;
  log_warn("telemetry: no socket support on this platform");
  return false;
#endif
}

void TelemetryServer::stop() {
#if LBMIB_HAVE_SOCKETS
  {
    MutexLock lock(mutex_);
    if (!running_.load(std::memory_order_acquire)) return;
    stop_requested_.store(true, std::memory_order_release);
    // Kick the poll/accept out of its wait; the loop re-checks the flag
    // within one 200 ms poll period even if the race loses.
    const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }
  server_.join();
  MutexLock lock(mutex_);
  running_.store(false, std::memory_order_release);
  port_.store(0, std::memory_order_release);
#endif
}

void TelemetryServer::serve_loop() {
#if LBMIB_HAVE_SOCKETS
  // NOLINTNEXTLINE(lbmib-sync-visibility) bounded 200 ms poll; stop() ends it
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0) return;  // stop() already closed the socket
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);  // bounded wait = cancelable
    if (ready <= 0) continue;                // timeout or EINTR: re-check
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) continue;  // racing stop() or transient error
    serve_one(client);
    ::close(client);
  }
#endif
}

void TelemetryServer::serve_one(int client_fd) {
#if LBMIB_HAVE_SOCKETS
  // One bounded read is enough for "GET /path HTTP/1.x"; scrapers do
  // not send bodies and we do not read them.
  char buf[2048];
  const ssize_t n = ::recv(client_fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  requests_.fetch_add(1, std::memory_order_relaxed);
  metric_telemetry_requests().inc();

  std::string method, path;
  {
    std::istringstream line(std::string(buf, static_cast<std::size_t>(n)));
    line >> method >> path;
  }
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  HttpResponse response;
  if (method != "GET") {
    response = {405, "text/plain; charset=utf-8", "method not allowed\n"};
  } else {
    HttpHandler handler;
    {
      MutexLock lock(mutex_);
      for (const auto& entry : handlers_) {
        if (entry.first == path) {
          handler = entry.second;
          break;
        }
      }
    }
    if (handler) {
      response = handler();
    } else {
      response = {404, "text/plain; charset=utf-8",
                  "not found; endpoints: /metrics /healthz /status /trace\n"};
    }
  }

  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << ' '
      << status_text(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << response.body;
  send_all(client_fd, out.str());
#else
  (void)client_fd;
#endif
}

void register_default_endpoints(TelemetryServer& server) {
  server.handle("/metrics", [] {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        MetricsRegistry::global().prometheus_text()};
  });
  server.handle("/trace", [] {
    if (!Tracer::active()) {
      return HttpResponse{503, "text/plain; charset=utf-8",
                          "no tracing session active\n"};
    }
    // Non-destructive, best-effort snapshot: events below each ring's
    // published count are complete (release/acquire on `pushed`), but a
    // ring that wraps during the copy can hand back one torn slot — an
    // acceptable trade for an on-demand diagnostic; quiesced drains
    // (post-run exports) stay exact.
    return HttpResponse{200, "application/json", chrome_trace_json()};
  });
}

}  // namespace lbmib::obs
