// A minimal blocking HTTP/1.1 server and client over POSIX sockets.
//
// This implements just enough of the protocol for the Optimus gateway (§7:
// "Optimus API and communication between clients and the gateway are
// implemented in REST API format"): request line + headers + Content-Length
// bodies, one request per connection. Not a general-purpose web server.

#ifndef OPTIMUS_SRC_GATEWAY_HTTP_H_
#define OPTIMUS_SRC_GATEWAY_HTTP_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/common/thread_pool.h"

namespace optimus {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // Path without the query string.
  std::map<std::string, std::string> query;  // Decoded query parameters.
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain";
  // Extra response headers (e.g. Retry-After on 429s). Content-Type,
  // Content-Length, and Connection are always emitted from the fields above
  // and must not be duplicated here. On the client side (HttpFetch) this maps
  // every received header name to its value.
  std::map<std::string, std::string> headers;
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

// An accept loop on a background thread that dispatches each accepted
// connection onto a worker pool, so the handler serves requests concurrently.
// The handler must therefore be thread-safe; OptimusPlatform is. The server
// itself holds no mutex of its own — per-connection state is confined to the
// pool task that owns the socket, and lifecycle is a pair of atomics — so it
// sits outside the DESIGN.md §15 lock hierarchy; the locks a request *does*
// take (tenant admission, repository, node, plan cache, ...) are all ranked
// and acquired in hierarchy order downstream of the handler.
class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts serving
  // with `num_workers` handler threads (values < 1 are clamped to 1).
  // Throws std::runtime_error on socket errors.
  void Start(uint16_t port, HttpHandler handler, int num_workers = 4);

  // Stops the accept loop, drains in-flight connections, and joins the server
  // and worker threads. Idempotent.
  void Stop();

  bool Running() const { return running_.load(); }
  uint16_t port() const { return port_; }

 private:
  void Serve();
  void HandleClient(int client_fd);

  std::atomic<int> listen_fd_{-1};  // Stop() clears it while Serve() reads it.
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
  std::unique_ptr<ThreadPool> workers_;
  HttpHandler handler_;
};

// Blocking HTTP client for tests and examples: sends one request to
// 127.0.0.1:`port` and returns the response. Throws std::runtime_error on
// connection or protocol errors.
HttpResponse HttpFetch(uint16_t port, const std::string& method, const std::string& target,
                       const std::string& body = "");

// Parses an HTTP request head + body from a raw buffer (exposed for tests).
// Returns false if the buffer does not hold a complete request yet; throws
// std::runtime_error on malformed headers (bad or oversized Content-Length).
bool ParseHttpRequest(const std::string& raw, HttpRequest* request);

}  // namespace optimus

#endif  // OPTIMUS_SRC_GATEWAY_HTTP_H_
