// The benchmark's HTTP/1.1 client.
//
// It sends requests without `Connection: close`, reads each response by its
// Content-Length, and keeps the socket for the next request unless the
// response says `Connection: close`. Today's gateway closes after every
// response, so every request pays a connect; a server that keeps connections
// alive is measured with no change here (net.connects_per_req shows which).
//
// Each exchange is split into client spans timed on the same clock as the
// server's trace spans (telemetry::MonotonicNanos): connect, send, wait (until
// the first response byte) and read.

#ifndef OPTIMUS_BENCH_E2E_CLIENT_H_
#define OPTIMUS_BENCH_E2E_CLIENT_H_

#include <cstdint>
#include <string>

namespace optimus {
namespace e2e {

struct ClientTiming {
  uint64_t start_ns = 0;
  uint64_t connect_ns = 0;  // Near 0 when an open connection was reused.
  uint64_t send_ns = 0;
  uint64_t wait_ns = 0;  // Request sent -> first response byte.
  uint64_t read_ns = 0;  // First byte -> complete response.

  uint64_t total_ns() const { return connect_ns + send_ns + wait_ns + read_ns; }
};

struct ClientResponse {
  int status = 0;
  std::string body;
};

// One loopback connection's worth of client. Not thread-safe: each client
// thread owns one.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Sends one complete request and reads its response. Returns false on a
  // transport failure: connect/send/receive error or a malformed response.
  bool Exchange(const std::string& request, ClientResponse* response, ClientTiming* timing);

  uint64_t connects() const { return connects_; }

 private:
  bool Connect();
  void Close();
  // Receives until `buffer_` holds a full response; fills *response and
  // returns the bytes it spans, or 0 on failure. Stamps the first byte.
  size_t ReadResponse(ClientResponse* response, bool* close_after, uint64_t* first_byte_ns);

  uint16_t port_;
  int fd_ = -1;
  uint64_t connects_ = 0;
  std::string buffer_;
};

// "POST <target> HTTP/1.1" with Host and Content-Length headers.
std::string BuildPost(const std::string& target, const std::string& body);

}  // namespace e2e
}  // namespace optimus

#endif  // OPTIMUS_BENCH_E2E_CLIENT_H_
