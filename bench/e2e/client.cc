#include "bench/e2e/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "src/telemetry/trace.h"

namespace optimus {
namespace e2e {

namespace {

constexpr size_t kMaxBodyBytes = 64 << 20;

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string Lower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

std::string Trim(const std::string& text) {
  const size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) {
    return "";
  }
  return text.substr(begin, text.find_last_not_of(" \t\r") - begin + 1);
}

}  // namespace

std::string BuildPost(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  ++connects_;
  buffer_.clear();
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

size_t HttpClient::ReadResponse(ClientResponse* response, bool* close_after,
                                uint64_t* first_byte_ns) {
  *first_byte_ns = buffer_.empty() ? 0 : telemetry::MonotonicNanos();
  size_t head_end = std::string::npos;
  size_t content_length = 0;
  char chunk[16384];
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        if (buffer_.compare(0, 5, "HTTP/") != 0 || head_end < 12) {
          return 0;
        }
        response->status = std::atoi(buffer_.c_str() + 9);
        *close_after = buffer_.compare(0, 8, "HTTP/1.0") == 0;
        bool has_length = false;
        size_t line_start = buffer_.find("\r\n") + 2;
        while (line_start < head_end) {
          const size_t line_end = buffer_.find("\r\n", line_start);
          const std::string line = buffer_.substr(line_start, line_end - line_start);
          line_start = line_end + 2;
          const size_t colon = line.find(':');
          if (colon == std::string::npos) {
            continue;
          }
          const std::string name = Lower(line.substr(0, colon));
          const std::string value = Trim(line.substr(colon + 1));
          if (name == "content-length") {
            char* end = nullptr;
            const unsigned long long length = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || length > kMaxBodyBytes) {
              return 0;
            }
            content_length = static_cast<size_t>(length);
            has_length = true;
          } else if (name == "connection") {
            *close_after = Lower(value) == "close";
          }
        }
        if (!has_length) {
          return 0;
        }
      }
    }
    if (head_end != std::string::npos && buffer_.size() >= head_end + 4 + content_length) {
      response->body = buffer_.substr(head_end + 4, content_length);
      return head_end + 4 + content_length;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return 0;
    }
    if (*first_byte_ns == 0) {
      *first_byte_ns = telemetry::MonotonicNanos();
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool HttpClient::Exchange(const std::string& request, ClientResponse* response,
                          ClientTiming* timing) {
  *response = ClientResponse{};
  *timing = ClientTiming{};
  timing->start_ns = telemetry::MonotonicNanos();
  // At most two tries: a kept-alive connection the server closed while idle
  // fails before any response byte, and the request is resent on a fresh one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused && !Connect()) {
      return false;
    }
    const uint64_t connected_ns = telemetry::MonotonicNanos();
    const bool sent = SendAll(fd_, request);
    const uint64_t sent_ns = telemetry::MonotonicNanos();
    bool close_after = false;
    uint64_t first_byte_ns = 0;
    const size_t consumed = sent ? ReadResponse(response, &close_after, &first_byte_ns) : 0;
    if (consumed > 0) {
      const uint64_t done_ns = telemetry::MonotonicNanos();
      // The four spans tile the exchange exactly; a stale first try is
      // charged to connect.
      timing->connect_ns = connected_ns - timing->start_ns;
      timing->send_ns = sent_ns - connected_ns;
      timing->wait_ns = first_byte_ns - sent_ns;
      timing->read_ns = done_ns - first_byte_ns;
      buffer_.erase(0, consumed);
      if (close_after) {
        Close();
      }
      return true;
    }
    Close();
    if (!reused || first_byte_ns != 0) {
      return false;
    }
  }
  return false;
}

}  // namespace e2e
}  // namespace optimus
