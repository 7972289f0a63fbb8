#include "server/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "util/stopwatch.h"

namespace wcoj {

namespace {

// Reply wait: above ServerConfig::default_deadline_ms (60 s); a query
// line with a longer deadline_ms raises it to that plus the slack,
// which covers its queue wait and a drain's cancellation.
constexpr int64_t kReplyWaitMs = 90000;
constexpr int64_t kReplySlackMs = 30000;

}  // namespace

Status ErrnoStatus(const std::string& what) {
  const int err = errno;
  return Status(StatusCode::kIoError, what + " failed (errno " +
                                          std::to_string(err) + ": " +
                                          std::strerror(err) + ")");
}

Status SendAll(int fd, const std::string& bytes) {
  for (size_t sent = 0; sent < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno != EINTR) return ErrnoStatus("send");
    if (n > 0) sent += static_cast<size_t>(n);
  }
  return OkStatus();
}

ServerClient& ServerClient::operator=(ServerClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    recv_timeout_ms_ = other.recv_timeout_ms_;
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void ServerClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

Status ServerClient::Connect(int port) {
  Close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = ErrnoStatus("connect to port " + std::to_string(port));
    Close();
    return s;
  }
  return SetRecvTimeout(kReplyWaitMs);
}

Status ServerClient::SetRecvTimeout(int64_t ms) {
  const timeval tv{static_cast<time_t>(ms / 1000),
                   static_cast<suseconds_t>(ms % 1000 * 1000)};
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO)");
  }
  recv_timeout_ms_ = ms;
  return OkStatus();
}

Status ServerClient::SendLine(const std::string& line) {
  ServerRequest req;
  if (ParseRequestLine(line, &req, nullptr) &&
      req.deadline_ms + kReplySlackMs > recv_timeout_ms_) {
    const Status s = SetRecvTimeout(req.deadline_ms + kReplySlackMs);
    if (!s.ok()) return s;
  }
  return SendAll(fd_, line + "\n");
}

StatusOr<std::string> ServerClient::ReadLine() {
  size_t nl;
  while ((nl = buf_.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      return Status(StatusCode::kIoError, "connection closed by server");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status(StatusCode::kDeadlineExceeded,
                    "no reply in " + std::to_string(recv_timeout_ms_) + " ms");
    } else if (errno != EINTR) {
      return ErrnoStatus("recv");
    }
  }
  std::string line = buf_.substr(0, nl);
  buf_.erase(0, nl + 1);
  return line;
}

StatusOr<ServerReply> ServerClient::Call(const std::string& line) {
  const Status sent = SendLine(line);
  if (!sent.ok()) return sent;
  const StatusOr<std::string> got = ReadLine();
  if (!got.ok()) return got.status();
  ServerReply reply;
  if (!ParseReplyLine(got.value(), &reply)) {
    return Status(StatusCode::kDataLoss, "unparseable reply: " + got.value());
  }
  return reply;
}

LoadResult RunLoad(int port, const std::string& request_line, int clients,
                   int repeat) {
  // Each connection records (latency ms, reply) per answered request.
  std::vector<std::vector<std::pair<double, ServerReply>>> answers(
      static_cast<size_t>(clients));
  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (auto& mine : answers) {
    threads.emplace_back([&, &out = mine] {
      ServerClient conn;
      if (!conn.Connect(port).ok()) return;
      for (int i = 0; i < repeat; ++i) {
        const Stopwatch one;
        StatusOr<ServerReply> r = conn.Call(request_line);
        if (!r.ok()) return;
        out.emplace_back(one.ElapsedSeconds() * 1e3, r.take());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  total.wall_seconds = wall.ElapsedSeconds();
  for (const auto& conn_answers : answers) {
    total.err += static_cast<uint64_t>(repeat) - conn_answers.size();
    for (const auto& [ms, reply] : conn_answers) {
      if (reply.ok) {
        if (total.ok++ == 0) total.count = reply.count;
        total.counts_agree = total.counts_agree && reply.count == total.count;
        total.ok_ms.push_back(ms);
      } else if (reply.shed()) {
        ++total.shed;
      } else {
        ++total.err;
      }
    }
  }
  return total;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // Rank ceil(p * n), 1-based: the smallest value >= a p share of all.
  const auto rank = static_cast<size_t>(std::ceil(p * values.size()));
  const size_t idx = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

}  // namespace wcoj
