#ifndef WCOJ_SERVER_CLIENT_H_
#define WCOJ_SERVER_CLIENT_H_

// The one client of wcoj_serverd's line protocol (protocol.h):
// wcoj_client and server_test judge the server through it, and its
// SendAll is the server's reply writer too.
//
//   ServerClient c;
//   Status s = c.Connect(port);
//   StatusOr<ServerReply> r = c.Call("PING");  // one line out, one in
//
// Reads are bounded (kDeadlineExceeded instead of a hang). The bound
// sits above the server's default deadline and is raised to a query
// line's own deadline_ms plus a slack when that is longer, so a reply
// the server still owes is never cut off.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"

namespace wcoj {

// kIoError naming the failed socket call and errno; the server's too.
Status ErrnoStatus(const std::string& what);

// Writes all of `bytes` to `fd`, retrying short writes and EINTR; a
// vanished peer is an error, not a SIGPIPE.
Status SendAll(int fd, const std::string& bytes);

// A blocking connection to 127.0.0.1:<port>; closes on destruction.
class ServerClient {
 public:
  ServerClient() = default;
  ~ServerClient() { Close(); }
  ServerClient(ServerClient&& other) noexcept { *this = std::move(other); }
  ServerClient& operator=(ServerClient&& other) noexcept;

  Status Connect(int port);
  // Sends `line` + '\n'. `line` may hold several '\n'-separated
  // requests (pipelining); the first one's deadline sets the bound.
  Status SendLine(const std::string& line);
  // The next reply line without its '\n'. Bytes past it stay buffered,
  // so pipelined replies come out in order.
  StatusOr<std::string> ReadLine();
  // SendLine + ReadLine + ParseReplyLine. Non-OK = transport failure or
  // garbage; a server-side error is an OK result with reply.ok false.
  StatusOr<ServerReply> Call(const std::string& line);
  void Close();

 private:
  Status SetRecvTimeout(int64_t ms);

  int fd_ = -1;
  int64_t recv_timeout_ms_ = 0;
  std::string buf_;  // received bytes past the last returned line
};

struct LoadResult {
  uint64_t ok = 0, shed = 0;
  uint64_t err = 0;           // error replies + requests never answered
  std::vector<double> ok_ms;  // latency of each OK reply
  uint64_t count = 0;         // count of the first OK reply
  bool counts_agree = true;   // every OK reply carried `count`
  double wall_seconds = 0.0;
};

// `clients` connections send `request_line` `repeat` times each,
// waiting for every reply; ok + shed + err == clients * repeat.
LoadResult RunLoad(int port, const std::string& request_line, int clients,
                   int repeat);

// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

}  // namespace wcoj

#endif  // WCOJ_SERVER_CLIENT_H_
