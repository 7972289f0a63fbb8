#ifndef WCOJ_SERVER_PROTOCOL_H_
#define WCOJ_SERVER_PROTOCOL_H_

// Wire protocol of wcoj_serverd: one '\n'-terminated ASCII line per
// request, exactly one line per reply, in request order (clients may
// pipeline). A reply may take several partial sends, but a client never
// parses a torn one: it reads up to the '\n', and an injected
// "server.write" fault fires before the first byte of a reply.
//
// Requests:
//
//   Q <engine> <deadline_ms> <budget_mb> <query text...>
//   PING
//   STATS
//   QUIT
//
// deadline_ms / budget_mb of 0 mean "use the server default". The query
// text is the paper notation the CLI tools already accept, e.g.
// "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)".
//
// Replies:
//
//   OK count=<n> seconds=<s> class=<cheap|heavy> cached=<0|1> seeks=<n>
//   OK pong | OK bye | OK stats <key=value...>
//   ERR <CODE> msg=<text>
//   ERR RETRY_AFTER retry_after_ms=<n> queued=<n> msg=<text>
//
// The stats reply carries every ServerStats field keyed by its own
// name (server.h's kServerStatsFields, printed by FormatServerStats).
// <CODE> is StatusCodeName (BUDGET_EXCEEDED, DEADLINE_EXCEEDED,
// CANCELLED, INVALID_ARGUMENT, ...); RETRY_AFTER is the admission
// controller shedding load — the client should back off at least
// retry_after_ms before retrying. Every failure is a structured reply
// on the still-open connection, never a silently dropped socket.

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace wcoj {

// Longest request line the server buffers before replying
// INVALID_ARGUMENT and closing — the cap that keeps one client from
// ballooning server memory with an unterminated line.
constexpr size_t kMaxRequestLineBytes = 64 * 1024;

struct ServerRequest {
  enum class Kind { kQuery, kPing, kStats, kQuit };
  Kind kind = Kind::kQuery;
  std::string engine;
  int64_t deadline_ms = 0;  // 0 = server default
  int64_t budget_mb = 0;    // 0 = server default
  std::string text;         // query body, paper notation
};

// Parses one request line (no trailing newline). False + *error on a
// malformed line.
bool ParseRequestLine(const std::string& line, ServerRequest* req,
                      std::string* error);
std::string FormatRequestLine(const ServerRequest& req);

struct ServerReply {
  bool ok = false;
  std::string code;  // StatusCodeName, or "RETRY_AFTER" for a shed
  uint64_t count = 0;
  double seconds = 0.0;
  bool cached = false;
  std::string query_class;  // "cheap" | "heavy"
  uint64_t seeks = 0;
  int64_t retry_after_ms = 0;
  uint64_t queued = 0;
  std::string message;

  bool shed() const { return !ok && code == "RETRY_AFTER"; }
  // The reply as a Status: OK, the StatusCode that `code` names
  // (StatusCodeName inverted), kResourceExhausted for a shed, or
  // kInternal for a code this client does not know.
  Status status() const;
};

std::string FormatOkReply(uint64_t count, double seconds, bool cached,
                          const std::string& query_class, uint64_t seeks);
// Structured error reply for any non-OK Status (newlines in the message
// are flattened to spaces; replies are single lines by construction).
std::string FormatErrorReply(const Status& status);
// Load-shed reply: the admission queue is full (or the server is
// draining); retry elsewhere or after the hinted delay.
std::string FormatShedReply(int64_t retry_after_ms, uint64_t queued,
                            const std::string& why);

// Parses either reply shape (no trailing newline). False on garbage.
bool ParseReplyLine(const std::string& line, ServerReply* reply);

}  // namespace wcoj

#endif  // WCOJ_SERVER_PROTOCOL_H_
