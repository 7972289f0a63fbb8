#include "server/protocol.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace wcoj {

namespace {

// Replies are one line by contract; a message carrying a newline would
// desynchronize the stream, so flatten it.
std::string OneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\r', ' ');
  return s;
}

}  // namespace

bool ParseRequestLine(const std::string& line, ServerRequest* req,
                      std::string* error) {
  *req = ServerRequest();
  if (line == "PING") {
    req->kind = ServerRequest::Kind::kPing;
    return true;
  }
  if (line == "STATS") {
    req->kind = ServerRequest::Kind::kStats;
    return true;
  }
  if (line == "QUIT") {
    req->kind = ServerRequest::Kind::kQuit;
    return true;
  }
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb) || verb != "Q") {
    if (error != nullptr) *error = "unknown request verb";
    return false;
  }
  if (!(in >> req->engine >> req->deadline_ms >> req->budget_mb)) {
    if (error != nullptr) {
      *error = "expected: Q <engine> <deadline_ms> <budget_mb> <query>";
    }
    return false;
  }
  if (req->deadline_ms < 0 || req->budget_mb < 0) {
    if (error != nullptr) *error = "deadline_ms/budget_mb must be >= 0";
    return false;
  }
  std::getline(in, req->text);
  const size_t start = req->text.find_first_not_of(' ');
  req->text = start == std::string::npos ? "" : req->text.substr(start);
  if (req->text.empty()) {
    if (error != nullptr) *error = "empty query text";
    return false;
  }
  req->kind = ServerRequest::Kind::kQuery;
  return true;
}

std::string FormatRequestLine(const ServerRequest& req) {
  switch (req.kind) {
    case ServerRequest::Kind::kPing:
      return "PING";
    case ServerRequest::Kind::kStats:
      return "STATS";
    case ServerRequest::Kind::kQuit:
      return "QUIT";
    case ServerRequest::Kind::kQuery:
      break;
  }
  std::ostringstream out;
  out << "Q " << req.engine << " " << req.deadline_ms << " " << req.budget_mb
      << " " << OneLine(req.text);
  return out.str();
}

std::string FormatOkReply(uint64_t count, double seconds, bool cached,
                          const std::string& query_class, uint64_t seeks) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "OK count=%llu seconds=%.6f class=%s cached=%d seeks=%llu",
                static_cast<unsigned long long>(count), seconds,
                query_class.c_str(), cached ? 1 : 0,
                static_cast<unsigned long long>(seeks));
  return buf;
}

std::string FormatErrorReply(const Status& status) {
  std::ostringstream out;
  out << "ERR " << StatusCodeName(status.code()) << " msg="
      << OneLine(status.message());
  return out.str();
}

std::string FormatShedReply(int64_t retry_after_ms, uint64_t queued,
                            const std::string& why) {
  std::ostringstream out;
  out << "ERR RETRY_AFTER retry_after_ms=" << retry_after_ms << " queued="
      << queued << " msg=" << OneLine(why);
  return out.str();
}

Status ServerReply::status() const {
  if (ok) return OkStatus();
  if (shed()) return Status(StatusCode::kResourceExhausted, message);
  for (int c = 1; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    const auto named = static_cast<StatusCode>(c);
    if (code == StatusCodeName(named)) return Status(named, message);
  }
  return Status(StatusCode::kInternal,
                "unknown reply code " + code + ": " + message);
}

bool ParseReplyLine(const std::string& line, ServerReply* reply) {
  *reply = ServerReply();
  std::istringstream in(line);
  std::string head;
  if (!(in >> head)) return false;
  if (head == "OK") {
    reply->ok = true;
    reply->code = "OK";
  } else if (head == "ERR") {
    if (!(in >> reply->code)) return false;
  } else {
    return false;
  }
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      // Bare word in an OK reply ("pong", "bye", "stats").
      reply->message = token;
      continue;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "msg") {
      // msg= consumes the rest of the line, spaces included.
      std::string rest;
      std::getline(in, rest);
      reply->message = value + rest;
      break;
    }
    try {
      if (key == "count") {
        reply->count = std::stoull(value);
      } else if (key == "seconds") {
        reply->seconds = std::stod(value);
      } else if (key == "cached") {
        reply->cached = value == "1";
      } else if (key == "class") {
        reply->query_class = value;
      } else if (key == "seeks") {
        reply->seeks = std::stoull(value);
      } else if (key == "retry_after_ms") {
        reply->retry_after_ms = std::stoll(value);
      } else if (key == "queued") {
        reply->queued = std::stoull(value);
      }  // unknown keys are ignored: forward-compatible replies
    } catch (...) {
      return false;
    }
  }
  return true;
}

}  // namespace wcoj
