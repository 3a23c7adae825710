// The tyder1 request/response text protocol carried inside net/frame.h
// frames.
//
// Request payload (lines separated by '\n', no trailing newline required):
//
//   tyder1 <command> <deadline_ms>      magic, command word, per-request
//                                       budget in ms (0 = no deadline)
//   <arg>                               zero or more argument lines; an
//   <arg>                               argument may contain spaces but
//   ...                                 never a newline
//
// Response payload:
//
//   OK                                  executed; body lines follow
//   ERR <CodeName>                      failed; body line 1 is the message
//   RETRY_AFTER <ms>                    load-shed before execution: the
//                                       request was NOT applied, retry later
//   DEADLINE_EXCEEDED                   budget expired before execution
//                                       began: the request was NOT applied
//   DEGRADED                            the store is read-only degraded;
//                                       body line 1 names the original
//                                       durability failure
//
// RETRY_AFTER / DEADLINE_EXCEEDED are definitive nacks: they are only ever
// sent for requests that never reached the catalog (shed at admission or
// expired while waiting for an execution slot). Once a mutation starts
// executing it runs to completion and the answer is OK or ERR — the one
// indeterminate window is a connection that dies after the request was sent
// but before any response arrives, which the chaos harness
// (tests/net/chaos.h) accounts for explicitly.

#ifndef TYDER_NET_PROTOCOL_H_
#define TYDER_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tyder::net {

inline constexpr std::string_view kProtocolMagic = "tyder1";

struct Request {
  std::string command;
  uint64_t deadline_ms = 0;  // 0 = unbounded
  std::vector<std::string> args;
};

enum class ResponseKind {
  kOk,
  kErr,
  kRetryAfter,
  kDeadlineExceeded,
  kDegraded,
};

struct Response {
  ResponseKind kind = ResponseKind::kOk;
  StatusCode code = StatusCode::kOk;  // kErr only
  uint64_t retry_after_ms = 0;        // kRetryAfter only
  std::vector<std::string> body;

  bool ok() const { return kind == ResponseKind::kOk; }
  // First body line, or "" — the error/degraded message slot.
  std::string_view message() const {
    return body.empty() ? std::string_view() : std::string_view(body.front());
  }
};

std::string EncodeRequest(const Request& request);
Result<Request> ParseRequest(std::string_view payload);

std::string EncodeResponse(const Response& response);
Result<Response> ParseResponse(std::string_view payload);

// Convenience constructors for the server side.
Response OkResponse(std::vector<std::string> body = {});
Response ErrResponse(const Status& status);
Response RetryAfterResponse(uint64_t ms);
Response DeadlineExceededResponse();
Response DegradedResponse(std::string cause);

// Maps a code name ("NotFound") back to its StatusCode; kInternal for
// anything unrecognized (forward compatibility beats rejection here).
StatusCode StatusCodeFromName(std::string_view name);

}  // namespace tyder::net

#endif  // TYDER_NET_PROTOCOL_H_
