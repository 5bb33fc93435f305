// Wire protocol of the FD-monitoring server — plain TCP, newline-framed.
//
// Requests: one SQL statement per line (LF-terminated; a trailing CR is
// stripped so `nc -C` and telnet-style clients work). Empty lines are
// ignored. A line longer than kMaxRequestLine bytes gets one ERR reply
// and the server closes that session. The dialect is the full sql/
// grammar: SELECT COUNT, INSERT, DELETE, UPDATE, CREATE TABLE,
// DECLARE FD ... ON t [EVERY n], EXPLAIN REPAIR ... ON t,
// SUBSCRIBE DRIFT ON t, CHECKPOINT, SHUTDOWN.
//
// Replies: exactly one line per request —
//
//   OK <uint64>      statement succeeded; the value is the count for
//                    SELECT, rows inserted for INSERT, 0 otherwise
//   PLAN <text>      EXPLAIN REPAIR succeeded; <text> is the rendered
//                    repair-search plan with its newlines flattened to
//                    " | " so the reply stays one frame
//   ERR <message>    parse or execution error (single line; embedded
//                    newlines in the message are flattened to spaces)
//
// Pushes: sessions that issued SUBSCRIBE DRIFT ON t additionally receive
// asynchronous lines
//
//   DRIFT table=<t> fd_index=<i> tuples=<n> confidence=<c> [approx=1]
//         kind=<violated|recovered> fd=<text>
//
// (one line on the wire) whenever a monitored FD on t crosses the
// exact/violated boundary: kind=violated when an insert broke a
// previously-exact FD, kind=recovered when deletes removed the last
// violating witness and the FD is exact again. approx=1 appears only on
// events from a sampled monitor (DECLARE FD ... SAMPLE k) whose reservoir
// did not cover every live row: the confidence is then an estimate, and
// only the violation (a sampled witness pair) is certain. DRIFT lines can
// arrive at ANY point between — or even before — reply lines (a session
// subscribed to a table it inserts into sees the DRIFT its own insert
// triggered before that insert's OK). Clients must therefore read lines
// until a non-DRIFT line arrives and treat the DRIFTs as out-of-band
// (Client::Request does exactly this). <text> is the FD rendered against
// the table schema and may contain spaces; it is always the final field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "fd/schema_monitor.h"

namespace fdevolve::server {

/// Longest request line the server accepts (bytes, excluding the LF) —
/// far above any real statement, but it bounds a session's buffer.
inline constexpr size_t kMaxRequestLine = size_t{16} << 20;

/// Formats the one-line success reply (no trailing newline).
std::string FormatOk(uint64_t value);

/// Formats the one-line error reply; newlines in `message` become spaces
/// so the reply cannot be mistaken for multiple frames.
std::string FormatError(const std::string& message);

/// Formats an asynchronous drift push line. `fd_text` is the drifted
/// (violated or recovered) FD rendered against the table schema.
std::string FormatDrift(const std::string& table, const fd::DriftEvent& event,
                        const std::string& fd_text);

/// Formats the one-line EXPLAIN REPAIR reply: the plan's newlines are
/// flattened to " | " separators so the reply stays a single frame.
std::string FormatPlan(const std::string& plan_text);

/// A reply or push line, decoded.
struct ParsedReply {
  enum class Kind { kOk, kError, kDrift, kPlan };
  Kind kind = Kind::kError;
  uint64_t value = 0;     ///< OK payload
  std::string text;       ///< ERR message, raw DRIFT line, or PLAN payload
};

/// Decodes one reply/push line; std::nullopt if the line matches none of
/// the three frame shapes (protocol violation).
std::optional<ParsedReply> ParseReply(const std::string& line);

}  // namespace fdevolve::server
