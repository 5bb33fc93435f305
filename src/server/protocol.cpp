#include "server/protocol.h"

#include "sql/ast.h"
#include "util/parse.h"

namespace fdevolve::server {

std::string FormatOk(uint64_t value) { return "OK " + std::to_string(value); }

std::string FormatError(const std::string& message) {
  std::string flat = message;
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "ERR " + flat;
}

std::string FormatDrift(const std::string& table, const fd::DriftEvent& event,
                        const std::string& fd_text) {
  std::string line = "DRIFT table=" + sql::QuoteIdentifier(table) +
                     " fd_index=" + std::to_string(event.fd_index) +
                     " tuples=" + std::to_string(event.tuple_count) +
                     " confidence=" + std::to_string(event.measures.confidence);
  if (event.approx) line += " approx=1";
  line += " kind=";
  line += event.kind == fd::DriftKind::kRecovered ? "recovered" : "violated";
  line += " fd=" + fd_text;
  return line;
}

std::string FormatPlan(const std::string& plan_text) {
  std::string flat;
  flat.reserve(plan_text.size());
  for (size_t i = 0; i < plan_text.size(); ++i) {
    const char c = plan_text[i];
    if (c == '\r') continue;
    if (c == '\n') {
      if (i + 1 < plan_text.size()) flat += " | ";  // drop the trailing one
      continue;
    }
    flat.push_back(c);
  }
  return "PLAN " + flat;
}

std::optional<ParsedReply> ParseReply(const std::string& line) {
  ParsedReply reply;
  if (line.rfind("OK ", 0) == 0) {
    auto v = util::ParseUint64(line.substr(3));
    if (!v) return std::nullopt;
    reply.kind = ParsedReply::Kind::kOk;
    reply.value = *v;
    return reply;
  }
  if (line.rfind("ERR ", 0) == 0) {
    reply.kind = ParsedReply::Kind::kError;
    reply.text = line.substr(4);
    return reply;
  }
  if (line.rfind("PLAN ", 0) == 0) {
    reply.kind = ParsedReply::Kind::kPlan;
    reply.text = line.substr(5);
    return reply;
  }
  if (line.rfind("DRIFT ", 0) == 0) {
    reply.kind = ParsedReply::Kind::kDrift;
    reply.text = line;
    return reply;
  }
  return std::nullopt;
}

}  // namespace fdevolve::server
