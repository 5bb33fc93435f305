#include "record.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void Recorder::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples[name].push_back(value);
}

void Recorder::Merge(const std::string& name,
                     const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& dst = samples[name];
  dst.insert(dst.end(), values.begin(), values.end());
}

void Recorder::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  scalars[name] = value;
}

bool Checks::Expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  return ok;
}

void Checks::Passed(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

uint64_t Checks::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::vector<std::string> Checks::messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Rec rec;
  rec.name = name;
  rec.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  rec.request = rec.parent < 0
                    ? tracer_->next_request_++
                    : tracer_->spans_[static_cast<size_t>(rec.parent)].request;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->open_.push_back(index_);
  rec.start = Clock::now();
  tracer_->spans_.push_back(rec);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end = Clock::now();
  tracer_->open_.pop_back();
}

Tracer::Summary Tracer::Summarize() const {
  Summary out;
  std::vector<double> child_us(spans_.size(), 0.0);
  std::vector<double> dur_us(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    dur_us[i] =
        std::chrono::duration<double, std::micro>(r.end - r.start).count();
    if (r.parent >= 0) child_us[static_cast<size_t>(r.parent)] += dur_us[i];
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    out.durations_us[r.name].push_back(dur_us[i]);
    if (r.parent < 0) {
      auto& root = out.roots_us[r.name];
      root.first += dur_us[i];
      root.second += dur_us[i] - child_us[i];
    }
  }
  return out;
}

namespace {

void WriteNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

void WriteString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void WriteList(std::ostream& os, const std::vector<double>& values) {
  os << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) os << ',';
    WriteNumber(os, values[i]);
  }
  os << ']';
}

}  // namespace

bool WriteRawResult(const std::string& path, const std::string& workload,
                    const Recorder& rec, const Checks& checks,
                    const Tracer& tracer,
                    const std::map<std::string, std::string>& info) {
  std::ostringstream os;
  os << "{\"workload\":";
  WriteString(os, workload);
  os << ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : info) {
    if (!first) os << ',';
    first = false;
    WriteString(os, k);
    os << ':';
    WriteString(os, v);
  }
  os << "},\"attempted\":" << checks.attempted()
     << ",\"failed\":" << checks.failed() << ",\"failures\":[";
  const auto messages = checks.messages();
  for (size_t i = 0; i < messages.size(); ++i) {
    if (i) os << ',';
    WriteString(os, messages[i]);
  }
  os << "],\"samples\":{";
  first = true;
  for (const auto& [name, values] : rec.samples) {
    if (!first) os << ',';
    first = false;
    WriteString(os, name);
    os << ':';
    WriteList(os, values);
  }
  os << "},\"scalars\":{";
  first = true;
  for (const auto& [name, value] : rec.scalars) {
    if (!first) os << ',';
    first = false;
    WriteString(os, name);
    os << ':';
    WriteNumber(os, value);
  }
  os << "},\"spans_us\":{";
  const Tracer::Summary summary = tracer.Summarize();
  first = true;
  for (const auto& [name, values] : summary.durations_us) {
    if (!first) os << ',';
    first = false;
    WriteString(os, name);
    os << ':';
    WriteList(os, values);
  }
  os << "},\"roots_us\":{";
  first = true;
  for (const auto& [name, totals] : summary.roots_us) {
    if (!first) os << ',';
    first = false;
    WriteString(os, name);
    os << ":{\"total\":";
    WriteNumber(os, totals.first);
    os << ",\"self\":";
    WriteNumber(os, totals.second);
    os << '}';
  }
  os << "}}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << os.str();
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
