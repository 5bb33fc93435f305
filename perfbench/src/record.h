// Measurement plumbing shared by the benchmark's phases: raw samples,
// pass/fail accounting, an in-memory span tracer and the JSON file the
// Python runner summarizes. Nothing here computes a percentile — the
// runner owns every statistic, so its self-tests cover all of them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}
inline double MillisSince(Clock::time_point t0) {
  return MicrosSince(t0) / 1000.0;
}

/// Named sample lists (one value per timed operation) and scalars (one
/// value per run). Thread-safe; hot loops collect locally and Merge once.
class Recorder {
 public:
  void Add(const std::string& name, double value);
  void Merge(const std::string& name, const std::vector<double>& values);
  void Set(const std::string& name, double value);

  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> scalars;

 private:
  std::mutex mutex_;
};

/// Counts every checked operation and every failure. A run with any
/// failure is reported incorrect and exits non-zero.
class Checks {
 public:
  /// Records one attempted operation; returns `ok`. The first few
  /// failure messages are kept for the report.
  bool Expect(bool ok, const std::string& what);
  /// Records `n` attempted operations that all succeeded.
  void Passed(uint64_t n);

  uint64_t attempted() const;
  uint64_t failed() const;
  std::vector<std::string> messages() const;

 private:
  mutable std::mutex mutex_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Single-threaded span recorder. A span is (name, start, end, parent,
/// request id); spans are kept in memory and folded at the end into
/// per-name duration lists plus each root name's self time, which is the
/// part of the end-to-end operation no layer span covers. Disabled
/// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  struct Summary {
    /// Duration of every span, by name, in microseconds.
    std::map<std::string, std::vector<double>> durations_us;
    /// Per root name: total duration and the self time no child covers.
    std::map<std::string, std::pair<double, double>> roots_us;
  };
  Summary Summarize() const;

 private:
  struct Rec {
    const char* name;
    int64_t parent;
    uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled_;
  std::vector<Rec> spans_;
  std::vector<int64_t> open_;  ///< stack of open span indices
  uint64_t next_request_ = 0;
};

/// Everything one phase run needs.
struct Context {
  uint64_t seed = 1;
  bool trace = false;
  std::string tmp_dir;  ///< scratch files (checkpoints), inside the checkout
  Recorder* rec = nullptr;
  Checks* checks = nullptr;
  Tracer* tracer = nullptr;
};

/// Writes the run's raw result file (samples, scalars, spans, checks).
bool WriteRawResult(const std::string& path, const std::string& workload,
                    const Recorder& rec, const Checks& checks,
                    const Tracer& tracer,
                    const std::map<std::string, std::string>& info);

}  // namespace perfbench
