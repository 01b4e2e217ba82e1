// In-memory span recorder for the traced run. Spans come only from the
// benchmark's own code, around calls into the program's public
// functions; nothing inside the program is instrumented.
//
// A span has a name, start and end (steady clock, ns since the tracer
// was made), its parent span and the job it belongs to. Spans are kept
// in memory and written out once, when the run ends. A span's self
// time is its duration minus the part of it that its child spans
// cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into spans(), -1 for a root
  std::uint64_t job = 0;
};

class Tracer {
 public:
  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// Open a span as a child of the innermost open span (if any).
  void begin(std::string name, std::uint64_t job);
  /// Close the innermost open span.
  void end();

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<std::int64_t> self_times() const;

  /// Per job: summed self time by span name (root spans included under
  /// their own name).
  std::map<std::uint64_t, std::map<std::string, std::int64_t>> self_by_job() const;

  /// Write every span as Chrome trace-event JSON ("X" events, ts/dur in
  /// microseconds; args carry id, parent, job and self time). Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t job) : t_(t) {
    if (t_ != nullptr) t_->begin(name, job);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace e2e
