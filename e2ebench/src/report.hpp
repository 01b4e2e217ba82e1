// Result assembly: order statistics, the metric list, the host/build
// fingerprint, and the result JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

double median(std::vector<double> v);

/// The highest percentile that still has at least ten samples beyond
/// it: the 11th-largest value of n >= 11 samples, at percentile
/// 100 * (n - 10) / n. With fewer samples it is the largest value and
/// `percentile` is 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_with_ten_beyond(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

 private:
  std::vector<Metric> m_;
};

/// Where and how a result was measured, and which code it measured.
struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;       ///< CPUs this process may run on
  unsigned hw_threads = 0;  ///< std::thread::hardware_concurrency
  std::string kernel;
  std::string kernel_reason;
  std::string build_type;
  std::string cxx_flags;
  std::string git_commit;
  std::string source_digest;
  std::string json() const;
  /// FNV-1a over the host and build fields (not the code version), as
  /// 16 hex digits: results with different ids are not comparable.
  std::string id() const;
};

/// CPUs this process may run on (its affinity mask).
unsigned usable_cpus();

Fingerprint host_fingerprint(const std::string& git_commit,
                             const std::string& source_digest);

/// Empty when this is an optimised, non-sanitised build; otherwise why
/// its timings are not comparable.
std::string non_comparable_reason();

std::string json_escape(const std::string& s);
std::string json_num(double v);

/// Peak resident set of a process in MB (1e6 bytes), from VmHWM in
/// /proc/<pid>/status; pid 0 = this process. 0 when unreadable.
double peak_rss_mb(long pid);

}  // namespace e2e
