// The four benchmark workloads. Each is a closed loop: one job in
// flight, the next starting when the previous returns. A job is one
// complete experiment over the workload's corpus or capture, and its
// output is checked (checks.hpp) before it counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "runtime.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;    ///< private scratch dir for stores and captures
  std::string cksumlab;   ///< the CLI binary dist workers run
  std::string trace_out;  ///< where the traced run writes its spans
};

struct Outcome {
  Metrics metrics;
  std::string info;  ///< extra JSON members for the info line
};

/// Runs one workload. Returns false (with *error) when the name is
/// unknown or set-up fails before any job ran.
bool run_workload(const Options& opt, Watchdog& wd, Outcome* out, std::string* error);

}  // namespace e2e
