// Process hygiene for one benchmark run: the job/failure tally, the
// dist worker processes the run has spawned, and a watchdog that turns
// a hung job into a failed job instead of a hang.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

/// Process-wide tally and child list. The watchdog reads them from its
/// own thread when it has to end the run early.
struct RunState {
  std::mutex mu;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
  std::vector<pid_t> children;        ///< spawned, not yet reaped
  bool finished = false;              ///< the result line was printed

  void job_done(const std::string& why);
  void add_child(pid_t pid);
  void remove_child(pid_t pid);
};
RunState& run_state();

/// Print the result line for a run that cannot go on (a job timed out
/// or set-up failed), kill and reap every spawned child, and exit 1.
/// A no-op when the result was already printed.
[[noreturn]] void abort_run(const std::string& why);

/// Claims the right to print the result line; false when abort_run
/// got there first.
bool claim_result();

/// Spreads the threads that run a closed loop's jobs over every CPU the
/// process may run on. On a shared host each vCPU is slowed for seconds
/// at a time by whatever shares its physical core, independently of the
/// others; a job thread left on one vCPU measures that vCPU's luck.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins thread `tid` (0: the calling thread) to allowed CPU `k` modulo
  /// their count.
  void pin(pid_t tid, std::size_t k);
  /// Restores the calling thread's original mask.
  void release();
  /// How many distinct CPUs pin() has used.
  int used() const { return CPU_COUNT(&used_); }

 private:
  cpu_set_t allowed_;
  cpu_set_t used_;
  std::vector<int> cpus_;
};

/// Fires abort_run when an armed deadline passes, or when the whole
/// run outlives its budget.
class Watchdog {
 public:
  explicit Watchdog(double run_budget_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(double seconds, std::string what);
  void disarm();

 private:
  using Clock = std::chrono::steady_clock;
  void loop();

  std::mutex mu_;
  std::condition_variable cv_;
  Clock::time_point run_deadline_;
  Clock::time_point deadline_;
  bool armed_ = false;
  bool stop_ = false;
  std::string what_;
  std::thread thread_;
};

}  // namespace e2e
