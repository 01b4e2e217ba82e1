#include "runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>

#include "report.hpp"

namespace e2e {

void RunState::job_done(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu);
  attempted += 1;
  if (!why.empty()) {
    failed += 1;
    if (failures.size() < 5) failures.push_back(why);
  }
}

void RunState::add_child(pid_t pid) {
  std::lock_guard<std::mutex> lock(mu);
  children.push_back(pid);
}

void RunState::remove_child(pid_t pid) {
  std::lock_guard<std::mutex> lock(mu);
  children.erase(std::remove(children.begin(), children.end(), pid), children.end());
}

RunState& run_state() {
  static RunState s;
  return s;
}

bool claim_result() {
  RunState& s = run_state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.finished) return false;
  s.finished = true;
  return true;
}

void abort_run(const std::string& why) {
  RunState& s = run_state();
  std::unique_lock<std::mutex> lock(s.mu);
  if (s.finished) {
    // The main thread is printing the result; let it finish.
    lock.unlock();
    for (;;) pause();
  }
  s.finished = true;
  for (const pid_t pid : s.children) ::kill(pid, SIGKILL);
  for (const pid_t pid : s.children) ::waitpid(pid, nullptr, 0);
  std::fprintf(stderr, "e2ebench: %s\n", why.c_str());
  std::printf("{\"e2ebench_info\": {\"aborted\": \"%s\"}}\n", json_escape(why).c_str());
  std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
              static_cast<unsigned long long>(s.attempted + 1),
              static_cast<unsigned long long>(s.failed + 1));
  std::fflush(stdout);
  std::fflush(stderr);
  ::_exit(1);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  CPU_ZERO(&used_);
  if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
}

void CpuRotation::pin(pid_t tid, std::size_t k) {
  if (cpus_.size() < 2) return;
  const int cpu = cpus_[k % cpus_.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(tid, sizeof one, &one) == 0) CPU_SET(cpu, &used_);
}

void CpuRotation::release() {
  if (cpus_.size() >= 2) ::sched_setaffinity(0, sizeof allowed_, &allowed_);
}

Watchdog::Watchdog(double run_budget_s)
    : run_deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(run_budget_s))),
      thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::arm(double seconds, std::string what) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    what_ = std::move(what);
    armed_ = true;
  }
  cv_.notify_all();
}

void Watchdog::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const Clock::time_point until =
        armed_ ? std::min(deadline_, run_deadline_) : run_deadline_;
    cv_.wait_until(lock, until);
    if (stop_) break;
    const Clock::time_point now = Clock::now();
    if (now >= run_deadline_) {
      lock.unlock();
      abort_run("run budget exhausted");
    }
    if (armed_ && now >= deadline_) {
      const std::string what = what_;
      lock.unlock();
      abort_run("timed out: " + what);
    }
  }
}

}  // namespace e2e
