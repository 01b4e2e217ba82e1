// e2ebench — the repository's end-to-end benchmark program.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir> --cksumlab <path> [--trace-out <file>]
//            [--git-commit <id>] [--source-digest <hex>]
//   e2ebench --self-test
//
// Normally started by run.py, which builds it and passes the paths.
// Prints one info line (host/build fingerprint, set-up and oracle
// times, sample counts) and then, as the last line, the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 0 only when every job's output passed its check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.hpp"
#include "report.hpp"
#include "runtime.hpp"
#include "workloads.hpp"

namespace {

/// Whole-process budget: a run must end within 180 s (run.py kills it
/// at 170 s), so a stuck set-up or job ends the run before that.
constexpr double kRunBudgetS = 165.0;

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                --workdir <dir> --cksumlab <path> [--trace-out <file>]\n"
               "                [--git-commit <id>] [--source-digest <hex>]\n"
               "       e2ebench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2e;
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options opt;
  opt.seed = 1;
  std::string git_commit = "unknown", source_digest = "unknown";
  bool self = false;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= args.size()) throw std::invalid_argument(a + " needs a value");
        return args[++i];
      };
      if (a == "--workload") opt.workload = next();
      else if (a == "--seed") opt.seed = std::stoull(next());
      else if (a == "--seconds") opt.seconds = std::stod(next());
      else if (a == "--trace") opt.trace = std::stoi(next()) != 0;
      else if (a == "--workdir") opt.workdir = next();
      else if (a == "--cksumlab") opt.cksumlab = next();
      else if (a == "--trace-out") opt.trace_out = next();
      else if (a == "--git-commit") git_commit = next();
      else if (a == "--source-digest") source_digest = next();
      else if (a == "--self-test") self = true;
      else throw std::invalid_argument("unknown option " + a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return usage();
  }

  if (self) {
    const std::string why = self_test();
    std::printf("self-test: %s\n", why.empty() ? "every corrupted output was caught" : why.c_str());
    return why.empty() ? 0 : 1;
  }
  if (opt.workload.empty() || opt.seconds <= 0 || opt.workdir.empty() || opt.cksumlab.empty())
    return usage();

  const std::string refuse = non_comparable_reason();
  if (!refuse.empty()) {
    std::fprintf(stderr, "e2ebench: refusing to measure: %s\n", refuse.c_str());
    return 2;
  }

  Watchdog wd(kRunBudgetS);
  Outcome out;
  std::string error;
  bool ok = false;
  try {
    ok = run_workload(opt, wd, &out, &error);
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }
  if (!ok) abort_run("set-up failed: " + error);

  if (!claim_result()) return 1;
  RunState& rs = run_state();
  const Fingerprint fp = host_fingerprint(git_commit, source_digest);
  std::string failures = "[";
  for (std::size_t i = 0; i < rs.failures.size(); ++i)
    failures += (i ? ", \"" : "\"") + json_escape(rs.failures[i]) + "\"";
  failures += "]";
  std::printf("{\"e2ebench_info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"fingerprint\": %s, \"failures\": %s%s}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              json_num(opt.seconds).c_str(), opt.trace ? 1 : 0, fp.json().c_str(),
              failures.c_str(), out.info.c_str());
  const bool correct = rs.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(rs.attempted),
              static_cast<unsigned long long>(rs.failed), out.metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
