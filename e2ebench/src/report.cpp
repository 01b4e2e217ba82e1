#include "report.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "checksum/kernels/kernel.hpp"

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_with_ten_beyond(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    t.percentile = 100.0;
  } else {
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  }
  return t;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : m_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  m_.push_back({name, value, unit});
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Metrics::json() const {
  std::string j = "{";
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (i) j += ", ";
    j += "\"" + m_[i].name + "\": {\"value\": " + json_num(m_[i].value) +
         ", \"unit\": \"" + m_[i].unit + "\"}";
  }
  return j + "}";
}

std::string Fingerprint::json() const {
  return "{\"cpu_model\": \"" + json_escape(cpu_model) +
         "\", \"nproc\": " + std::to_string(nproc) +
         ", \"hw_threads\": " + std::to_string(hw_threads) + ", \"kernel\": \"" +
         json_escape(kernel) + "\", \"kernel_reason\": \"" +
         json_escape(kernel_reason) + "\", \"build_type\": \"" +
         json_escape(build_type) + "\", \"cxx_flags\": \"" + json_escape(cxx_flags) +
         "\", \"git_commit\": \"" + json_escape(git_commit) +
         "\", \"source_digest\": \"" + json_escape(source_digest) +
         "\", \"id\": \"" + id() + "\"}";
}

std::string Fingerprint::id() const {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    h = (h ^ 0xff) * 1099511628211ULL;
  };
  for (const std::string* s : {&cpu_model, &kernel, &kernel_reason, &build_type, &cxx_flags})
    mix(*s);
  mix(std::to_string(nproc) + "/" + std::to_string(hw_threads));
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? static_cast<unsigned>(CPU_COUNT(&set))
                                                     : 0;
}

Fingerprint host_fingerprint(const std::string& git_commit,
                             const std::string& source_digest) {
  Fingerprint f;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      f.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  if (f.cpu_model.empty()) f.cpu_model = "unknown";
  f.nproc = usable_cpus();
  f.hw_threads = std::thread::hardware_concurrency();
  f.kernel = std::string(cksum::alg::kern::active_kernel().name);
  f.kernel_reason = cksum::alg::kern::kernel_selection_reason();
  f.build_type = E2E_BUILD_TYPE;
  f.cxx_flags = E2E_CXX_FLAGS;
  f.git_commit = git_commit;
  f.source_digest = source_digest;
  return f;
}

std::string non_comparable_reason() {
  const std::string type = E2E_BUILD_TYPE;
  const std::string flags = E2E_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + type + "' is not an optimised build";
  if (flags.find("-fsanitize") != std::string::npos)
    return "sanitizer build (" + flags + ")";
#ifndef __OPTIMIZE__
  return "compiled without optimisation";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  return "";
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kib = 0;
      ss >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

}  // namespace e2e
