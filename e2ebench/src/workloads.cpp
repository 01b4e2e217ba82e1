#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "atm/splice.hpp"
#include "checks.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/experiments.hpp"
#include "core/splice_sim.hpp"
#include "dist/protocol.hpp"
#include "dist/service.hpp"
#include "dist/spawn.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/profile.hpp"
#include "inputs.hpp"
#include "obs/registry.hpp"
#include "tracer.hpp"
#include "trace/ingest.hpp"
#include "trace/pcap_reader.hpp"
#include "trace/profile.hpp"

namespace e2e {

using namespace cksum;
using Clock = std::chrono::steady_clock;

namespace {

// Source bytes per job. Each is sized so a run of a few tens of
// seconds holds dozens of jobs (the tail percentile needs ten beyond
// it) while a corpus-stream job stays well over a second of
// single-thread work: shorter four-thread bursts measure vCPU wake-up,
// not the scheduler.
constexpr std::size_t kFsInmemBytes = 3'000'000;
constexpr std::size_t kCorpusStreamBytes = 7'500'000;
constexpr std::size_t kDistBytes = 8'000'000;
constexpr std::size_t kCaptureBytes = 8'000'000;

constexpr std::size_t kCorpusSegment = 384;
constexpr unsigned kDistWorkers = 2;
/// Shards per dist job. The service's default (8 for two workers)
/// leaves the job time to how a few large shards fall on two workers;
/// 32 keeps that imbalance small and exercises the lease path more.
constexpr std::size_t kDistShards = 32;
constexpr unsigned kDamagePerMille = 5;
/// Pool starts per dist run. One takes about 3 ms and process spawn now
/// and then takes twice that; 15 keep the median steady between runs.
constexpr int kDistSetups = 15;

constexpr double kJobTimeoutS = 45.0;
/// Peak RSS is read once this many measured jobs have run, so the
/// figure does not grow with how many jobs fit into the window.
constexpr std::size_t kRssAfterJobs = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

struct Counters {
  obs::Snapshot snap;
  static Counters now() { return {obs::Registry::global().snapshot()}; }
  std::uint64_t value(std::string_view name) const {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->value : 0;
  }
  std::uint64_t sum(std::string_view name) const {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->sum : 0;
  }
};

double delta(const Counters& a, const Counters& b, std::string_view name) {
  return static_cast<double>(b.value(name) - a.value(name));
}

using JobFn = std::function<std::string(Tracer*, std::uint64_t job)>;

/// The closed loop and its bookkeeping.
class Bench {
 public:
  Bench(const Options& opt, Watchdog& wd) : opt_(opt), wd_(wd) {
    if (opt.trace) tracer_ = std::make_unique<Tracer>();
  }

  Tracer* tracer() { return tracer_.get(); }
  std::function<double()> rss_probe = [] { return peak_rss_mb(0); };
  /// Runs after every job, outside its timing.
  std::function<void()> after_job = [] {};
  /// For jobs that run on the calling thread only: pin each job to the
  /// next CPU in turn.
  bool rotate_cpus = false;
  CpuRotation rotation;

  /// One timed, checked job. Returns its wall time.
  double job(const JobFn& fn, Tracer* tr, const char* root = "job") {
    const std::uint64_t id = next_id_++;
    if (rotate_cpus) rotation.pin(0, id);
    wd_.arm(kJobTimeoutS, opt_.workload + " job " + std::to_string(id));
    const Clock::time_point t0 = Clock::now();
    std::string why;
    {
      Scope span(tr, root, id);
      try {
        why = fn(tr, id);
      } catch (const std::exception& e) {
        why = std::string("exception: ") + e.what();
      }
    }
    const double dt = since(t0);
    wd_.disarm();
    if (rotate_cpus) rotation.release();
    run_state().job_done(why);
    if (!why.empty())
      std::fprintf(stderr, "e2ebench: %s job %llu failed: %s\n", opt_.workload.c_str(),
                   static_cast<unsigned long long>(id), why.c_str());
    if (tr != nullptr && std::string(root) == "job") traced_ids_.push_back(id);
    if (++done_ == warmup_ + kRssAfterJobs) rss_ = rss_probe();
    after_job();
    return dt;
  }

  /// Warm-up, then the window: all of it untraced, or in the traced run
  /// the first half untraced (the overhead baseline) and the second
  /// half traced.
  void measure(const JobFn& fn, std::size_t warmup) {
    warmup_ = warmup;
    for (std::size_t i = 0; i < warmup; ++i) job(fn, nullptr);
    if (!tracer_) {
      untraced = loop(fn, opt_.seconds, nullptr);
      return;
    }
    untraced = loop(fn, opt_.seconds / 2, nullptr);
    before = Counters::now();
    traced = loop(fn, opt_.seconds / 2, tracer_.get());
    after = Counters::now();
  }

  double rss() {
    if (rss_ == 0.0) rss_ = rss_probe();
    return rss_;
  }

  /// Median over traced jobs of the self time (s) spent in spans named
  /// `name`.
  double layer(const std::string& name) const {
    std::vector<double> v;
    for (const std::uint64_t id : traced_ids_) {
      const auto j = by_job_.find(id);
      double s = 0;
      if (j != by_job_.end()) {
        const auto it = j->second.find(name);
        if (it != j->second.end()) s = static_cast<double>(it->second) / 1e9;
      }
      v.push_back(s);
    }
    return median(v);
  }

  /// Summed self time (s) of `name` over all traced jobs.
  double layer_total(const std::string& name) const {
    double total = 0;
    for (const std::uint64_t id : traced_ids_) total += in_job(id, name);
    return total;
  }

  /// Summed self time (s) of `name` within one job or pass.
  double in_job(std::uint64_t id, const std::string& name) const {
    const auto j = by_job_.find(id);
    if (j == by_job_.end()) return 0;
    const auto it = j->second.find(name);
    return it == j->second.end() ? 0 : static_cast<double>(it->second) / 1e9;
  }

  std::uint64_t last_id() const { return next_id_ - 1; }
  std::size_t traced_jobs() const { return traced_ids_.size(); }

  /// Closes the traced run: computes self times, writes the spans.
  void finish_trace() {
    if (!tracer_) return;
    by_job_ = tracer_->self_by_job();
    if (!opt_.trace_out.empty() && !tracer_->write_chrome_json(opt_.trace_out))
      std::fprintf(stderr, "e2ebench: cannot write trace to %s\n", opt_.trace_out.c_str());
  }

  /// Median fraction of each traced job's wall time that no layer span
  /// covers.
  double unaccounted_frac() const {
    std::vector<double> v;
    const std::vector<std::int64_t> self = tracer_->self_times();
    const std::vector<Span>& spans = tracer_->spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent < 0 && spans[i].name == "job")
        v.push_back(ratio(static_cast<double>(self[i]),
                          static_cast<double>(spans[i].end_ns - spans[i].start_ns)));
    return median(v);
  }

  /// "name": median self seconds per traced job, for every span name.
  std::string layers_json() const {
    std::map<std::string, bool> names;
    for (const auto& [id, m] : by_job_)
      for (const auto& [n, ns] : m) names[n] = true;
    std::string j = "{";
    for (const auto& [n, unused] : names) {
      if (j.size() > 1) j += ", ";
      j += "\"" + n + "\": " + json_num(layer(n));
    }
    return j + "}";
  }

  std::vector<double> untraced, traced;
  Counters before, after;
  std::size_t warmup_count() const { return warmup_; }

 private:
  std::vector<double> loop(const JobFn& fn, double seconds, Tracer* tr) {
    std::vector<double> out;
    const Clock::time_point t0 = Clock::now();
    do {
      out.push_back(job(fn, tr));
    } while (since(t0) < seconds);
    return out;
  }

  const Options& opt_;
  Watchdog& wd_;
  std::unique_ptr<Tracer> tracer_;
  std::uint64_t next_id_ = 1;
  std::size_t warmup_ = 0;
  std::size_t done_ = 0;
  double rss_ = 0.0;
  std::vector<std::uint64_t> traced_ids_;
  std::map<std::uint64_t, std::map<std::string, std::int64_t>> by_job_;
};

/// Every per-layer metric, zero until a workload that reaches the
/// layer fills it in.
void declare_layers(Metrics& m) {
  const char* const rows[][2] = {
      {"fsgen.generate_s", "s"},
      {"fsgen.generate_mb_per_s", "MB/s"},
      {"fsgen.corpus_build_s", "s"},
      {"fsgen.corpus_open_s", "s"},
      {"fsgen.corpus_reconstruct_s", "s"},
      {"checksum.active_kernel.bytes_per_job", "count"},
      {"checksum.crc32_gbps_296", "GB/s"},
      {"checksum.crc32_gbps_64k", "GB/s"},
      {"checksum.internet_gbps_296", "GB/s"},
      {"core.packetize_s", "s"},
      {"core.packetize_pkts_per_s", "1/s"},
      {"core.evaluate_s", "s"},
      {"core.splices_per_s_1t", "1/s"},
      {"core.dfs_nodes_per_splice", "ratio"},
      {"core.fast_path_frac", "ratio"},
      {"core.sched_speedup", "ratio"},
      {"core.sched_efficiency", "ratio"},
      {"core.sched_idle_frac", "ratio"},
      {"core.sched_steal_frac", "ratio"},
      {"dist.connect_s", "s"},
      {"dist.shard_s_p50", "s"},
      {"dist.leases_per_job", "count"},
      {"dist.frames_per_job", "count"},
      {"dist.leases_reassigned", "count"},
      {"dist.results_stale", "count"},
      {"dist.frame_crc_rejects", "count"},
      {"trace.parse_s", "s"},
      {"trace.ingest_s", "s"},
      {"trace.profile_s", "s"},
      {"trace.records_per_s", "1/s"},
      {"trace.accept_frac", "ratio"},
      {"trace.rejected.truncated", "count"},
      {"trace.rejected.link_too_short", "count"},
      {"trace.rejected.non_ipv4", "count"},
      {"trace.rejected.header_fail", "count"},
      {"trace.rejected.checksum_fail", "count"},
      {"trace.rejected.orphan", "count"},
      {"trace_overhead_frac", "ratio"},
      {"trace_job_s_p50", "s"},
      {"trace_unaccounted_frac", "ratio"},
  };
  for (const auto& r : rows) m.set(r[0], 0.0, r[1]);
}

/// GB/s of the active kernel over `buf` cut into `piece`-byte calls.
double kernel_gbps(util::ByteView buf, std::size_t piece, bool crc) {
  const std::size_t calls = buf.size() / piece;
  if (calls == 0) return 0;
  std::uint64_t bytes = 0;
  std::uint32_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  double dt = 0;
  do {
    for (std::size_t i = 0; i < calls; ++i) {
      const util::ByteView v = buf.subspan(i * piece, piece);
      sink ^= crc ? alg::kern::crc32(v) : alg::kern::internet_sum(v);
    }
    bytes += calls * piece;
    dt = since(t0);
  } while (dt < 0.2);
  static volatile std::uint32_t sink_out;
  sink_out = sink + sink_out;
  return static_cast<double>(bytes) / dt / 1e9;
}

void kernel_rates(Metrics& m, util::ByteView buf) {
  buf = buf.subspan(0, std::min<std::size_t>(buf.size(), 4u << 20));
  m.set("checksum.crc32_gbps_296", kernel_gbps(buf, 296, true), "GB/s");
  m.set("checksum.crc32_gbps_64k", kernel_gbps(buf, 64 * 1024, true), "GB/s");
  m.set("checksum.internet_gbps_296", kernel_gbps(buf, 296, false), "GB/s");
}

/// Per-layer figures every traced run reports.
void common_layers(Bench& b, Metrics& m) {
  const double base = median(b.untraced);
  const double traced = median(b.traced);
  m.set("trace_overhead_frac", ratio(traced - base, base), "ratio");
  m.set("trace_job_s_p50", traced, "s");
  m.set("trace_unaccounted_frac", b.unaccounted_frac(), "ratio");
  const std::string kb = "kernel." + std::string(alg::kern::active_kernel().name) + ".bytes";
  m.set("checksum.active_kernel.bytes_per_job",
        ratio(delta(b.before, b.after, kb), static_cast<double>(b.traced_jobs())), "count");
}

void dfs_layers(Bench& b, Metrics& m) {
  const double total = delta(b.before, b.after, "splice.total");
  m.set("core.dfs_nodes_per_splice", ratio(delta(b.before, b.after, "splice.dfs_nodes"), total),
        "ratio");
  m.set("core.fast_path_frac", ratio(delta(b.before, b.after, "splice.fast_path"), total),
        "ratio");
}

std::string samples_json(const std::vector<double>& v) {
  std::string j = "[";
  for (std::size_t i = 0; i < v.size(); ++i) j += (i ? ", " : "") + json_num(v[i]);
  return j + "]";
}

/// End-to-end metrics from the untraced jobs, plus their info members.
void end_to_end(Bench& b, Outcome* out, double setup_s, double splices_per_job,
                double bytes_per_job) {
  const std::vector<double>& jobs = b.untraced;
  double total = 0;
  for (const double s : jobs) total += s;
  const double n = static_cast<double>(jobs.size());
  const Tail tail = tail_with_ten_beyond(jobs);
  Metrics& m = out->metrics;
  m.set("job_s_p50", median(jobs), "s");
  m.set("job_s_tail", tail.value, "s");
  m.set("splices_per_s", ratio(splices_per_job * n, total), "1/s");
  m.set("input_mb_per_s", ratio(bytes_per_job * n, total) / 1e6, "MB/s");
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", b.rss(), "MB");
  RunState& rs = run_state();
  double attempted = 0, failed = 0;
  {
    std::lock_guard<std::mutex> lock(rs.mu);
    attempted = static_cast<double>(rs.attempted);
    failed = static_cast<double>(rs.failed);
  }
  m.set("ok_frac", 1.0 - ratio(failed, attempted), "ratio");
  out->info += ", \"job_s_tail_percentile\": " + json_num(tail.percentile) +
               ", \"job_s_tail_samples\": " + std::to_string(tail.samples) +
               ", \"failed_frac\": " + json_num(ratio(failed, attempted)) +
               ", \"warmup_jobs\": " + std::to_string(b.warmup_count()) +
               ", \"splices_per_job\": " + json_num(splices_per_job) +
               ", \"input_bytes_per_job\": " + json_num(bytes_per_job) +
               ", \"job_samples_s\": " + samples_json(jobs);
}

void finish(Bench& b, Outcome* out, const std::vector<double>& setups, double splices_per_job,
            double bytes_per_job) {
  out->info += ", \"setup_samples_s\": " + samples_json(setups) +
               ", \"job_cpus\": " + std::to_string(b.rotation.used());
  if (b.tracer() == nullptr) {
    end_to_end(b, out, median(setups), splices_per_job, bytes_per_job);
    return;
  }
  common_layers(b, out->metrics);
  out->info += ", \"traced_jobs\": " + std::to_string(b.traced_jobs()) +
               ", \"untraced_jobs\": " + std::to_string(b.untraced.size()) +
               ", \"layer_self_s_p50\": " + b.layers_json();
}

const fsgen::FsProfile& display_profile() { return fsgen::profile("nsc05"); }

util::Bytes sample_bytes(const fsgen::Filesystem& fs, std::size_t cap) {
  util::Bytes out;
  for (std::size_t i = 0; i < fs.file_count() && out.size() < cap; ++i) {
    const util::Bytes f = fs.file(i);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

double source_bytes(const fsgen::Filesystem& fs) {
  double total = 0;
  for (std::size_t i = 0; i < fs.file_count(); ++i)
    total += static_cast<double>(fs.file(i).size());
  return total;
}

std::string timed_info(const char* key, double seconds) {
  return std::string(", \"") + key + "\": " + json_num(seconds);
}

// --- fs-inmem -------------------------------------------------------

bool fs_inmem(const Options& opt, Bench& b, Outcome* out, std::string*) {
  Clock::time_point t0 = Clock::now();
  const std::string manifest = make_manifest(kFsInmemBytes, opt.seed);
  out->info += timed_info("input_synthesis_s", since(t0));

  // Set-up: handing the file list to the program as a Filesystem. It
  // takes microseconds, so each sample is the mean of 20, and samples
  // are also taken between measured jobs so host noise at start-up
  // does not decide the median.
  std::vector<double> setups;
  std::optional<fsgen::Filesystem> fs;
  const auto sample_setup = [&] {
    constexpr int kReps = 20;
    const Clock::time_point s0 = Clock::now();
    for (int k = 0; k < kReps; ++k)
      fs.emplace(fsgen::Filesystem::from_manifest(display_profile(), manifest));
    setups.push_back(since(s0) / kReps);
  };
  for (int r = 0; r < 5; ++r) sample_setup();
  b.after_job = sample_setup;

  core::SpliceRunConfig run;
  run.flow = core::paper_flow_config();
  run.threads = 1;
  t0 = Clock::now();
  const core::SpliceStats oracle = core::run_filesystem(run, *fs);
  out->info += timed_info("oracle_s", since(t0));
  const double bytes = source_bytes(*fs);

  const JobFn fn = [&](Tracer* tr, std::uint64_t id) -> std::string {
    if (tr == nullptr) return check_splice(core::run_filesystem(run, *fs), oracle);
    // The sequential branch of run_filesystem, one public call at a time.
    core::SpliceStats st;
    for (std::size_t i = 0; i < fs->file_count(); ++i) {
      util::Bytes data;
      std::vector<core::SimPacket> pkts;
      {
        Scope s(tr, "fsgen.generate", id);
        data = fs->file(i);
      }
      {
        Scope s(tr, "core.packetize", id);
        pkts = core::packetize_file(run.flow, util::ByteView(data));
      }
      st.files += 1;
      st.packets += pkts.size();
      Scope s(tr, "core.evaluate", id);
      for (std::size_t j = 0; j + 1 < pkts.size(); ++j)
        core::evaluate_pair(run.flow.packet, pkts[j], pkts[j + 1], st);
    }
    return check_splice(st, oracle);
  };
  b.rotate_cpus = true;
  b.measure(fn, 2);
  b.finish_trace();

  Metrics& m = out->metrics;
  if (b.tracer() != nullptr) {
    const double gen = b.layer("fsgen.generate");
    const double pk = b.layer("core.packetize");
    const double ev = b.layer("core.evaluate");
    m.set("fsgen.generate_s", gen, "s");
    m.set("fsgen.generate_mb_per_s", ratio(bytes / 1e6, gen), "MB/s");
    m.set("core.packetize_s", pk, "s");
    m.set("core.packetize_pkts_per_s", ratio(static_cast<double>(oracle.packets), pk), "1/s");
    m.set("core.evaluate_s", ev, "s");
    m.set("core.splices_per_s_1t", ratio(static_cast<double>(oracle.total), ev), "1/s");
    dfs_layers(b, m);
    kernel_rates(m, util::ByteView(sample_bytes(*fs, 4u << 20)));
  }
  finish(b, out, setups, static_cast<double>(oracle.total), bytes);
  return true;
}

// --- corpus-stream --------------------------------------------------

bool corpus_stream(const Options& opt, Bench& b, Outcome* out, std::string* error) {
  Clock::time_point t0 = Clock::now();
  const std::string manifest = make_manifest(kCorpusStreamBytes, opt.seed);
  const fsgen::Filesystem fs = fsgen::Filesystem::from_manifest(display_profile(), manifest);
  out->info += timed_info("input_synthesis_s", since(t0));

  fsgen::CorpusBuildParams params;
  params.profile = "e2ebench-corpus-stream";
  params.flow = core::paper_flow_config();
  params.flow.segment_size = kCorpusSegment;
  const std::string store = opt.workdir + "/corpus-stream.ckc";

  // Set-up: sealing the store.
  std::vector<double> setups;
  for (int r = 0; r < 3; ++r) {
    std::remove(store.c_str());  // a new file: ext4 flushes a truncated-and-rewritten one
    t0 = Clock::now();
    if (!fsgen::build_corpus(params, fs, store, error)) return false;
    setups.push_back(since(t0));
  }

  core::SpliceRunConfig run;
  run.flow = params.flow;
  run.threads = 1;
  t0 = Clock::now();
  const core::SpliceStats oracle = core::run_filesystem(run, fs);
  out->info += timed_info("oracle_s", since(t0));
  const double bytes = source_bytes(fs);

  const unsigned threads = std::min(4u, std::max(1u, usable_cpus()));
  out->info += ", \"threads\": " + std::to_string(threads);

  const auto open_store = [&](std::string* why) {
    std::string e;
    auto rd = fsgen::CorpusReader::open(store, &e);
    if (!rd) *why = "corpus open: " + e;
    return rd;
  };
  const JobFn fn = [&](Tracer* tr, std::uint64_t id) -> std::string {
    std::string why;
    std::unique_ptr<fsgen::CorpusReader> rd;
    {
      Scope s(tr, "fsgen.corpus_open", id);
      rd = open_store(&why);
    }
    if (!rd) return why;
    core::SpliceRunConfig c;
    c.flow = rd->info().params.flow;
    c.threads = threads;
    Scope s(tr, "core.run_corpus", id);
    return check_splice(core::run_corpus(c, *rd), oracle);
  };
  b.measure(fn, 2);

  Metrics& m = out->metrics;
  if (Tracer* tr = b.tracer()) {
    // Two single-thread passes over the same store: run_corpus itself
    // (the speed-up baseline) and its sequential branch one public
    // call at a time (reconstruct vs evaluate).
    std::string why;
    auto rd = open_store(&why);
    if (!rd) {
      *error = why;
      return false;
    }
    core::SpliceRunConfig one;
    one.flow = rd->info().params.flow;
    one.threads = 1;
    b.job(
        [&](Tracer* t, std::uint64_t id) {
          Scope s(t, "core.run_corpus", id);
          return check_splice(core::run_corpus(one, *rd), oracle);
        },
        tr, "pass.run_corpus_1t");
    const std::uint64_t pass_1t = b.last_id();
    b.job(
        [&](Tracer* t, std::uint64_t id) {
          core::SpliceStats st;
          for (std::size_t i = 0; i < rd->file_count(); ++i) {
            std::vector<core::SimPacket> pkts;
            {
              Scope s(t, "fsgen.corpus_reconstruct", id);
              pkts = rd->file_packets(i);
            }
            st.files += 1;
            st.packets += pkts.size();
            Scope s(t, "core.evaluate", id);
            for (std::size_t j = 0; j + 1 < pkts.size(); ++j)
              core::evaluate_pair(one.flow.packet, pkts[j], pkts[j + 1], st);
          }
          return check_splice(st, oracle);
        },
        tr, "pass.decomposed_1t");
    const std::uint64_t pass_dec = b.last_id();
    b.finish_trace();

    const double run_n = b.layer("core.run_corpus");
    const double run_1 = b.in_job(pass_1t, "core.run_corpus");
    const double ev = b.in_job(pass_dec, "core.evaluate");
    m.set("fsgen.corpus_build_s", median(setups), "s");
    m.set("fsgen.corpus_open_s", b.layer("fsgen.corpus_open"), "s");
    m.set("fsgen.corpus_reconstruct_s", b.in_job(pass_dec, "fsgen.corpus_reconstruct"), "s");
    m.set("core.evaluate_s", ev, "s");
    m.set("core.splices_per_s_1t", ratio(static_cast<double>(oracle.total), ev), "1/s");
    dfs_layers(b, m);
    const double speedup = ratio(run_1, run_n);
    m.set("core.sched_speedup", speedup, "ratio");
    m.set("core.sched_efficiency", speedup / threads, "ratio");
    const double busy_ns = static_cast<double>(b.after.sum("sched.chunk_ns") -
                                               b.before.sum("sched.chunk_ns") +
                                               b.after.sum("sched.packetize_ns") -
                                               b.before.sum("sched.packetize_ns"));
    m.set("core.sched_idle_frac",
          1.0 - ratio(busy_ns, threads * b.layer_total("core.run_corpus") * 1e9), "ratio");
    m.set("core.sched_steal_frac",
          ratio(delta(b.before, b.after, "sched.chunks_stolen"),
                delta(b.before, b.after, "sched.chunks_claimed")),
          "ratio");
    kernel_rates(m, util::ByteView(sample_bytes(fs, 4u << 20)));
  }
  finish(b, out, setups, static_cast<double>(oracle.total), bytes);
  std::remove(store.c_str());
  return true;
}

// --- dist-loopback --------------------------------------------------

/// A JobService on an ephemeral loopback port with `n` spawned
/// `cksumlab splice --connect` workers. stop() drains the service and
/// reaps the workers; on any other exit path the destructor kills and
/// reaps them without waiting for jobs.
class WorkerPool {
 public:
  WorkerPool(std::string cksumlab, unsigned n) : exe_(std::move(cksumlab)), n_(n) {}
  ~WorkerPool() {
    for (const pid_t pid : pids_) dist::kill_process(pid);
    reap(0.0);
    svc_.reset();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  struct Result {
    std::uint64_t worker = 0;
    std::uint64_t job = 0;
    Clock::time_point at;
  };

  /// Service start, worker spawn, and every worker connected. Returns
  /// false with *error on failure; *setup_s and *connect_s time from
  /// service start and from the first spawn.
  bool start(double* setup_s, double* connect_s, std::string* error) {
    const Clock::time_point t0 = Clock::now();
    dist::ServiceConfig sc;
    sc.expected_workers = n_;
    svc_ = std::make_unique<dist::JobService>(sc);
    svc_->set_event_hook([this](const dist::ServiceEvent& ev) {
      std::lock_guard<std::mutex> lock(mu_);
      if (ev.kind == dist::ServiceEvent::Kind::kWorkerConnected) {
        ++connected_;
        cv_.notify_all();
      } else if (ev.kind == dist::ServiceEvent::Kind::kResultAccepted) {
        results_.push_back({ev.worker_id, ev.job, Clock::now()});
      }
    });
    const Clock::time_point t_spawn = Clock::now();
    for (unsigned i = 0; i < n_; ++i) {
      const pid_t pid = dist::spawn_process(
          {exe_, "splice", "--connect", "127.0.0.1:" + std::to_string(svc_->port()),
           "--worker-id", std::to_string(i + 1), "--kernel",
           std::string(alg::kern::active_kernel().name)});
      if (pid < 0) {
        *error = "cannot spawn " + exe_;
        return false;
      }
      pids_.push_back(pid);
      run_state().add_child(pid);
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30), [&] { return connected_ >= n_; })) {
      *error = "workers did not connect within 30 s";
      return false;
    }
    *connect_s = since(t_spawn);
    *setup_s = since(t0);
    return true;
  }

  dist::JobService& svc() { return *svc_; }

  /// Hook-observed accepted results, oldest first, cleared on read.
  std::vector<Result> take_results() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(results_, {});
  }

  /// This process plus every worker, in MB.
  double rss_mb() const {
    double mb = peak_rss_mb(0);
    for (const pid_t pid : pids_) mb += peak_rss_mb(pid);
    return mb;
  }

  /// Pins worker i's main thread, where it evaluates shards, to allowed
  /// CPU `turn + i`.
  void pin_workers(CpuRotation& rot, std::size_t turn) {
    for (std::size_t i = 0; i < pids_.size(); ++i) rot.pin(pids_[i], turn + i);
  }

  /// Graceful shutdown: every job done, workers sent Shutdown.
  void stop() {
    if (svc_) svc_->drain();
    reap(5.0);
    svc_.reset();
    connected_ = 0;
  }

 private:
  /// Waits up to `grace_s` for each worker to exit, then kills it.
  void reap(double grace_s) {
    const Clock::time_point t0 = Clock::now();
    for (const pid_t pid : pids_) {
      int code = 0;
      while (!dist::try_wait_process(pid, &code)) {
        if (since(t0) > grace_s) {
          dist::kill_process(pid);
          dist::wait_process(pid);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      run_state().remove_child(pid);
    }
    pids_.clear();
  }

  std::string exe_;
  unsigned n_;
  std::unique_ptr<dist::JobService> svc_;
  std::vector<pid_t> pids_;
  std::mutex mu_;
  std::condition_variable cv_;
  unsigned connected_ = 0;
  std::vector<Result> results_;
};

bool dist_loopback(const Options& opt, Bench& b, Outcome* out, std::string* error) {
  Clock::time_point t0 = Clock::now();
  const std::string manifest = make_manifest(kDistBytes, opt.seed);
  const fsgen::Filesystem fs = fsgen::Filesystem::from_manifest(display_profile(), manifest);
  fsgen::CorpusBuildParams params;
  params.profile = "e2ebench-dist-loopback";
  params.flow = core::paper_flow_config();
  const std::string store = opt.workdir + "/dist-loopback.ckc";
  if (!fsgen::build_corpus(params, fs, store, error)) return false;
  out->info += timed_info("input_synthesis_s", since(t0));

  core::SpliceRunConfig run;
  run.flow = params.flow;
  run.threads = 1;
  t0 = Clock::now();
  const core::SpliceStats oracle = core::run_filesystem(run, fs);
  out->info += timed_info("oracle_s", since(t0));
  const double bytes = source_bytes(fs);

  dist::register_dist_metrics();
  WorkerPool pool(opt.cksumlab, kDistWorkers);
  std::vector<double> setups, connects;
  for (int r = 0; r < kDistSetups; ++r) {
    if (r > 0) pool.stop();
    double setup = 0, connect = 0;
    if (!pool.start(&setup, &connect, error)) return false;
    setups.push_back(setup);
    connects.push_back(connect);
  }
  b.rss_probe = [&pool] { return pool.rss_mb(); };

  const JobFn fn = [&](Tracer* tr, std::uint64_t id) -> std::string {
    dist::JobSpec spec;
    spec.name = "e2ebench-" + std::to_string(id);
    spec.run.corpus_kind = dist::CorpusKind::kCorpusFile;
    spec.run.corpus = store;
    spec.run.threads = 1;
    spec.nfiles = fs.file_count();
    spec.shard_files = std::max<std::size_t>(1, fs.file_count() / kDistShards);
    std::optional<std::uint64_t> job;
    {
      Scope s(tr, "dist.submit", id);
      job = pool.svc().submit(spec);
    }
    if (!job) return "submit rejected";
    dist::JobReport rep;
    {
      Scope s(tr, "dist.wait", id);
      rep = pool.svc().wait(*job);
    }
    return check_dist(rep, oracle);
  };
  // The workers are single-threaded processes that would otherwise stay
  // on their vCPUs for the whole run: move the pair one CPU on per job.
  std::size_t turn = 0;
  pool.pin_workers(b.rotation, turn);
  b.after_job = [&] { pool.pin_workers(b.rotation, ++turn); };
  b.measure(fn, 3);
  b.after_job = [] {};
  std::vector<WorkerPool::Result> results = pool.take_results();
  b.rss();  // read while the workers are still alive
  pool.stop();

  Metrics& m = out->metrics;
  if (b.tracer() != nullptr) {
    b.finish_trace();
    // Interval between a worker's consecutive accepted results within
    // one job, over the traced jobs' shards.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Clock::time_point>> by;
    for (const auto& r : results) by[{r.job, r.worker}].push_back(r.at);
    std::vector<double> gaps;
    for (const auto& [key, times] : by)
      for (std::size_t i = 1; i < times.size(); ++i)
        gaps.push_back(std::chrono::duration<double>(times[i] - times[i - 1]).count());
    const double jobs = static_cast<double>(b.traced_jobs());
    m.set("dist.connect_s", median(connects), "s");
    m.set("dist.shard_s_p50", median(gaps), "s");
    m.set("dist.leases_per_job", ratio(delta(b.before, b.after, "dist.leases_granted"), jobs),
          "count");
    m.set("dist.frames_per_job",
          ratio(delta(b.before, b.after, "dist.frames_sent") +
                    delta(b.before, b.after, "dist.frames_received"),
                jobs),
          "count");
    m.set("dist.leases_reassigned", delta(b.before, b.after, "dist.leases_reassigned"), "count");
    m.set("dist.results_stale", delta(b.before, b.after, "dist.results_stale"), "count");
    m.set("dist.frame_crc_rejects", delta(b.before, b.after, "dist.frame_crc_rejects"), "count");
    kernel_rates(m, util::ByteView(sample_bytes(fs, 4u << 20)));
  }
  out->info += ", \"connect_samples_s\": " + samples_json(connects) +
               ", \"workers\": " + std::to_string(kDistWorkers);
  finish(b, out, setups, static_cast<double>(oracle.total), bytes);
  std::remove(store.c_str());
  return true;
}

// --- capture-to-corpus ----------------------------------------------

bool capture_to_corpus(const Options& opt, Bench& b, Outcome* out, std::string* error) {
  Clock::time_point t0 = Clock::now();
  const std::string manifest = make_manifest(kCaptureBytes, opt.seed);
  const net::FlowConfig flow = core::paper_flow_config();
  const Capture cap = make_capture(manifest, flow, opt.seed, kDamagePerMille);
  const std::string capture_path = opt.workdir + "/capture.pcap";
  {
    std::ofstream f(capture_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(cap.bytes.data()),
            static_cast<std::streamsize>(cap.bytes.size()));
    if (!f) {
      *error = "cannot write " + capture_path;
      return false;
    }
  }
  out->info += timed_info("input_synthesis_s", since(t0));

  // Set-up: loading the capture into memory. As for fs-inmem, samples
  // are also taken between measured jobs (into a second buffer), so
  // host noise at start-up does not decide the median.
  std::vector<double> setups;
  util::Bytes loaded, reloaded;
  bool reads_match = true;
  const auto sample_setup = [&](util::Bytes& into) {
    const Clock::time_point s0 = Clock::now();
    std::ifstream f(capture_path, std::ios::binary);
    into.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    setups.push_back(since(s0));
    reads_match = reads_match && into == cap.bytes;
  };
  for (int r = 0; r < 5; ++r) sample_setup(loaded);
  if (!reads_match) {
    *error = "capture read back differs from what was written";
    return false;
  }

  trace::register_trace_metrics();
  trace::IngestConfig icfg;
  icfg.flow = flow;
  fsgen::CorpusBuildParams params;
  params.profile = "e2ebench-capture";
  params.flow = flow;
  const std::string store = opt.workdir + "/capture.ckc";

  // Splices the sealed store holds, counted combinatorially (no DFS),
  // and for the traced run's packetise pass the accepted datagrams.
  std::vector<net::Packet> accepted;
  std::vector<std::uint32_t> accepted_crc44;  ///< SimPacket::crc_head44 from ingest
  double splices = 0;
  {
    std::string e;
    const auto rd = trace::PcapReader::parse(util::Bytes(loaded), &e);
    if (!rd) {
      *error = "capture parse: " + e;
      return false;
    }
    const trace::IngestResult res = trace::ingest_capture(*rd, icfg);
    for (const auto& file : res.files) {
      for (std::size_t j = 0; j + 1 < file.size(); ++j)
        splices += static_cast<double>(
            atm::splice_count(file[j].pdu.num_cells(), file[j + 1].pdu.num_cells()));
      if (b.tracer() == nullptr) continue;
      for (const auto& sp : file) {
        accepted.push_back(sp.pkt);
        accepted_crc44.push_back(sp.crc_head44);
      }
    }
  }

  const JobFn fn = [&](Tracer* tr, std::uint64_t id) -> std::string {
    std::string e;
    std::unique_ptr<trace::PcapReader> rd;
    {
      Scope s(tr, "trace.parse", id);
      rd = trace::PcapReader::parse(util::Bytes(loaded), &e);
    }
    if (!rd) return "capture parse: " + e;
    trace::IngestResult res;
    {
      Scope s(tr, "trace.ingest", id);
      res = trace::ingest_capture(*rd, icfg);
    }
    CaptureSeen seen;
    {
      Scope s(tr, "trace.profile", id);
      trace::DataProfile prof;
      for (const auto& file : res.files)
        for (const core::SimPacket& sp : file) prof.add_payload(sp.pkt.payload());
      seen.profile_bytes = prof.bytes();
    }
    {
      Scope s(tr, "fsgen.corpus_build", id);
      if (!fsgen::build_corpus(params, res.files, store, &e)) return "corpus build: " + e;
    }
    std::unique_ptr<fsgen::CorpusReader> cr;
    {
      Scope s(tr, "fsgen.corpus_open", id);
      cr = fsgen::CorpusReader::open(store, &e);
    }
    if (!cr) return "corpus open: " + e;
    seen.counts = res.counts;
    seen.files = res.files.size();
    seen.store_files = cr->info().files;
    seen.store_packets = cr->info().packets;
    return check_capture(seen, cap.truth);
  };
  // Each job seals a new store rather than truncating the last one:
  // ext4 flushes a file that is truncated and rewritten on close, which
  // would add disk writeback to every job.
  b.after_job = [&] {
    std::remove(store.c_str());
    sample_setup(reloaded);
  };
  b.rotate_cpus = true;
  b.measure(fn, 2);
  b.after_job = [] {};
  if (!reads_match) {
    *error = "capture read back differs from what was written";
    return false;
  }

  Metrics& m = out->metrics;
  if (Tracer* tr = b.tracer()) {
    // Packetising happens inside ingest_capture; this pass times
    // make_sim_packet alone over the same accepted datagrams.
    b.job(
        [&](Tracer* t, std::uint64_t id) -> std::string {
          std::vector<net::Packet> pkts = accepted;
          std::size_t same = 0;
          Scope s(t, "core.packetize", id);
          for (std::size_t i = 0; i < pkts.size(); ++i)
            same += core::make_sim_packet(flow.packet, std::move(pkts[i])).crc_head44 ==
                    accepted_crc44[i];
          return same == cap.truth.accepted ? "" : "make_sim_packet differs from ingest";
        },
        tr, "pass.packetize");
    const std::uint64_t pass_pk = b.last_id();
    b.finish_trace();
    const double parse = b.layer("trace.parse");
    const double ingest = b.layer("trace.ingest");
    const double pk = b.in_job(pass_pk, "core.packetize");
    const double records = static_cast<double>(cap.truth.records);
    m.set("trace.parse_s", parse, "s");
    m.set("trace.ingest_s", ingest, "s");
    m.set("trace.profile_s", b.layer("trace.profile"), "s");
    m.set("trace.records_per_s", ratio(records, parse + ingest), "1/s");
    const double accepted_n = delta(b.before, b.after, "trace.accepted");
    m.set("trace.accept_frac",
          ratio(accepted_n, accepted_n + delta(b.before, b.after, "trace.rejected")), "ratio");
    m.set("trace.rejected.truncated", static_cast<double>(cap.truth.truncated), "count");
    m.set("trace.rejected.non_ipv4", static_cast<double>(cap.truth.non_ipv4), "count");
    m.set("trace.rejected.checksum_fail", static_cast<double>(cap.truth.checksum_fail), "count");
    m.set("fsgen.corpus_build_s", b.layer("fsgen.corpus_build"), "s");
    m.set("fsgen.corpus_open_s", b.layer("fsgen.corpus_open"), "s");
    m.set("core.packetize_s", pk, "s");
    m.set("core.packetize_pkts_per_s", ratio(static_cast<double>(accepted.size()), pk), "1/s");
    kernel_rates(m, util::ByteView(cap.bytes));
  }
  out->info += ", \"records\": " + std::to_string(cap.truth.records) +
               ", \"damaged\": " +
               std::to_string(cap.truth.truncated + cap.truth.non_ipv4 + cap.truth.checksum_fail);
  finish(b, out, setups, splices, static_cast<double>(cap.bytes.size()));
  std::remove(store.c_str());
  std::remove(capture_path.c_str());
  return true;
}

}  // namespace

bool run_workload(const Options& opt, Watchdog& wd, Outcome* out, std::string* error) {
  using Fn = bool (*)(const Options&, Bench&, Outcome*, std::string*);
  const std::map<std::string, Fn> table = {
      {"fs-inmem", fs_inmem},
      {"corpus-stream", corpus_stream},
      {"dist-loopback", dist_loopback},
      {"capture-to-corpus", capture_to_corpus},
  };
  const auto it = table.find(opt.workload);
  if (it == table.end()) {
    *error = "unknown workload '" + opt.workload + "'";
    return false;
  }
  core::register_splice_metrics();
  alg::kern::register_kernel_metrics();
  if (opt.trace) declare_layers(out->metrics);
  Bench b(opt, wd);
  return it->second(opt, b, out, error);
}

}  // namespace e2e
