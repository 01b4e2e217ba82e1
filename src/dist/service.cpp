#include "dist/service.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>

#include "dist/lease.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"

namespace cksum::dist {
namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ServiceMetrics {
  obs::Counter connected, lost, granted, reassigned, accepted, stale,
      heartbeats, jobs_submitted, jobs_rejected, jobs_cancelled,
      jobs_completed, write_queue_hwm, grants_deferred;
};

ServiceMetrics service_metrics() {
  obs::Registry& reg = obs::Registry::global();
  ServiceMetrics m;
  m.connected = reg.counter("dist.workers_connected", obs::Tag::kScheduling);
  m.lost = reg.counter("dist.workers_lost", obs::Tag::kScheduling);
  m.granted = reg.counter("dist.leases_granted", obs::Tag::kScheduling);
  m.reassigned = reg.counter("dist.leases_reassigned", obs::Tag::kScheduling);
  m.accepted = reg.counter("dist.results_accepted", obs::Tag::kScheduling);
  m.stale = reg.counter("dist.results_stale", obs::Tag::kScheduling);
  m.heartbeats = reg.counter("dist.heartbeats", obs::Tag::kScheduling);
  m.jobs_submitted = reg.counter("dist.jobs_submitted", obs::Tag::kScheduling);
  m.jobs_rejected = reg.counter("dist.jobs_rejected", obs::Tag::kScheduling);
  m.jobs_cancelled = reg.counter("dist.jobs_cancelled", obs::Tag::kScheduling);
  m.jobs_completed = reg.counter("dist.jobs_completed", obs::Tag::kScheduling);
  m.write_queue_hwm =
      reg.counter("dist.write_queue_hwm", obs::Tag::kScheduling);
  m.grants_deferred =
      reg.counter("dist.grants_deferred", obs::Tag::kScheduling);
  return m;
}

/// Files per lease: as given, or a few shards per worker so a loss has
/// somewhere to go, without shattering small corpora.
std::size_t shard_files_for(const JobSpec& spec, unsigned expected_workers) {
  if (spec.shard_files != 0) return spec.shard_files;
  const std::size_t target_shards =
      std::max<std::size_t>(8, 4 * std::max(1u, expected_workers));
  return std::max<std::size_t>(1, spec.nfiles / target_shards);
}

std::string json_u64_map(const std::map<std::string, std::uint64_t>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + obs::json_escape(k) + "\": " + std::to_string(v);
  }
  out += "}";
  return out;
}

}  // namespace

std::size_t shard_count(const JobSpec& spec, unsigned expected_workers) {
  const std::size_t sf = shard_files_for(spec, expected_workers);
  return (spec.nfiles + sf - 1) / sf;
}

std::string DistReport::dist_json() const {
  std::string out = "{";
  out += "\"workers\": " + std::to_string(workers.size());
  out += ", \"shards\": " + std::to_string(shards);
  out += ", \"reassigned\": " + std::to_string(reassigned);
  out += ", \"stale_results\": " + std::to_string(stale_results);
  out += ", \"complete\": " + std::string(complete ? "true" : "false");
  // The run's own deterministic totals: the sum of the accepted
  // per-worker contributions. check_manifest.py asserts both this
  // per-run identity and that the jobs sum to the aggregate metrics.
  std::map<std::string, std::uint64_t> totals;
  for (const WorkerInfo& w : workers)
    for (const auto& [name, v] : w.metrics) totals[name] += v;
  out += ", \"metrics\": " + json_u64_map(totals);
  out += ", \"per_worker\": [";
  bool first = true;
  for (const WorkerInfo& w : workers) {
    if (!first) out += ", ";
    first = false;
    out += "{\"worker\": " + std::to_string(w.worker_id);
    out += ", \"pid\": " + std::to_string(w.pid);
    out += ", \"shards\": " + std::to_string(w.shards_accepted);
    out += ", \"clean_exit\": " + std::string(w.clean_exit ? "true" : "false");
    if (!w.manifest.empty())
      out += ", \"manifest\": \"" + obs::json_escape(w.manifest) + "\"";
    out += ", \"metrics\": " + json_u64_map(w.metrics);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string_view name(JobState s) noexcept {
  switch (s) {
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kAborted: return "aborted";
  }
  return "unknown";
}

std::string JobReport::json() const {
  // Splice the job identity into the DistReport object: dist_json()
  // always renders "{...}", so insert after the opening brace.
  std::string inner = report.dist_json();
  std::string head = "{\"job\": " + std::to_string(job) + ", \"name\": \"" +
                     obs::json_escape(name) + "\", \"state\": \"" +
                     std::string(dist::name(state)) + "\", ";
  return head + inner.substr(1);
}

/// One worker connection and its service-side state.
struct SConn {
  std::unique_ptr<FrameChannel> ch;
  BoundedWriteQueue out;
  bool configured = false;
  bool shutting_down = false;
  std::uint64_t worker_id = 0;
  std::uint64_t pid = 0;
  bool has_shard = false;
  std::size_t shard = 0;
  std::uint64_t shard_job = 0;
  std::set<std::uint64_t> jobs_sent;  ///< JobConfig already queued

  explicit SConn(std::size_t qcap) : out(qcap) {}
};

/// One admitted job.
struct SJob {
  JobSpec spec;
  LeaseTable table;
  JobReport rep;

  SJob(std::uint64_t id, JobSpec s, std::size_t shard_files)
      : spec(std::move(s)), table(spec.nfiles, shard_files) {
    rep.job = id;
    rep.name = spec.name;
    rep.report.shards = table.shard_count();
  }
};

namespace {

/// The job's roster entry for a worker, added with no shards and no
/// metrics on first sight.
DistReport::WorkerInfo& roster_entry(SJob& j, const SConn& c) {
  for (auto& w : j.rep.report.workers)
    if (w.worker_id == c.worker_id) return w;
  j.rep.report.workers.push_back({c.worker_id, c.pid, 0, false, "", {}});
  return j.rep.report.workers.back();
}

}  // namespace

struct JobService::Impl {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::function<void(const ServiceEvent&)> hook;
  std::map<std::uint64_t, SJob> jobs;  ///< ordered = submission order
  std::vector<std::unique_ptr<SConn>> conns;
  std::uint64_t next_job = 1;
  std::uint64_t rr_cursor = 1;  ///< round-robin fairness over jobs
  std::size_t configured = 0;
  bool started = false;  ///< start barrier latched open (one-shot)
  std::size_t queued_shards = 0;  ///< not-yet-done shards, all jobs
  std::size_t write_hwm = 0;
  std::uint64_t last_activity = 0;
  bool draining = false;
  bool shutdown_sent = false;
  std::uint64_t shutdown_deadline = 0;
  bool stop = false;
  ServiceMetrics met;

  /// Put every configured worker on every running job's roster: a job
  /// lists every worker configured while it ran. Called after each
  /// admission and each worker handshake.
  void enroll_configured() {
    for (auto& [id, j] : jobs)
      if (j.rep.state == JobState::kRunning)
        for (const auto& c : conns)
          if (c->configured) roster_entry(j, *c);
  }
};

JobService::JobService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  register_dist_metrics();
  impl_ = std::make_unique<Impl>();
  impl_->met = service_metrics();
  impl_->last_activity = now_ms();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("dist: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("dist: cannot bind/listen on service port");
  }
  socklen_t alen = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) ==
      0)
    port_ = ntohs(addr.sin_port);

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("dist: pipe2() failed");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  thread_ = std::thread([this] { loop(); });
}

JobService::~JobService() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  const char b = 1;
  (void)!::write(wake_wr_, &b, 1);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_rd_);
  ::close(wake_wr_);
}

void JobService::set_event_hook(std::function<void(const ServiceEvent&)> hook) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->hook = std::move(hook);
}

std::optional<std::uint64_t> JobService::submit(const JobSpec& spec) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  std::size_t running = 0;
  for (const auto& [id, j] : impl_->jobs)
    if (j.rep.state == JobState::kRunning) ++running;
  const std::size_t shard_files = shard_files_for(spec, cfg_.expected_workers);
  const std::size_t new_shards = shard_count(spec, cfg_.expected_workers);
  if (impl_->draining || running >= cfg_.limits.max_jobs ||
      impl_->queued_shards + new_shards > cfg_.limits.max_queued_shards) {
    impl_->met.jobs_rejected.add(1);
    return std::nullopt;
  }
  const std::uint64_t id = impl_->next_job++;
  impl_->jobs.emplace(std::piecewise_construct, std::forward_as_tuple(id),
                      std::forward_as_tuple(id, spec, shard_files));
  SJob& j = impl_->jobs.at(id);
  impl_->queued_shards += j.table.shard_count();
  impl_->met.jobs_submitted.add(1);
  if (j.table.complete()) {  // an empty corpus has nothing to lease
    j.rep.state = JobState::kDone;
    j.rep.report.complete = true;
    impl_->met.jobs_completed.add(1);
  } else {
    impl_->enroll_configured();
  }
  lk.unlock();
  const char b = 1;
  (void)!::write(wake_wr_, &b, 1);
  return id;
}

bool JobService::cancel(std::uint64_t job) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  auto it = impl_->jobs.find(job);
  if (it == impl_->jobs.end() || it->second.rep.state != JobState::kRunning)
    return false;
  SJob& j = it->second;
  j.rep.state = JobState::kCancelled;
  j.rep.report.complete = false;
  j.rep.report.reassigned = j.table.reassigned_count();
  impl_->queued_shards -= j.table.shard_count() - j.table.done_count();
  impl_->met.jobs_cancelled.add(1);
  if (impl_->hook)
    impl_->hook(ServiceEvent{ServiceEvent::Kind::kJobCancelled, 0, 0, 0, job});
  impl_->cv.notify_all();
  lk.unlock();
  const char b = 1;
  (void)!::write(wake_wr_, &b, 1);
  return true;
}

JobReport JobService::wait(std::uint64_t job) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->cv.wait(lk, [&] {
    auto it = impl_->jobs.find(job);
    return it == impl_->jobs.end() ||
           it->second.rep.state != JobState::kRunning;
  });
  auto it = impl_->jobs.find(job);
  if (it == impl_->jobs.end()) return JobReport{};
  return it->second.rep;
}

std::optional<JobReport> JobService::status(std::uint64_t job) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->jobs.find(job);
  if (it == impl_->jobs.end()) return std::nullopt;
  return it->second.rep;
}

std::vector<JobReport> JobService::drain() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->draining = true;
  impl_->cv.wait(lk, [&] {
    for (const auto& [id, j] : impl_->jobs)
      if (j.rep.state == JobState::kRunning) return false;
    return true;
  });
  lk.unlock();
  {
    const char b = 1;
    (void)!::write(wake_wr_, &b, 1);
  }
  // The loop notices draining + no running jobs, sends Shutdown to the
  // pool, collects Goodbyes, then parks. Wait for the pool to empty.
  lk.lock();
  impl_->cv.wait_for(lk, std::chrono::milliseconds(7000),
                     [&] { return impl_->conns.empty(); });
  std::vector<JobReport> out;
  out.reserve(impl_->jobs.size());
  for (const auto& [id, j] : impl_->jobs) out.push_back(j.rep);
  return out;
}

std::string JobService::jobs_json() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::string out = "[";
  bool first = true;
  for (const auto& [id, j] : impl_->jobs) {
    if (!first) out += ", ";
    first = false;
    out += j.rep.json();
  }
  out += "]";
  return out;
}

void JobService::loop() {
  Impl& im = *impl_;
  const int ep = ::epoll_create1(0);
  if (ep < 0) return;
  auto add_fd = [&](int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  };
  // Tags: 0 = listen, 1 = wake pipe, otherwise fd + 2 of a connection
  // (fds are looked up by value; connections are few).
  add_fd(listen_fd_, 0);
  add_fd(wake_rd_, 1);

  std::unique_lock<std::mutex> lk(im.mu);

  auto emit = [&](ServiceEvent::Kind kind, const SConn& c, std::size_t shard,
                  std::uint64_t job) {
    if (im.hook)
      im.hook(ServiceEvent{kind, c.worker_id, c.pid, shard, job});
  };

  auto note_hwm = [&](const SConn& c) {
    if (c.out.hwm() > im.write_hwm) {
      im.met.write_queue_hwm.add(c.out.hwm() - im.write_hwm);
      im.write_hwm = c.out.hwm();
    }
  };

  // Queue one frame on a connection (true on success). The queue is
  // drained after every scheduling pass; frames that do not fit leave
  // the connection alone until it drains.
  auto enqueue = [&](SConn& c, MsgType t, util::Bytes payload) {
    const bool ok = c.out.push(t, std::move(payload));
    if (ok) note_hwm(c);
    return ok;
  };

  auto flush_conn = [&](SConn& c) {
    MsgType t;
    util::Bytes payload;
    while (c.out.pop(&t, &payload)) {
      if (!c.ch->send(t, util::ByteView(payload))) break;
    }
  };

  auto drop_conn = [&](std::size_t i, bool lost) {
    SConn& c = *im.conns[i];
    if (lost && c.configured && !c.shutting_down) {
      for (auto& [id, j] : im.jobs)
        if (j.rep.state == JobState::kRunning)
          j.table.revoke_worker(c.worker_id);
      im.met.lost.add(1);
      emit(ServiceEvent::Kind::kWorkerLost, c,
           c.has_shard ? c.shard : 0, c.has_shard ? c.shard_job : 0);
    }
    if (c.configured) im.configured--;
    im.conns.erase(im.conns.begin() + static_cast<std::ptrdiff_t>(i));
  };

  auto finish_job = [&](SJob& j) {
    j.rep.state = JobState::kDone;
    j.rep.report.complete = true;
    j.rep.report.reassigned = j.table.reassigned_count();
    im.met.jobs_completed.add(1);
    im.cv.notify_all();
  };

  // Grant the next pending shard to an idle configured connection,
  // round-robin over running jobs for cross-job fairness.  The start
  // barrier is a one-shot latch: once the expected pool has checked in
  // it stays open, so a worker death mid-run never re-arms it (which
  // would starve the survivors until their recv timeout).
  const bool barrier = cfg_.expected_workers > 0;
  auto try_grant = [&](SConn& c) {
    if (!c.configured || c.has_shard || c.shutting_down) return;
    if (im.configured >= cfg_.expected_workers) im.started = true;
    if (barrier && !im.started) return;
    if (im.jobs.empty()) return;
    // A grant may need two frames (JobConfig + LeaseGrant); defer the
    // whole grant when the queue cannot take both.
    if (c.out.capacity() - c.out.size() < 2) {
      im.met.grants_deferred.add(1);
      return;
    }
    auto it = im.jobs.lower_bound(im.rr_cursor);
    for (std::size_t n = im.jobs.size() + 1; n-- > 0;) {
      if (it == im.jobs.end()) it = im.jobs.begin();
      SJob& j = it->second;
      const std::uint64_t jid = it->first;
      ++it;
      if (j.rep.state != JobState::kRunning) continue;
      const std::uint64_t deadline = now_ms() + cfg_.lease_timeout_ms;
      const auto idx = j.table.acquire(c.worker_id, deadline);
      if (!idx) continue;
      const Shard& s = j.table.shard(*idx);
      if (s.grants > 1) {
        im.met.reassigned.add(1);
        emit(ServiceEvent::Kind::kLeaseReassigned, c, *idx, jid);
      }
      im.met.granted.add(1);
      if (!c.jobs_sent.count(jid)) {
        JobConfigMsg jc{jid, j.spec.name, j.spec.run};
        enqueue(c, MsgType::kJobConfig, encode(jc));
        c.jobs_sent.insert(jid);
      }
      LeaseGrantMsg g{*idx, s.epoch, s.begin, s.end, jid};
      enqueue(c, MsgType::kLeaseGrant, encode(g));
      c.has_shard = true;
      c.shard = *idx;
      c.shard_job = jid;
      im.rr_cursor = jid + 1;  // next idle conn starts at the next job
      return;
    }
  };

  std::vector<epoll_event> events(32);
  while (true) {
    if (im.stop) break;

    const bool any_running = [&] {
      for (const auto& [id, j] : im.jobs)
        if (j.rep.state == JobState::kRunning) return true;
      return false;
    }();

    // Graceful drain: once drain() was called and every job is
    // terminal, shut the pool down and wait (bounded) for Goodbyes.
    if (im.draining && !any_running) {
      if (!im.shutdown_sent) {
        im.shutdown_sent = true;
        im.shutdown_deadline = now_ms() + 5000;
        for (auto& c : im.conns) {
          if (c->configured && !c->shutting_down) {
            enqueue(*c, MsgType::kShutdown, {});
            c->shutting_down = true;
          }
        }
      }
      if (im.conns.empty() || now_ms() > im.shutdown_deadline) {
        for (std::size_t i = im.conns.size(); i-- > 0;) drop_conn(i, false);
        im.cv.notify_all();
        // Stay alive for post-drain queries until the destructor.
      }
    }

    // A dead fleet must not hang wait(): abort running jobs when no
    // worker has been around for idle_abort_ms.
    if (any_running && im.conns.empty() &&
        now_ms() - im.last_activity > cfg_.idle_abort_ms) {
      for (auto& [id, j] : im.jobs) {
        if (j.rep.state != JobState::kRunning) continue;
        j.rep.state = JobState::kAborted;
        j.rep.report.complete = false;
        j.rep.report.reassigned = j.table.reassigned_count();
        im.queued_shards -= j.table.shard_count() - j.table.done_count();
      }
      im.cv.notify_all();
    }

    for (auto& c : im.conns) {
      try_grant(*c);
      flush_conn(*c);
    }

    lk.unlock();
    const int nev =
        ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 200);
    lk.lock();
    if (nev < 0 && errno != EINTR) break;

    for (int e = 0; e < std::max(nev, 0); ++e) {
      const std::uint64_t tag = events[static_cast<std::size_t>(e)].data.u64;
      if (tag == 1) {
        char buf[64];
        while (::read(wake_rd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (tag == 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          auto c = std::make_unique<SConn>(cfg_.limits.max_write_queue);
          c->ch = std::make_unique<FrameChannel>(fd);
          add_fd(fd, static_cast<std::uint64_t>(fd) + 2);
          im.conns.push_back(std::move(c));
          im.last_activity = now_ms();
        }
        continue;
      }
      const int fd = static_cast<int>(tag - 2);
      std::size_t ci = im.conns.size();
      for (std::size_t i = 0; i < im.conns.size(); ++i)
        if (im.conns[i]->ch->fd() == fd) {
          ci = i;
          break;
        }
      if (ci == im.conns.size()) continue;  // already dropped
      SConn& c = *im.conns[ci];
      Frame f;
      if (!c.ch->recv(&f, 2000)) {
        drop_conn(ci, true);
        continue;
      }
      im.last_activity = now_ms();
      switch (f.type) {
        case MsgType::kHello: {
          const auto m = decode_hello(util::ByteView(f.payload));
          if (!m || m->proto != kProtocolVersion) {
            drop_conn(ci, false);
            break;
          }
          c.worker_id = m->worker_id;
          c.pid = m->pid;
          // The handshake ack: only its heartbeat_ms is read; each
          // job's run configuration follows in a JobConfig frame.
          enqueue(c, MsgType::kConfig, encode(ConfigMsg{}));
          c.configured = true;
          im.configured++;
          im.enroll_configured();
          im.met.connected.add(1);
          emit(ServiceEvent::Kind::kWorkerConnected, c, 0, 0);
          if (im.draining && im.shutdown_sent) {
            enqueue(c, MsgType::kShutdown, {});
            c.shutting_down = true;
          }
          break;
        }
        case MsgType::kHeartbeat: {
          const auto m = decode_heartbeat(util::ByteView(f.payload));
          if (m) {
            im.met.heartbeats.add(1);
            auto it = im.jobs.find(m->job);
            if (it != im.jobs.end() &&
                it->second.rep.state == JobState::kRunning)
              it->second.table.extend(m->shard, m->epoch, c.worker_id,
                                      now_ms() + cfg_.lease_timeout_ms);
          }
          break;
        }
        case MsgType::kLeaseResult: {
          const auto m = decode_lease_result(util::ByteView(f.payload));
          if (!m) {
            drop_conn(ci, true);
            break;
          }
          c.has_shard = false;
          auto it = im.jobs.find(m->job);
          if (it == im.jobs.end() ||
              it->second.rep.state != JobState::kRunning) {
            // Unknown or no-longer-running (cancelled/aborted) job:
            // the work is discarded exactly like a stale epoch.
            im.met.stale.add(1);
            if (it != im.jobs.end()) it->second.rep.report.stale_results++;
            break;
          }
          SJob& j = it->second;
          const DeliverOutcome out =
              j.table.deliver(m->shard, m->epoch, c.worker_id);
          if (out == DeliverOutcome::kAccepted) {
            j.rep.report.stats.merge(m->stats);
            DistReport::WorkerInfo& w = roster_entry(j, c);
            w.shards_accepted++;
            obs::Registry& reg = obs::Registry::global();
            for (const obs::CounterDelta& d : m->deltas) {
              // Replay the worker's deterministic growth: the service
              // aggregate equals the sum of its jobs' single-process
              // runs, and each job's per-worker decomposition carries
              // its own share (the per-job accounting identity).
              reg.counter(d.name, obs::Tag::kDeterministic).add(d.delta);
              w.metrics[d.name] += d.delta;
            }
            im.queued_shards--;
            im.met.accepted.add(1);
            emit(ServiceEvent::Kind::kResultAccepted, c, m->shard, m->job);
            if (j.table.complete()) {
              finish_job(j);
              emit(ServiceEvent::Kind::kJobDone, c, 0, m->job);
            }
          } else {
            im.met.stale.add(1);
            j.rep.report.stale_results++;
          }
          break;
        }
        case MsgType::kGoodbye: {
          const auto m = decode_goodbye(util::ByteView(f.payload));
          if (m && c.configured) {
            for (auto& [id, j] : im.jobs) {
              for (auto& w : j.rep.report.workers) {
                if (w.worker_id != c.worker_id) continue;
                w.clean_exit = true;
                w.manifest = m->manifest_path;
              }
            }
          }
          drop_conn(ci, false);
          if (im.conns.empty()) im.cv.notify_all();
          break;
        }
        default:
          drop_conn(ci, true);
          break;
      }
    }

    for (auto& [id, j] : im.jobs)
      if (j.rep.state == JobState::kRunning) j.table.expire(now_ms());
    for (auto& c : im.conns) {
      try_grant(*c);
      flush_conn(*c);
    }
  }

  ::close(ep);
}

}  // namespace cksum::dist
