// Distributed splice service: frame codec + CRC/NACK recovery, message
// serde, the lease state machine, delta export, and the algebraic
// properties of SpliceStats::merge that make the distributed merge
// bitwise-deterministic in the first place.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/splice_sim.hpp"
#include "dist/frame.hpp"
#include "dist/lease.hpp"
#include "dist/protocol.hpp"
#include "dist/service.hpp"
#include "dist/worker.hpp"
#include "fsgen/profile.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "util/rng.hpp"

namespace cksum {
namespace {

using dist::DeliverOutcome;
using dist::FrameChannel;
using dist::LeaseTable;
using dist::MsgType;

// --- Frame codec ----------------------------------------------------

TEST(DistFrame, EncodeDecodeRoundtrip) {
  const util::Bytes payload = {1, 2, 3, 4, 5};
  const util::Bytes wire =
      dist::encode_frame(MsgType::kLeaseGrant, 7, util::ByteView(payload));
  ASSERT_EQ(wire.size(), dist::kFrameHeaderLen + payload.size() +
                             dist::kFrameTrailerLen);
  MsgType type{};
  std::uint32_t seq = 0, len = 0;
  ASSERT_TRUE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
  EXPECT_EQ(type, MsgType::kLeaseGrant);
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(len, payload.size());
  const std::uint32_t stored =
      static_cast<std::uint32_t>(wire[wire.size() - 4]) |
      (static_cast<std::uint32_t>(wire[wire.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(wire[wire.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(wire[wire.size() - 1]) << 24);
  EXPECT_TRUE(dist::frame_crc_ok(
      util::ByteView(wire.data(), wire.size() - 4), stored));
}

TEST(DistFrame, HeaderCorruptionIsUnrecoverable) {
  util::Bytes wire = dist::encode_frame(MsgType::kHello, 0, {});
  wire[0] ^= 0xff;  // magic
  MsgType type{};
  std::uint32_t seq = 0, len = 0;
  EXPECT_FALSE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
}

TEST(DistFrame, RetiredIdleTypeRejected) {
  // Type 6 was a never-sent "idle" message; the decoder treats it as
  // unknown, exactly like a type past the last one.
  util::Bytes wire = dist::encode_frame(MsgType::kHeartbeat, 0, {});
  MsgType type{};
  std::uint32_t seq = 0, len = 0;
  ASSERT_TRUE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
  wire[5] = dist::kRetiredType;
  EXPECT_FALSE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
  wire[5] = 11;
  EXPECT_FALSE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
}

TEST(DistFrame, PayloadCorruptionFailsCrc) {
  util::Bytes payload(64, 0xab);
  util::Bytes wire =
      dist::encode_frame(MsgType::kLeaseResult, 3, util::ByteView(payload));
  wire[dist::kFrameHeaderLen + 10] ^= 0x01;
  const std::uint32_t stored =
      static_cast<std::uint32_t>(wire[wire.size() - 4]) |
      (static_cast<std::uint32_t>(wire[wire.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(wire[wire.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(wire[wire.size() - 1]) << 24);
  EXPECT_FALSE(dist::frame_crc_ok(
      util::ByteView(wire.data(), wire.size() - 4), stored));
}

/// A corrupted frame over a real socketpair is NACKed and replayed;
/// the receiver sees every message intact and in order.
TEST(DistFrame, CorruptedFrameRecoveredByNackResend) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);

  // Receiver thread: b must see three intact frames despite the
  // corruption of the second. b's recv also services a's NACK traffic.
  std::thread rx([&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      dist::Frame f;
      ASSERT_TRUE(b.recv(&f, 5000)) << "frame " << i;
      ASSERT_EQ(f.type, MsgType::kHeartbeat);
      ASSERT_EQ(f.payload.size(), 1u);
      EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
    }
  });

  const auto send_one = [&](std::uint8_t i) {
    const util::Bytes payload = {i};
    ASSERT_TRUE(a.send(MsgType::kHeartbeat, util::ByteView(payload)));
  };
  send_one(0);
  a.corrupt_next_send();
  send_one(1);
  send_one(2);
  // a must observe and answer b's NACK: pump its receive side until
  // the replay happened (recv times out once traffic drains).
  dist::Frame f;
  a.recv(&f, 1000);
  rx.join();

  EXPECT_GE(b.stats().crc_rejects, 1u);
  EXPECT_GE(a.stats().resends, 1u);
}

TEST(DistFrame, SerialOrderSoundAcrossWrap) {
  EXPECT_TRUE(dist::seq_before(0xfffffffeu, 0xffffffffu));
  EXPECT_TRUE(dist::seq_before(0xffffffffu, 0u));  // across the wrap
  EXPECT_TRUE(dist::seq_before(0xffffffffu, 5u));
  EXPECT_FALSE(dist::seq_before(0u, 0xffffffffu));
  EXPECT_FALSE(dist::seq_before(7u, 7u));
  EXPECT_TRUE(dist::seq_before(7u, 8u));
  EXPECT_FALSE(dist::seq_before(8u, 7u));
}

/// Regression: NACK replay across the 2^32 sequence wraparound. The
/// resend ring used raw u32 comparisons, so a replay whose buffered
/// frames straddle the wrap (..., 0xffffffff, 0x0, ...) skipped the
/// post-wrap frames and the receiver could never resynchronize.
TEST(DistFrame, NackRecoveryAcrossSeqWraparound) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);
  // Start the a->b stream two frames short of the wrap (both ends must
  // agree); the b->a direction (carrying b's NACKs) stays at zero.
  a.preset_sequences_for_test(/*send_seq=*/0xfffffffeu, /*recv_next=*/0);
  b.preset_sequences_for_test(/*send_seq=*/0, /*recv_next=*/0xfffffffeu);

  constexpr std::uint32_t kFrames = 6;  // seqs 0xfffffffe .. 0x00000003
  std::thread rx([&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      dist::Frame f;
      ASSERT_TRUE(b.recv(&f, 5000)) << "frame " << i;
      ASSERT_EQ(f.type, MsgType::kHeartbeat);
      ASSERT_EQ(f.payload.size(), 1u);
      EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
      EXPECT_EQ(f.seq, static_cast<std::uint32_t>(0xfffffffeu + i));
    }
  });

  for (std::uint32_t i = 0; i < kFrames; ++i) {
    if (i == 1) a.corrupt_next_send();  // corrupt seq 0xffffffff
    const util::Bytes payload = {static_cast<std::uint8_t>(i)};
    ASSERT_TRUE(a.send(MsgType::kHeartbeat, util::ByteView(payload)));
  }
  dist::Frame f;
  a.recv(&f, 1000);  // pump a's receive side so it services b's NACK
  rx.join();

  EXPECT_GE(b.stats().crc_rejects, 1u);
  // The replay must include the post-wrap frames (seq 0x0 onward).
  EXPECT_GE(a.stats().resends, kFrames - 1);
}

// --- Message serde --------------------------------------------------

core::SpliceStats random_stats(util::Rng& rng) {
  core::SpliceStats st;
  const auto r = [&] { return rng.below(1u << 30); };
  st.files = r();
  st.packets = r();
  st.pairs = r();
  st.total = r();
  st.caught_by_header = r();
  st.identical = r();
  st.remaining = r();
  st.missed_crc = r();
  st.missed_transport = r();
  st.missed_both = r();
  st.missed_koopman_dual = r();
  st.missed_koopman_single = r();
  st.fail_identical = r();
  st.pass_identical = r();
  st.fail_changed = r();
  st.pass_changed = r();
  st.remaining_with_hdr2 = r();
  st.missed_with_hdr2 = r();
  for (auto& v : st.remaining_by_k) v = r();
  for (auto& v : st.missed_by_k) v = r();
  st.slow_path = r();
  st.fast_path = r();
  return st;
}

TEST(DistProtocol, SpliceStatsSerdeRoundtrip) {
  util::Rng rng(0xD15721);
  for (int i = 0; i < 16; ++i) {
    const core::SpliceStats st = random_stats(rng);
    util::Bytes buf;
    dist::encode_stats(buf, st);
    core::SpliceStats back;
    std::size_t off = 0;
    ASSERT_TRUE(dist::decode_stats(util::ByteView(buf), &off, &back));
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(st, back);
  }
}

TEST(DistProtocol, LeaseResultRoundtrip) {
  util::Rng rng(0xD15722);
  dist::LeaseResultMsg m;
  m.shard = 5;
  m.epoch = 9;
  m.stats = random_stats(rng);
  m.deltas = {{"splice.total", 123}, {"splice.files", 4}};
  const util::Bytes buf = dist::encode(m);
  const auto back = dist::decode_lease_result(util::ByteView(buf));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->shard, 5u);
  EXPECT_EQ(back->epoch, 9u);
  EXPECT_EQ(back->stats, m.stats);
  EXPECT_EQ(back->deltas, m.deltas);
}

TEST(DistProtocol, ConfigRoundtrip) {
  dist::ConfigMsg m;
  m.corpus_kind = dist::CorpusKind::kManifest;
  m.corpus = "txt 1a 4096\nexe 2b 100\n";
  m.scale = 0.125;
  m.segment = 512;
  m.transport = 2;
  m.trailer = true;
  m.threads = 4;
  m.heartbeat_ms = 250;
  const auto back = dist::decode_config(util::ByteView(dist::encode(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->corpus_kind, dist::CorpusKind::kManifest);
  EXPECT_EQ(back->corpus, m.corpus);
  EXPECT_EQ(back->scale, 0.125);
  EXPECT_EQ(back->segment, 512u);
  EXPECT_EQ(back->transport, 2);
  EXPECT_TRUE(back->trailer);
  EXPECT_EQ(back->threads, 4u);
  EXPECT_EQ(back->heartbeat_ms, 250u);
}

TEST(DistProtocol, TruncatedPayloadsRejected) {
  dist::HeartbeatMsg hb{1, 2};
  util::Bytes buf = dist::encode(hb);
  buf.pop_back();
  EXPECT_FALSE(dist::decode_heartbeat(util::ByteView(buf)).has_value());
  buf.push_back(0);
  buf.push_back(0);  // trailing garbage is an error too
  EXPECT_FALSE(dist::decode_heartbeat(util::ByteView(buf)).has_value());
}

// --- Lease state machine --------------------------------------------

TEST(DistLease, ShardsPartitionTheCorpus) {
  LeaseTable t(10, 3);
  ASSERT_EQ(t.shard_count(), 4u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < t.shard_count(); ++i) {
    const dist::Shard& s = t.shard(i);
    EXPECT_EQ(s.begin, covered);
    covered = s.end;
  }
  EXPECT_EQ(covered, 10u);
}

TEST(DistLease, AtMostOnceAcrossReassignment) {
  LeaseTable t(4, 2);  // two shards
  const auto s0 = t.acquire(/*worker=*/1, /*deadline=*/100);
  ASSERT_TRUE(s0.has_value());
  const std::uint64_t epoch1 = t.shard(*s0).epoch;

  // Worker 1 goes silent; the lease expires and worker 2 takes over.
  EXPECT_EQ(t.expire(101), 1u);
  const auto s0again = t.acquire(/*worker=*/2, /*deadline=*/300);
  ASSERT_TRUE(s0again.has_value());
  EXPECT_EQ(*s0again, *s0);
  const std::uint64_t epoch2 = t.shard(*s0again).epoch;
  EXPECT_GT(epoch2, epoch1);

  // Worker 1's late result is stale; worker 2's is accepted; a replay
  // of worker 2's is a duplicate. Exactly one merge.
  EXPECT_EQ(t.deliver(*s0, epoch1, 1), DeliverOutcome::kStale);
  EXPECT_EQ(t.deliver(*s0, epoch2, 2), DeliverOutcome::kAccepted);
  EXPECT_EQ(t.deliver(*s0, epoch2, 2), DeliverOutcome::kDuplicate);
  EXPECT_EQ(t.reassigned_count(), 1u);
  EXPECT_FALSE(t.complete());
}

TEST(DistLease, HeartbeatExtendsOnlyTheHolder) {
  LeaseTable t(2, 2);
  const auto s = t.acquire(1, 100);
  ASSERT_TRUE(s.has_value());
  const std::uint64_t epoch = t.shard(*s).epoch;
  t.extend(*s, epoch, /*worker=*/2, 500);  // not the holder: ignored
  EXPECT_EQ(t.expire(200), 1u);
  const auto s2 = t.acquire(1, 300);
  ASSERT_TRUE(s2.has_value());
  t.extend(*s2, t.shard(*s2).epoch, 1, 500);
  EXPECT_EQ(t.expire(400), 0u);  // heartbeat kept it alive
}

TEST(DistLease, RevokeWorkerReturnsItsLeases) {
  LeaseTable t(6, 2);  // three shards
  ASSERT_TRUE(t.acquire(1, 100).has_value());
  ASSERT_TRUE(t.acquire(1, 100).has_value());
  ASSERT_TRUE(t.acquire(2, 100).has_value());
  EXPECT_EQ(t.revoke_worker(1), 2u);
  // Both revoked shards are grantable again.
  EXPECT_TRUE(t.acquire(3, 200).has_value());
  EXPECT_TRUE(t.acquire(3, 200).has_value());
  EXPECT_FALSE(t.acquire(3, 200).has_value());  // worker 2 still holds #2
}

TEST(DistLease, CompletionCountsEveryShardOnce) {
  LeaseTable t(5, 2);  // shards of 2+2+1 files
  for (int round = 0; round < 3; ++round) {
    const auto s = t.acquire(7, 1000);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(t.deliver(*s, t.shard(*s).epoch, 7), DeliverOutcome::kAccepted);
  }
  EXPECT_TRUE(t.complete());
  EXPECT_FALSE(t.acquire(7, 2000).has_value());
}

// --- Delta export ---------------------------------------------------

TEST(DistDeltas, CounterDeltasCaptureDeterministicGrowthOnly) {
  obs::Registry reg;
  obs::Counter det = reg.counter("fam.det", obs::Tag::kDeterministic);
  obs::Counter sched = reg.counter("fam.sched", obs::Tag::kScheduling);
  obs::Counter idle = reg.counter("fam.idle", obs::Tag::kDeterministic);
  det.add(5);
  const obs::Snapshot before = reg.snapshot();
  det.add(37);
  sched.add(100);  // non-deterministic: excluded
  idle.add(0);     // no growth: excluded
  const auto deltas = obs::counter_deltas(before, reg.snapshot());
#ifndef OBS_DISABLE
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].name, "fam.det");
  EXPECT_EQ(deltas[0].delta, 37u);
#else
  EXPECT_TRUE(deltas.empty());  // counters compile to no-ops
#endif
}

// --- The merge algebra the whole design rests on --------------------

/// merge() must be commutative and associative with the zero stats as
/// identity; otherwise shard results arriving in nondeterministic
/// order could not reproduce the single-process report bit for bit.
TEST(DistMergeProperty, CommutativeAssociativeWithIdentity) {
  util::Rng rng(0xD15723);
  for (int trial = 0; trial < 64; ++trial) {
    const core::SpliceStats a = random_stats(rng);
    const core::SpliceStats b = random_stats(rng);
    const core::SpliceStats c = random_stats(rng);

    core::SpliceStats ab = a;
    ab.merge(b);
    core::SpliceStats ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);  // commutative

    core::SpliceStats ab_c = ab;
    ab_c.merge(c);
    core::SpliceStats bc = b;
    bc.merge(c);
    core::SpliceStats a_bc = a;
    a_bc.merge(bc);
    EXPECT_EQ(ab_c, a_bc);  // associative

    core::SpliceStats a_zero = a;
    a_zero.merge(core::SpliceStats{});
    EXPECT_EQ(a_zero, a);  // identity
    core::SpliceStats zero_a;
    zero_a.merge(a);
    EXPECT_EQ(zero_a, a);
  }
}

// --- Multi-tenant JobService ----------------------------------------

/// Per-connection backpressure primitive: capacity is a hard bound,
/// the high-water mark records the deepest the queue ever got.
TEST(DistQueue, BoundedWriteQueueBackpressure) {
  dist::BoundedWriteQueue q(3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.push(MsgType::kLeaseGrant, {1}));
  EXPECT_TRUE(q.push(MsgType::kJobConfig, {2, 2}));
  EXPECT_TRUE(q.push(MsgType::kShutdown, {}));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(MsgType::kLeaseGrant, {9}));  // rejected, not queued
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.hwm(), 3u);

  MsgType t{};
  util::Bytes p;
  ASSERT_TRUE(q.pop(&t, &p));
  EXPECT_EQ(t, MsgType::kLeaseGrant);  // FIFO order preserved
  EXPECT_EQ(p, util::Bytes{1});
  ASSERT_TRUE(q.pop(&t, &p));
  EXPECT_EQ(t, MsgType::kJobConfig);
  ASSERT_TRUE(q.pop(&t, &p));
  EXPECT_EQ(t, MsgType::kShutdown);
  EXPECT_FALSE(q.pop(&t, &p));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.hwm(), 3u);  // hwm is sticky across drains
}

namespace {

dist::JobSpec profile_job(const std::string& name, double scale,
                          std::size_t shard_files = 0) {
  dist::JobSpec spec;
  spec.name = name;
  spec.run.corpus_kind = dist::CorpusKind::kProfile;
  spec.run.corpus = "nsc05";
  spec.run.scale = scale;
  spec.run.segment = 256;
  spec.run.transport =
      static_cast<std::uint8_t>(alg::Algorithm::kInternet);
  spec.run.threads = 1;
  spec.nfiles = fsgen::Filesystem(fsgen::profile("nsc05"), scale).file_count();
  spec.shard_files = shard_files;
  return spec;
}

core::SpliceStats profile_oracle(double scale) {
  core::SpliceRunConfig cfg;
  cfg.flow = core::paper_flow_config();
  cfg.threads = 1;
  return core::run_filesystem(cfg,
                              fsgen::Filesystem(fsgen::profile("nsc05"), scale));
}

std::thread worker_thread(std::uint16_t port, std::uint64_t id, int* rc,
                          std::string metrics_out = "") {
  return std::thread([port, id, rc, metrics_out] {
    dist::WorkerOptions w;
    w.host = "127.0.0.1";
    w.port = port;
    w.worker_id = id;
    w.metrics_out = metrics_out;
    w.tool = "cksum_tests worker";
    *rc = dist::run_worker(w);
  });
}

}  // namespace

/// The tentpole guarantee: three concurrently running named jobs on
/// one shared worker pool each merge to exactly the stats a
/// single-process run of the same corpus produces. (Counter-delta
/// accounting needs process-isolated workers and is exercised by the
/// faultlab drill; SpliceStats travel in lease results and stay
/// per-job even with every worker in this one process.)
TEST(DistJobService, ConcurrentJobsBitwiseEqualOracles) {
  dist::register_dist_metrics();
  const double scales[3] = {0.08, 0.06, 0.04};

  dist::ServiceConfig sc;
  sc.expected_workers = 3;
  sc.lease_timeout_ms = 60000;
  dist::JobService svc(sc);

  std::uint64_t ids[3];
  for (int j = 0; j < 3; ++j) {
    const auto id =
        svc.submit(profile_job("job" + std::to_string(j), scales[j], 1));
    ASSERT_TRUE(id.has_value());
    ids[j] = *id;
  }
  EXPECT_EQ(ids[0], 1u);  // ids start at 1

  int rcs[3] = {-1, -1, -1};
  std::thread workers[3];
  for (int i = 0; i < 3; ++i)
    workers[i] = worker_thread(svc.port(), i + 1, &rcs[i]);

  for (int j = 0; j < 3; ++j) {
    const dist::JobReport rep = svc.wait(ids[j]);
    EXPECT_EQ(rep.state, dist::JobState::kDone);
    EXPECT_TRUE(rep.report.complete);
    EXPECT_EQ(rep.report.stats, profile_oracle(scales[j]))
        << "job " << j << " diverged from its single-process oracle";
  }

  const std::vector<dist::JobReport> all = svc.drain();
  ASSERT_EQ(all.size(), 3u);
  for (const auto& r : all) EXPECT_EQ(r.state, dist::JobState::kDone);
  for (auto& t : workers) t.join();
  for (const int rc : rcs) EXPECT_EQ(rc, 0);

  // The manifest member is a well-formed per-job array.
  const std::string js = svc.jobs_json();
  EXPECT_EQ(js.front(), '[');
  EXPECT_NE(js.find("\"job\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"job\": 3"), std::string::npos);
  EXPECT_NE(js.find("\"state\": \"done\""), std::string::npos);
}

/// A job's roster lists every worker configured while it ran, not only
/// the ones that held a shard: with one shard and three workers, the
/// two idle workers still appear (no shards, no metrics) with the
/// sub-manifest paths their Goodbyes carried.
TEST(DistJobService, IdleWorkersStayOnTheRoster) {
  dist::register_dist_metrics();
  dist::ServiceConfig sc;
  sc.expected_workers = 3;
  sc.lease_timeout_ms = 60000;
  dist::JobService svc(sc);
  const auto id = svc.submit(profile_job("one-shard", 0.04, 1u << 20));
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(svc.status(*id)->report.shards, 1u);

  std::string paths[3];
  int rcs[3] = {-1, -1, -1};
  std::thread workers[3];
  for (int i = 0; i < 3; ++i) {
    paths[i] = ::testing::TempDir() + "roster_worker" +
               std::to_string(i + 1) + ".json";
    workers[i] = worker_thread(svc.port(), i + 1, &rcs[i], paths[i]);
  }
  EXPECT_EQ(svc.wait(*id).state, dist::JobState::kDone);
  const std::vector<dist::JobReport> all = svc.drain();
  for (auto& t : workers) t.join();
  for (const int rc : rcs) EXPECT_EQ(rc, 0);

  ASSERT_EQ(all.size(), 1u);
  const dist::DistReport& rep = all[0].report;
  ASSERT_EQ(rep.workers.size(), 3u);
  std::size_t shards = 0;
  for (std::uint64_t wid = 1; wid <= 3; ++wid) {
    const auto w = std::find_if(
        rep.workers.begin(), rep.workers.end(),
        [wid](const dist::DistReport::WorkerInfo& x) {
          return x.worker_id == wid;
        });
    ASSERT_NE(w, rep.workers.end()) << "worker " << wid << " missing";
    EXPECT_TRUE(w->clean_exit) << "worker " << wid;
    EXPECT_EQ(w->manifest, paths[wid - 1]);
    if (w->shards_accepted == 0) {
      EXPECT_TRUE(w->metrics.empty()) << "worker " << wid;
    }
    shards += w->shards_accepted;
  }
  EXPECT_EQ(shards, 1u);
  EXPECT_NE(svc.jobs_json().find("\"workers\": 3"), std::string::npos);
  for (const std::string& p : paths) std::remove(p.c_str());
}

/// Admission control: beyond max_jobs the submit is rejected up front
/// and the rejection is observable in the dist.* counters.
TEST(DistJobService, AdmissionRejectsBeyondLimits) {
  dist::register_dist_metrics();
  const auto counter = [](std::string_view name) -> std::uint64_t {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->value : 0;
  };
  [[maybe_unused]] const std::uint64_t rejected0 =
      counter("dist.jobs_rejected");

  dist::ServiceConfig sc;
  sc.limits.max_jobs = 1;
  dist::JobService svc(sc);
  const auto first = svc.submit(profile_job("only", 0.04));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(svc.submit(profile_job("rejected", 0.04)).has_value());
#ifndef OBS_DISABLE  // the rejection counter compiles to a no-op
  EXPECT_EQ(counter("dist.jobs_rejected"), rejected0 + 1);
#endif

  // Queued-shard budget: a job whose shard count alone exceeds the
  // limit is rejected even when the job table has room.
  dist::ServiceConfig sc2;
  sc2.limits.max_queued_shards = 2;
  dist::JobService svc2(sc2);
  EXPECT_FALSE(svc2.submit(profile_job("too-wide", 0.08, 1)).has_value());
#ifndef OBS_DISABLE
  EXPECT_EQ(counter("dist.jobs_rejected"), rejected0 + 2);
#endif

  EXPECT_TRUE(svc.cancel(*first));
  svc.drain();
  svc2.drain();
}

/// Cancelling one job mid-flight must not disturb its neighbours: the
/// survivor still merges bitwise-equal to its oracle, the cancelled
/// job keeps its partial merge and terminal state.
TEST(DistJobService, CancelMidFlightLeavesSurvivorIntact) {
  dist::register_dist_metrics();
  dist::ServiceConfig sc;
  sc.expected_workers = 1;
  sc.lease_timeout_ms = 60000;
  dist::JobService svc(sc);

  const auto keep = svc.submit(profile_job("keep", 0.08, 1));
  const auto axe = svc.submit(profile_job("axe", 0.08, 1));
  ASSERT_TRUE(keep.has_value());
  ASSERT_TRUE(axe.has_value());

  // Cancel the victim as soon as one of its shards has merged — from
  // this thread, not the hook (the hook runs inside the service loop).
  std::atomic<bool> axe_started{false};
  svc.set_event_hook([&](const dist::ServiceEvent& ev) {
    if (ev.kind == dist::ServiceEvent::Kind::kResultAccepted &&
        ev.job == *axe)
      axe_started.store(true);
  });

  int rc = -1;
  std::thread w = worker_thread(svc.port(), 1, &rc);
  while (!axe_started.load() && svc.status(*axe)->state ==
                                    dist::JobState::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool cancelled = svc.cancel(*axe);

  const dist::JobReport kept = svc.wait(*keep);
  EXPECT_EQ(kept.state, dist::JobState::kDone);
  EXPECT_TRUE(kept.report.complete);
  EXPECT_EQ(kept.report.stats, profile_oracle(0.08));

  const dist::JobReport axed = svc.wait(*axe);
  if (cancelled) {
    EXPECT_EQ(axed.state, dist::JobState::kCancelled);
    EXPECT_FALSE(axed.report.complete);
  } else {
    // The whole job raced to completion before cancel() landed —
    // legitimate on a fast machine; it must then equal its oracle.
    EXPECT_EQ(axed.state, dist::JobState::kDone);
    EXPECT_EQ(axed.report.stats, profile_oracle(0.08));
  }

  svc.drain();
  w.join();
  EXPECT_EQ(rc, 0);
}

/// A dead fleet must not hang a waiting caller: with no worker ever
/// connecting, the idle-abort timer ends the job as aborted, and the
/// manifest member says so (the `splice --serve` exit-1 path).
TEST(DistJobService, DeadFleetAbortsIdleJob) {
  dist::register_dist_metrics();
  dist::ServiceConfig sc;
  sc.idle_abort_ms = 300;
  dist::JobService svc(sc);
  const auto id = svc.submit(profile_job("orphan", 0.04));
  ASSERT_TRUE(id.has_value());

  const dist::JobReport rep = svc.wait(*id);
  EXPECT_EQ(rep.state, dist::JobState::kAborted);
  EXPECT_FALSE(rep.report.complete);
  EXPECT_NE(svc.jobs_json().find("\"state\": \"aborted\""),
            std::string::npos);
  svc.drain();
}

/// A job with no files has nothing to lease: it is done on admission
/// instead of waiting for a result that can never come.
TEST(DistJobService, EmptyJobDoneOnAdmission) {
  dist::register_dist_metrics();
  dist::JobService svc(dist::ServiceConfig{});
  dist::JobSpec spec = profile_job("empty", 0.04);
  spec.nfiles = 0;
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.has_value());
  const dist::JobReport rep = svc.wait(*id);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_TRUE(rep.report.complete);
  EXPECT_EQ(rep.report.shards, 0u);
  svc.drain();
}

}  // namespace
}  // namespace cksum
