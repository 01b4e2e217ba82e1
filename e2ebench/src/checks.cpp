#include "checks.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "fsgen/profile.hpp"

namespace e2e {

using cksum::core::SpliceStats;

namespace {

using Field = std::uint64_t SpliceStats::*;

const std::vector<std::pair<const char*, Field>>& splice_fields() {
  static const std::vector<std::pair<const char*, Field>> f = {
      {"files", &SpliceStats::files},
      {"packets", &SpliceStats::packets},
      {"pairs", &SpliceStats::pairs},
      {"total", &SpliceStats::total},
      {"caught_by_header", &SpliceStats::caught_by_header},
      {"identical", &SpliceStats::identical},
      {"remaining", &SpliceStats::remaining},
      {"missed_crc", &SpliceStats::missed_crc},
      {"missed_transport", &SpliceStats::missed_transport},
      {"missed_both", &SpliceStats::missed_both},
      {"missed_koopman_dual", &SpliceStats::missed_koopman_dual},
      {"missed_koopman_single", &SpliceStats::missed_koopman_single},
      {"fail_identical", &SpliceStats::fail_identical},
      {"pass_identical", &SpliceStats::pass_identical},
      {"fail_changed", &SpliceStats::fail_changed},
      {"pass_changed", &SpliceStats::pass_changed},
      {"remaining_with_hdr2", &SpliceStats::remaining_with_hdr2},
      {"missed_with_hdr2", &SpliceStats::missed_with_hdr2},
      {"slow_path", &SpliceStats::slow_path},
      {"fast_path", &SpliceStats::fast_path},
  };
  return f;
}

std::string mismatch(const char* what, std::uint64_t got, std::uint64_t want) {
  return std::string(what) + " = " + std::to_string(got) + ", expected " +
         std::to_string(want);
}

}  // namespace

std::string check_splice(const SpliceStats& got, const SpliceStats& oracle) {
  if (got == oracle) return "";
  for (const auto& [name, field] : splice_fields())
    if (got.*field != oracle.*field) return mismatch(name, got.*field, oracle.*field);
  return "per-substitution-length counters differ from the oracle";
}

std::string check_dist(const cksum::dist::JobReport& got, const SpliceStats& oracle) {
  if (got.state != cksum::dist::JobState::kDone)
    return "job state " + std::string(cksum::dist::name(got.state));
  if (!got.report.complete) return "job report incomplete";
  if (got.report.reassigned != 0)
    return mismatch("leases reassigned", got.report.reassigned, 0);
  if (got.report.stale_results != 0)
    return mismatch("stale results", got.report.stale_results, 0);
  return check_splice(got.report.stats, oracle);
}

std::string check_capture(const CaptureSeen& got, const CaptureTruth& t) {
  const cksum::trace::IngestCounts& c = got.counts;
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> rows[] = {
      {"records", {c.records, t.records}},
      {"accepted", {c.accepted, t.accepted}},
      {"rejected", {c.rejected, t.records - t.accepted}},
      {"accepted + rejected", {c.accepted + c.rejected, c.records}},
      {"truncated", {c.truncated, t.truncated}},
      {"non_ipv4", {c.non_ipv4, t.non_ipv4}},
      {"checksum_fail", {c.checksum_fail, t.checksum_fail}},
      {"link_too_short", {c.link_too_short, 0}},
      {"header_fail", {c.header_fail, 0}},
      {"orphan", {c.orphan, 0}},
      {"files", {got.files, t.files}},
      {"profile bytes", {got.profile_bytes, t.accepted_payload_bytes}},
      {"store files", {got.store_files, t.files}},
      {"store packets", {got.store_packets, t.accepted}},
  };
  for (const auto& [name, v] : rows)
    if (v.first != v.second) return mismatch(name, v.first, v.second);
  return "";
}

std::string self_test() {
  // A small real oracle, so the corrupted copies are realistic outputs.
  const std::string manifest = make_manifest(96 * 1024, 1);
  const cksum::fsgen::Filesystem fs =
      cksum::fsgen::Filesystem::from_manifest(cksum::fsgen::profile("nsc05"), manifest);
  cksum::core::SpliceRunConfig run;
  run.flow = cksum::core::paper_flow_config();
  const SpliceStats oracle = cksum::core::run_filesystem(run, fs);

  if (!check_splice(oracle, oracle).empty()) return "splice check refused a correct output";
  for (const auto& [name, field] : splice_fields()) {
    SpliceStats bad = oracle;
    bad.*field ^= 1;
    if (check_splice(bad, oracle).empty())
      return std::string("splice check missed a flipped ") + name;
  }
  {
    SpliceStats bad = oracle;
    bad.missed_by_k[3] ^= 1;
    if (check_splice(bad, oracle).empty()) return "splice check missed a flipped missed_by_k";
  }

  cksum::dist::JobReport rep;
  rep.state = cksum::dist::JobState::kDone;
  rep.report.complete = true;
  rep.report.stats = oracle;
  if (!check_dist(rep, oracle).empty()) return "dist check refused a correct report";
  for (int which = 0; which < 5; ++which) {
    cksum::dist::JobReport bad = rep;
    if (which == 0) bad.report.stats.missed_transport ^= 1;
    if (which == 1) bad.report.reassigned = 1;
    if (which == 2) bad.report.stale_results = 1;
    if (which == 3) bad.report.complete = false;
    if (which == 4) bad.state = cksum::dist::JobState::kCancelled;
    if (check_dist(bad, oracle).empty()) return "dist check missed corruption " + std::to_string(which);
  }

  CaptureTruth t;
  t.records = 100, t.accepted = 94, t.truncated = 2, t.non_ipv4 = 1;
  t.checksum_fail = 3, t.files = 4, t.accepted_payload_bytes = 24000;
  CaptureSeen seen;
  seen.counts.records = 100, seen.counts.accepted = 94, seen.counts.rejected = 6;
  seen.counts.truncated = 2, seen.counts.non_ipv4 = 1, seen.counts.checksum_fail = 3;
  seen.files = 4, seen.profile_bytes = 24000, seen.store_files = 4, seen.store_packets = 94;
  if (!check_capture(seen, t).empty()) return "capture check refused a correct result";
  std::uint64_t* const counters[] = {
      &seen.counts.records,   &seen.counts.accepted,      &seen.counts.rejected,
      &seen.counts.truncated, &seen.counts.link_too_short, &seen.counts.non_ipv4,
      &seen.counts.header_fail, &seen.counts.checksum_fail, &seen.counts.orphan,
      &seen.files,            &seen.profile_bytes,        &seen.store_files,
      &seen.store_packets};
  for (std::uint64_t* c : counters) {
    *c ^= 1;
    const bool caught = !check_capture(seen, t).empty();
    *c ^= 1;
    if (!caught) return "capture check missed a flipped counter";
  }
  return "";
}

}  // namespace e2e
