#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "fsgen/profile.hpp"
#include "net/flow.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace cksum;

namespace {

// Smallest file the splitter emits.
constexpr std::size_t kMinFile = 1024;

void put_u16be(util::Bytes& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

void put_u32le(util::Bytes& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

std::string make_manifest(std::size_t total_bytes, std::uint64_t seed) {
  const char* const profiles[] = {"nsc05", "smeg.stanford.edu:/u1", "modern:/home"};
  constexpr std::size_t nprof = std::size(profiles);
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xe2e);
  std::vector<fsgen::Filesystem::FileSpec> specs;
  for (std::size_t p = 0; p < nprof; ++p) {
    const fsgen::FsProfile& prof = fsgen::profile(profiles[p]);
    const std::size_t prof_budget =
        total_bytes / nprof + (p + 1 == nprof ? total_bytes % nprof : 0);
    double total_w = 0.0;
    for (const auto& kw : prof.mix) total_w += kw.weight;
    const double log_min = std::log(static_cast<double>(prof.min_size));
    const double log_max = std::log(static_cast<double>(prof.max_size));
    // Mean of the profile's log-uniform size law.
    const double mean_size = (std::exp(log_max) - std::exp(log_min)) / (log_max - log_min);
    for (const auto& kw : prof.mix) {
      // Bytes and file count per kind are fixed by the budget; the seed
      // draws the log-uniform shape of the sizes, scaled to the budget.
      const double budget = static_cast<double>(prof_budget) * kw.weight / total_w;
      const std::size_t count =
          std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(budget / mean_size)));
      std::vector<double> draw(count);
      double drawn = 0;
      for (double& d : draw) {
        d = std::exp(log_min + (log_max - log_min) * rng.uniform01());
        drawn += d;
      }
      std::size_t left = static_cast<std::size_t>(budget);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t size =
            i + 1 == count ? left
                           : std::min(left, std::max<std::size_t>(
                                                kMinFile, static_cast<std::size_t>(
                                                              budget * draw[i] / drawn)));
        if (size == 0) break;
        specs.push_back({kw.kind, rng.next(), size});
        left -= size;
      }
    }
  }
  std::shuffle(specs.begin(), specs.end(), rng);
  std::string out;
  char line[96];
  for (const auto& s : specs) {
    std::snprintf(line, sizeof line, "%s %016llx %zu\n",
                  std::string(fsgen::name(s.kind)).c_str(),
                  static_cast<unsigned long long>(s.seed), s.size);
    out += line;
  }
  return out;
}

Capture make_capture(const std::string& manifest, const net::FlowConfig& flow,
                     std::uint64_t seed, unsigned damage_per_mille) {
  const fsgen::Filesystem fs =
      fsgen::Filesystem::from_manifest(fsgen::profile("nsc05"), manifest);
  util::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0xca97);
  Capture cap;
  util::Bytes& b = cap.bytes;
  CaptureTruth& t = cap.truth;

  // Written by hand rather than with util::PcapWriter: a damaged record
  // needs its captured length or link header edited. Classic pcap
  // global header, little-endian microsecond magic.
  put_u32le(b, 0xa1b2c3d4);
  b.push_back(2), b.push_back(0), b.push_back(4), b.push_back(0);
  put_u32le(b, 0);  // thiszone
  put_u32le(b, 0);  // sigfigs
  put_u32le(b, 65535);
  put_u32le(b, 1);  // LINKTYPE_ETHERNET

  util::Bytes frame;
  for (std::size_t f = 0; f < fs.file_count(); ++f) {
    const util::Bytes data = fs.file(f);
    const std::vector<net::Packet> pkts = net::segment_file(flow, util::ByteView(data));
    if (!pkts.empty()) t.files += 1;
    for (std::size_t j = 0; j < pkts.size(); ++j) {
      const net::Packet& p = pkts[j];
      frame.clear();
      for (int i = 0; i < 5; ++i) frame.push_back(0x02);
      frame.push_back(0x02);  // dst MAC
      for (int i = 0; i < 5; ++i) frame.push_back(0x02);
      frame.push_back(0x01);  // src MAC
      put_u16be(frame, 0x0800);
      const util::ByteView ip = p.ip_bytes();
      frame.insert(frame.end(), ip.begin(), ip.end());

      std::size_t captured = frame.size();
      const std::uint64_t r = j == 0 ? 1000 : rng.below(1000);
      if (r < damage_per_mille) {
        captured = 14 + rng.below(ip.size());  // snap-length cut
        t.truncated += 1;
      } else if (r < 2 * damage_per_mille) {
        frame[12] = 0x86, frame[13] = 0xdd;  // IPv6 ethertype
        t.non_ipv4 += 1;
      } else if (r < 3 * damage_per_mille && p.payload_len > 0) {
        const std::size_t at = frame.size() - p.payload_len + rng.below(p.payload_len);
        frame[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        t.checksum_fail += 1;
      } else {
        t.accepted += 1;
        t.accepted_payload_bytes += p.payload_len;
      }
      t.records += 1;
      put_u32le(b, static_cast<std::uint32_t>(t.records / 1000000));
      put_u32le(b, static_cast<std::uint32_t>(t.records % 1000000));
      put_u32le(b, static_cast<std::uint32_t>(captured));
      put_u32le(b, static_cast<std::uint32_t>(frame.size()));
      b.insert(b.end(), frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(captured));
    }
  }
  return cap;
}

}  // namespace e2e
