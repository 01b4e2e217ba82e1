// Seeded workload inputs. Everything the program under test receives
// is generated here from the workload seed: a file list (kinds, seeds
// and sizes drawn from named fsgen profile mixes, handed over as a
// Filesystem manifest) or the bytes of a pcap capture with a known set
// of damaged records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "util/bytes.hpp"

namespace e2e {

/// Manifest text ("<kind> <seed-hex> <size>" per line, for
/// fsgen::Filesystem::from_manifest) of the mix every workload draws
/// from: the office, run-heavy and random-heavy profiles nsc05,
/// smeg.stanford.edu:/u1 (PBM and word-processor files) and
/// modern:/home. The byte budget is split evenly over the profiles and
/// within a profile over its file kinds by mix weight. Each kind gets
/// as many files as its bytes hold at the profile's mean file size, so
/// every seed yields the same bytes and file count per kind; the seed
/// only draws the file seeds, the shape of the log-uniform sizes and
/// the file order.
std::string make_manifest(std::size_t total_bytes, std::uint64_t seed);

/// What the capture generator injected, per ingest reject class.
struct CaptureTruth {
  std::uint64_t records = 0;
  std::uint64_t accepted = 0;
  std::uint64_t truncated = 0;      ///< snap-length cut
  std::uint64_t non_ipv4 = 0;       ///< ethertype rewritten to IPv6
  std::uint64_t checksum_fail = 0;  ///< one payload bit flipped
  std::uint64_t files = 0;          ///< flow starts (never damaged)
  std::uint64_t accepted_payload_bytes = 0;
};

struct Capture {
  cksum::util::Bytes bytes;  ///< a complete LINKTYPE_ETHERNET pcap
  CaptureTruth truth;
};

/// Segment every file of the manifest's filesystem under `flow` into a
/// LINKTYPE_ETHERNET capture. About `damage_per_mille` of the
/// non-initial records of each class are damaged (a flow's first
/// record is kept intact so file grouping stays exact).
Capture make_capture(const std::string& manifest, const cksum::net::FlowConfig& flow,
                     std::uint64_t seed, unsigned damage_per_mille);

}  // namespace e2e
