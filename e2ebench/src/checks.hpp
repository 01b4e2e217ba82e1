// Output checks. Every job's output is compared with what the set-up
// computed independently; a mismatch fails the job. Each check returns
// "" when the output is right, else the first thing that is wrong.
#pragma once

#include <string>

#include "core/splice_sim.hpp"
#include "dist/service.hpp"
#include "inputs.hpp"
#include "trace/ingest.hpp"

namespace e2e {

/// fs-inmem and corpus-stream: the job's SpliceStats against the
/// oracle (run_filesystem at one thread over the same file list).
std::string check_splice(const cksum::core::SpliceStats& got,
                         const cksum::core::SpliceStats& oracle);

/// dist-loopback: the merged report against the in-process oracle; the
/// job must be done and complete with no lease reassigned and no stale
/// result on a healthy run.
std::string check_dist(const cksum::dist::JobReport& got,
                       const cksum::core::SpliceStats& oracle);

/// capture-to-corpus: what ingest, the profiler and the sealed store
/// saw against what the capture generator injected.
struct CaptureSeen {
  cksum::trace::IngestCounts counts;
  std::uint64_t files = 0;          ///< ingest file groups
  std::uint64_t profile_bytes = 0;  ///< DataProfile::bytes()
  std::uint64_t store_files = 0;    ///< CorpusReader info
  std::uint64_t store_packets = 0;
};
std::string check_capture(const CaptureSeen& got, const CaptureTruth& truth);

/// Feeds each check a correct output and a copy with a single counter
/// changed; returns "" when every corruption was caught and no correct
/// output was refused.
std::string self_test();

}  // namespace e2e
