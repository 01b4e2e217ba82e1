#include "core/splice_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "atm/splice.hpp"
#include "checksum/kernels/kernel.hpp"
#include "compress/lzw.hpp"
#include "fsgen/corpus_store.hpp"
#include "net/validate.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace cksum::core {

namespace {

// ---------------------------------------------------------------------------
// Telemetry. Counters are never touched per splice: evaluate_pair
// accumulates into its SpliceStats as before and a flush object adds
// the per-pair deltas to the registry on the way out, so the DFS inner
// loops (fold and the leaf-join sweep) never touch the registry, which
// sees a handful of relaxed adds per pair. All splice.*
// counters are additive and thread-count invariant (Tag
// kDeterministic); sched.* depends on worker interleaving.
// ---------------------------------------------------------------------------

struct SpliceMetrics {
  obs::Counter files, packets, pairs, splices, fast, slow, caught_by_header,
      identical, remaining, missed_crc, missed_transport, missed_koopman_dual,
      missed_koopman_single, dfs_nodes, leaf_evals;
  obs::Counter sched_files, sched_chunks, sched_steals;
  obs::Gauge sched_open_files;
  obs::Histogram generate_ns, packetize_ns, chunk_ns;
};

const SpliceMetrics& smx() {
  static const SpliceMetrics m = [] {
    obs::Registry& r = obs::Registry::global();
    SpliceMetrics v;
    v.files = r.counter("splice.files");
    v.packets = r.counter("splice.packets");
    v.pairs = r.counter("splice.pairs");
    v.splices = r.counter("splice.total");
    v.fast = r.counter("splice.fast_path");
    v.slow = r.counter("splice.slow_path");
    v.caught_by_header = r.counter("splice.caught_by_header");
    v.identical = r.counter("splice.identical");
    v.remaining = r.counter("splice.remaining");
    v.missed_crc = r.counter("splice.missed_crc");
    v.missed_transport = r.counter("splice.missed_transport");
    v.missed_koopman_dual = r.counter("splice.missed_koopman_dual");
    v.missed_koopman_single = r.counter("splice.missed_koopman_single");
    v.dfs_nodes = r.counter("splice.dfs_nodes");
    v.leaf_evals = r.counter("splice.leaf_evals");
    v.sched_files = r.counter("sched.files_claimed", obs::Tag::kScheduling);
    v.sched_chunks = r.counter("sched.chunks_claimed", obs::Tag::kScheduling);
    v.sched_steals = r.counter("sched.chunks_stolen", obs::Tag::kScheduling);
    v.sched_open_files = r.gauge("sched.open_files", obs::Tag::kScheduling);
    v.generate_ns = r.histogram("sched.generate_ns", obs::Tag::kTiming);
    v.packetize_ns = r.histogram("sched.packetize_ns", obs::Tag::kTiming);
    v.chunk_ns = r.histogram("sched.chunk_ns", obs::Tag::kTiming);
    return v;
  }();
  return m;
}

#ifndef OBS_DISABLE

/// Flushes one evaluate_pair call's SpliceStats deltas (the stats
/// object is shared across many pairs) into the registry on scope
/// exit, covering every early return.
class SpliceObsFlush {
 public:
  explicit SpliceObsFlush(SpliceStats& st)
      : st_(st),
        pairs_(st.pairs),
        total_(st.total),
        fast_(st.fast_path),
        slow_(st.slow_path),
        caught_(st.caught_by_header),
        identical_(st.identical),
        remaining_(st.remaining),
        missed_crc_(st.missed_crc),
        missed_transport_(st.missed_transport),
        missed_kd_(st.missed_koopman_dual),
        missed_ks_(st.missed_koopman_single) {}
  SpliceObsFlush(const SpliceObsFlush&) = delete;
  SpliceObsFlush& operator=(const SpliceObsFlush&) = delete;
  ~SpliceObsFlush() {
    const SpliceMetrics& m = smx();
    m.pairs.add(st_.pairs - pairs_);
    m.splices.add(st_.total - total_);
    m.fast.add(st_.fast_path - fast_);
    m.slow.add(st_.slow_path - slow_);
    m.caught_by_header.add(st_.caught_by_header - caught_);
    m.identical.add(st_.identical - identical_);
    m.remaining.add(st_.remaining - remaining_);
    m.missed_crc.add(st_.missed_crc - missed_crc_);
    m.missed_transport.add(st_.missed_transport - missed_transport_);
    m.missed_koopman_dual.add(st_.missed_koopman_dual - missed_kd_);
    m.missed_koopman_single.add(st_.missed_koopman_single - missed_ks_);
    m.dfs_nodes.add(dfs_nodes);
    m.leaf_evals.add(leaf_evals);
  }

  std::uint64_t dfs_nodes = 0;   ///< folds performed by the DFS walk
  std::uint64_t leaf_evals = 0;  ///< DFS leaves classified in full

 private:
  // Only the flushed scalars are captured — copying the whole
  // SpliceStats would drag its by-k arrays through every pair.
  SpliceStats& st_;
  const std::uint64_t pairs_, total_, fast_, slow_, caught_, identical_,
      remaining_, missed_crc_, missed_transport_, missed_kd_, missed_ks_;
};

#else

class SpliceObsFlush {
 public:
  explicit SpliceObsFlush(SpliceStats&) {}
  std::uint64_t dfs_nodes = 0;
  std::uint64_t leaf_evals = 0;
};

#endif

const alg::CrcCombiner& comb48() {
  static const alg::CrcCombiner c(atm::kCellPayload);
  return c;
}
const alg::CrcCombiner& comb44() {
  static const alg::CrcCombiner c(44);
  return c;
}

/// Zeros-operator advancing a finalised CRC past everything that
/// follows a non-EOM cell at distance `d` cell slots from the last
/// non-EOM position: d full cells plus the EOM cell's 44 CRC-covered
/// bytes. One table per distance, built once per process — a splice
/// CRC is then the XOR of per-cell advanced CRCs (the operator is
/// linear), independent of which other cells the splice keeps.
const alg::CrcCombiner& suffix_comb(std::size_t d) {
  static const std::vector<alg::CrcCombiner> cache = [] {
    std::vector<alg::CrcCombiner> v;
    v.reserve(atm::kMaxSpliceCells);
    for (std::size_t i = 0; i < atm::kMaxSpliceCells; ++i)
      v.emplace_back(44 + i * atm::kCellPayload);
    return v;
  }();
  return cache[d];
}

struct PairContext {
  const net::PacketConfig* cfg = nullptr;
  const SimPacket* p1 = nullptr;
  const SimPacket* p2 = nullptr;
  bool fletcher = false;  ///< transport is a Fletcher sum
  bool mod255 = false;
  bool header_placement = true;
  /// Per p1 non-EOM cell: would these 48 bytes pass the header checks
  /// as the first cell of a splice of p2's AAL5 length?
  const std::uint8_t* hdr_ok = nullptr;
  /// p1's header cell carries p2's cell-0 data (identical-to-p2 is
  /// possible for splices starting with it).
  bool ident2_head = false;
};

/// Does p1's header cell deliver the same data as p2's? The identity
/// test ignores the transport check field, which under header
/// placement lies inside this cell (IP bytes 36-37), so the cell
/// hashes only decide it under trailer placement.
bool header_cells_match(const net::PacketConfig& cfg, const SimPacket& p1,
                        const SimPacket& p2) {
  if (cfg.placement != net::ChecksumPlacement::kHeader)
    return p1.cells[0].hash == p2.cells[0].hash;
  constexpr std::size_t kCheckAt = net::kIpv4HeaderLen + 16;
  const util::ByteView a = p1.pdu.cell(0);
  const util::ByteView b = p2.pdu.cell(0);
  return std::equal(a.begin(), a.begin() + kCheckAt, b.begin()) &&
         std::equal(a.begin() + kCheckAt + 2, a.end(),
                    b.begin() + kCheckAt + 2);
}

/// hdr_ok for the pair: reuse p1's precomputed self-check when the
/// lengths (and check flavour) match, else compute into `scratch`.
const std::uint8_t* pair_hdr_ok(const net::PacketConfig& cfg,
                                const SimPacket& p1, const SimPacket& p2,
                                std::vector<std::uint8_t>& scratch) {
  const bool require_ipck = cfg.fill_ip_header && !cfg.legacy95_headers;
  const std::size_t n1 = p1.pdu.num_cells();
  if (p1.total_len == p2.total_len && p1.hdr_ok_self.size() == n1 - 1 &&
      p1.hdr_require_ipck == require_ipck &&
      p1.hdr_legacy95 == cfg.legacy95_headers) {
    return p1.hdr_ok_self.data();
  }
  scratch.resize(n1 - 1);
  for (std::size_t i = 0; i + 1 < n1; ++i) {
    scratch[i] = net::check_headers(p1.pdu.cell(i), p2.total_len, require_ipck,
                                    cfg.legacy95_headers) == net::HeaderCheck::kOk
                     ? 1
                     : 0;
  }
  return scratch.data();
}

void classify(const PairContext& ctx, unsigned k1, bool hdr2, bool identical,
              bool transport_pass, bool crc_pass, bool kd_pass, bool ks_pass,
              SpliceStats& st) {
  if (identical) {
    ++st.identical;
    if (transport_pass) {
      ++st.pass_identical;
    } else {
      ++st.fail_identical;
    }
    return;
  }
  ++st.remaining;
  if (transport_pass) {
    ++st.missed_transport;
    ++st.pass_changed;
  } else {
    ++st.fail_changed;
  }
  if (crc_pass) ++st.missed_crc;
  if (crc_pass && transport_pass) ++st.missed_both;
  if (kd_pass) ++st.missed_koopman_dual;
  if (ks_pass) ++st.missed_koopman_single;

  const std::size_t n2 = ctx.p2->cells.size();
  const std::size_t k = std::min<std::size_t>(n2 - k1, kMaxTrackedK - 1);
  ++st.remaining_by_k[k];
  if (transport_pass) ++st.missed_by_k[k];

  if (hdr2) {  // packet 2's header cell is in the splice
    ++st.remaining_with_hdr2;
    if (transport_pass) ++st.missed_with_hdr2;
  }
}

void eval_slow(const PairContext& ctx, const atm::SpliceSpec& s,
               SpliceStats& st) {
  ++st.slow_path;
  const SpliceOutcome o =
      evaluate_splice_reference(*ctx.cfg, *ctx.p1, *ctx.p2, s);
  if (o.caught_by_header) {
    ++st.caught_by_header;
    return;
  }
  classify(ctx, s.k1, (s.mask2 & 1u) != 0, o.identical, o.transport_pass,
           o.crc_pass, o.koopman_dual_pass, o.koopman_single_pass, st);
}

// ---------------------------------------------------------------------------
// Prefix-sharing DFS evaluator.
//
// Every splice that survives the AAL5 length check has exactly n2
// cells, so a kept cell's contribution to each check value depends
// only on its distance d from the last non-EOM position:
//
//   Internet   position-independent cell sum
//   Fletcher   a, and b + (48*d + eom_len) * a   (unrolling the
//              classic B += |block| * A recurrence over the suffix)
//   CRC-32     suffix_comb(d).advance(cell crc)  (advance past the d
//              trailing cells + 44 EOM bytes; XOR-combines because
//              the zeros-operator is linear over GF(2))
//
// so check values are plain sums/XORs of per-(cell, distance) terms
// plus pair constants, and splices sharing a prefix share its fold.
//
// The walk is split in two phases around the k1 + k2 = n2 - 1
// constraint. Phase 2 enumerates p2's kept subsets once, anchored to
// the END (the largest kept index sits at position e2-1), which makes
// a subset's fold independent of k1 — one pool of 2^e2 - 1 combos,
// bucketed by size, serves every phase-1 branch. Phase 1 walks p1's
// kept subsets (after the mandatory first cell) in ascending order and
// joins each node against the bucket with the matching k2; each
// pool/walk edge folds one cell.
//
// The join is residue-filtered. Every check is an equality of
// (node term + combo term) against a target under some modulus (XOR
// for the CRC), so each pooled combo is reduced once per pair to u32
// residues (JoinBucket) and each node turns the pair targets into the
// residues a combo would need to pass. A sweep of branch-free equality
// compares over the bucket flags the leaves that could pass a check
// or be identical — a necessary condition only; flagged leaves go
// through dfs_leaf/classify unchanged. Every other leaf is, by
// construction, non-identical with all checks failing, and is counted
// in bulk.
// ---------------------------------------------------------------------------

/// Accumulated contributions of the cells a DFS branch has chosen so
/// far (beyond the always-present first cell and EOM cell).
struct Agg {
  std::uint64_t inet = 0;
  std::uint64_t fa = 0;   ///< unreduced Fletcher A term
  std::uint64_t fb = 0;   ///< unreduced, distance-weighted B term
  std::uint64_t ka = 0;   ///< unreduced Koopman dual A term
  std::uint64_t kb = 0;   ///< unreduced, block-distance-weighted B term
  std::uint64_t ks = 0;   ///< unreduced Koopman single sum
  std::uint32_t crc = 0;  ///< XOR of distance-advanced per-cell CRCs
  bool eq1 = true;        ///< chosen cells match p1's at their position
  bool eq2 = true;        ///< chosen cells match p2's at their position
};

struct SuffixCombo {
  Agg agg;
  bool hdr2 = false;  ///< combo includes p2's header cell (cell 0)
};

/// Constants of one pair's DFS.
struct DfsPair {
  const PairContext* ctx = nullptr;
  const CellPartial* c1 = nullptr;
  const CellPartial* c2 = nullptr;
  unsigned e1 = 0, e2 = 0;
  std::uint64_t eom_len = 0;
  bool mod255 = false;
  bool track1 = false;       ///< n1 == n2: identical-to-p1 is possible
  bool ident1_base = false;  ///< track1 and EOM coverage matches p1's
  // Pair constants: first cell at position 0 plus the EOM cell.
  std::uint64_t iconst = 0;
  std::uint64_t fconst_a = 0, fconst_b = 0;
  // Koopman pair constants and targets: same two mandatory fragments,
  // with B weighted by trailing *block* count (6 per cell, 6 for the
  // EOM cell's 44 covered bytes). Targets are p2's whole-PDU sums.
  std::uint64_t kconst_a = 0, kconst_b = 0, ksconst = 0;
  alg::KoopmanDualPair kd_target{};
  std::uint64_t ks_target = 0;
  std::uint32_t crc_target = 0;
  std::uint16_t stored_canon = 0;
  /// Residue mod 65535 of the Internet sum that passes (stored_canon,
  /// negated when the stored field holds the complement).
  std::uint32_t inet_need = 0;
  SpliceStats* st = nullptr;
  /// Fold count for splice.dfs_nodes, flushed per pair. The pooled
  /// paths never touch it per fold — their counts are derived in
  /// closed form by evaluate_pair — so only suffix_exact (packets too
  /// large to pool; none under the default MTUs) increments it live.
  std::uint64_t* dfs_nodes = nullptr;
  /// Leaves classified in full by dfs_leaf, for splice.leaf_evals. The
  /// pooled join adds its hit count once per node, after the sweep.
  std::uint64_t* leaf_evals = nullptr;
};

#ifndef OBS_DISABLE
/// Folds performed by prefix_walk for a pair: one per nonempty subset
/// of p1's optional cells (indices 1..e1-1), pruned at depth e2-1 by
/// the `k1 + 1 > e2` guard, i.e. sum over d in [1, dmax] of
/// C(e1-1, d). Counting in closed form keeps the telemetry out of
/// fold(), the DFS inner loop; the cumulative sums are tabulated so
/// the per-pair cost is one lookup (n is bounded by kMaxSpliceCells,
/// and the row sums fit u64 up to n = 63).
std::uint64_t prefix_fold_count(unsigned e1, unsigned e2) {
  constexpr unsigned kMaxN = 64;
  // cum[n][d] = sum_{j=1}^{d} C(n, j), built by Pascal's rule.
  static const auto cum = [] {
    auto t = std::make_unique<
        std::array<std::array<std::uint64_t, kMaxN>, kMaxN>>();
    std::array<std::uint64_t, kMaxN> row{};  // C(n, j)
    for (unsigned n = 0; n < kMaxN; ++n) {
      for (unsigned j = n; j > 0; --j) row[j] += row[j - 1];
      row[0] = 1;
      std::uint64_t sum = 0;
      for (unsigned d = 0; d < kMaxN; ++d) {
        if (d > 0) sum += d <= n ? row[d] : 0;
        (*t)[n][d] = sum;
      }
    }
    return t;
  }();
  const unsigned n = std::min(e1 - 1, kMaxN - 1);
  const unsigned dmax = std::min({n, e2 - 1, kMaxN - 1});
  return (*cum)[n][dmax];
}
#endif

/// Fold one kept cell at splice position `pos` (>= 1) into `a`.
inline void fold(const DfsPair& fs, Agg& a, const CellPartial& c,
                 unsigned pos) {
  const unsigned d = fs.e2 - 1 - pos;
  a.inet += c.inet;
  const alg::FletcherPair& fp = fs.mod255 ? c.f255 : c.f256;
  a.fa += fp.a;
  a.fb += fp.b +
          (static_cast<std::uint64_t>(atm::kCellPayload) * d + fs.eom_len) *
              fp.a;
  // Koopman dual: the Fletcher recurrence at block grain — d trailing
  // cells of 6 blocks each plus the EOM cell's 6 covered blocks.
  a.ka += c.kd.a;
  a.kb += c.kd.b + kKoopmanBlocksPerCell * (d + 1ull) * c.kd.a;
  a.ks += c.ks;
  a.crc ^= suffix_comb(d).advance(c.crc);
  a.eq2 = a.eq2 && c.hash == fs.c2[pos].hash;
  if (fs.track1) a.eq1 = a.eq1 && c.hash == fs.c1[pos].hash;
}

void dfs_leaf(const DfsPair& fs, const Agg& a1, const SuffixCombo& c2,
              unsigned k1) {
  const PairContext& ctx = *fs.ctx;
  const bool identical = (fs.ident1_base && a1.eq1 && c2.agg.eq1) ||
                         (ctx.ident2_head && a1.eq2 && c2.agg.eq2);
  bool transport_pass;
  if (ctx.fletcher) {
    const std::uint32_t m = fs.mod255 ? 255u : 256u;
    const std::uint64_t fa = fs.fconst_a + a1.fa + c2.agg.fa;
    const std::uint64_t fb = fs.fconst_b + a1.fb + c2.agg.fb;
    transport_pass = (fa % m == 0) && (fb % m == 0);
  } else {
    std::uint64_t sum = fs.iconst + a1.inet + c2.agg.inet;
    while (sum >> 16) sum = (sum & 0xffffu) + (sum >> 16);
    const std::uint16_t content = static_cast<std::uint16_t>(sum);
    const std::uint16_t expect =
        ctx.cfg->invert_checksum ? alg::ones_neg(content) : content;
    transport_pass = fs.stored_canon == alg::ones_canonical(expect);
  }
  const bool crc_pass = (a1.crc ^ c2.agg.crc) == fs.crc_target;
  const bool kd_pass =
      (fs.kconst_a + a1.ka + c2.agg.ka) % alg::kKoopmanDualMod ==
          fs.kd_target.a &&
      (fs.kconst_b + a1.kb + c2.agg.kb) % alg::kKoopmanDualMod ==
          fs.kd_target.b;
  const bool ks_pass =
      (fs.ksconst + a1.ks + c2.agg.ks) % alg::kKoopmanSingleMod ==
      fs.ks_target;
  classify(ctx, k1, c2.hdr2, identical, transport_pass, crc_pass, kd_pass,
           ks_pass, *fs.st);
}

/// Phase 2: pool every way p2's non-EOM cells can fill the LAST r
/// splice positions, bucketed by r. Cells are chosen in descending
/// index order; choosing cell `idx` with r cells already placed puts
/// it at distance r from the end (position e2-1-r), so a combo's fold
/// never depends on k1 and one pool serves every phase-1 branch. Each
/// nonempty subset is emitted exactly once, on the edge that adds its
/// smallest-index cell last.
void suffix_pool(const DfsPair& fs, int from, unsigned r, const Agg& agg,
                 std::vector<std::vector<SuffixCombo>>& buckets) {
  const unsigned pos = fs.e2 - 1 - r;
  for (int idx = from; idx >= 0; --idx) {
    Agg a = agg;
    fold(fs, a, fs.c2[idx], pos);
    buckets[r + 1].push_back({a, idx == 0});
    if (r + 2 <= fs.e2 - 1 && idx > 0)
      suffix_pool(fs, idx - 1, r + 1, a, buckets);
  }
}

/// Sweep width of the leaf join: a fixed trip count lets the compiler
/// vectorize the compares without a scalar epilogue.
constexpr std::size_t kJoinBlock = 16;

/// One pooled size bucket as the leaf join sweeps it: per combo, the
/// u32 residues its check terms leave under each check's modulus,
/// padded with all-ones entries to a whole number of sweep blocks.
/// Padding is never classified; the all-ones residues can only equal
/// a node's CRC target, which costs one rescan of the block.
struct JoinBucket {
  /// Internet: inet mod 65535. Fletcher: (fa mod m) | (fb mod m) << 16.
  std::vector<std::uint32_t> tkey;
  std::vector<std::uint32_t> crc;
  /// (ka mod kKoopmanDualMod) | (kb mod kKoopmanDualMod) << 16.
  std::vector<std::uint32_t> kd;
  std::vector<std::uint32_t> ks;  ///< ks mod kKoopmanSingleMod
  std::vector<std::uint8_t> eq;   ///< bit 0: eq1, bit 1: eq2
  const SuffixCombo* combos = nullptr;  ///< the bucket, for flagged leaves
  std::size_t size = 0;
  std::uint64_t hdr2 = 0;  ///< combos holding p2's header cell
};

/// Residue mod M a combo term must leave for node term x to reach
/// target t: (t - x) mod M.
template <std::uint64_t M>
inline std::uint32_t need_mod(std::uint64_t t, std::uint64_t x) {
  return static_cast<std::uint32_t>((t % M + M - x % M) % M);
}

template <std::uint64_t M>
inline std::uint32_t pair_residue(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint32_t>(a % M | (b % M) << 16);
}

void build_join(const DfsPair& fs, const std::vector<SuffixCombo>& combos,
                JoinBucket& b) {
  const std::size_t n = combos.size();
  const std::size_t padded = (n + kJoinBlock - 1) / kJoinBlock * kJoinBlock;
  b.tkey.assign(padded, ~0u);
  b.crc.assign(padded, ~0u);
  b.kd.assign(padded, ~0u);
  b.ks.assign(padded, ~0u);
  b.eq.assign(padded, 0);
  b.combos = combos.data();
  b.size = n;
  b.hdr2 = 0;
  const bool fletcher = fs.ctx->fletcher;
  for (std::size_t i = 0; i < n; ++i) {
    const Agg& a = combos[i].agg;
    if (!fletcher) {
      b.tkey[i] = static_cast<std::uint32_t>(a.inet % 65535u);
    } else {
      b.tkey[i] = fs.mod255 ? pair_residue<255>(a.fa, a.fb)
                            : pair_residue<256>(a.fa, a.fb);
    }
    b.crc[i] = a.crc;
    b.kd[i] = pair_residue<alg::kKoopmanDualMod>(a.ka, a.kb);
    b.ks[i] = static_cast<std::uint32_t>(a.ks % alg::kKoopmanSingleMod);
    b.eq[i] = static_cast<std::uint8_t>((a.eq1 ? 1u : 0u) | (a.eq2 ? 2u : 0u));
    b.hdr2 += combos[i].hdr2 ? 1 : 0;
  }
}

/// Join the prefix node `a1` (k1 cells from p1) against its bucket.
/// The node's targets are the residues a combo must carry for each
/// check to pass (both halves of a pair sum packed into one word), plus
/// the identity bits that could still make the splice identical. Any
/// match sends the leaf to dfs_leaf, which decides it; the rest are
/// non-identical and fail every check.
void join_leaves(const DfsPair& fs, const Agg& a1, unsigned k1,
                 const JoinBucket& b) {
  constexpr std::uint64_t kd_mod = alg::kKoopmanDualMod;
  std::uint32_t t_tkey;
  if (!fs.ctx->fletcher) {
    t_tkey = need_mod<65535>(fs.inet_need, fs.iconst + a1.inet);
  } else if (fs.mod255) {
    t_tkey = need_mod<255>(0, fs.fconst_a + a1.fa) |
             need_mod<255>(0, fs.fconst_b + a1.fb) << 16;
  } else {
    t_tkey = need_mod<256>(0, fs.fconst_a + a1.fa) |
             need_mod<256>(0, fs.fconst_b + a1.fb) << 16;
  }
  const std::uint32_t t_crc = fs.crc_target ^ a1.crc;
  const std::uint32_t t_kd =
      need_mod<kd_mod>(fs.kd_target.a, fs.kconst_a + a1.ka) |
      need_mod<kd_mod>(fs.kd_target.b, fs.kconst_b + a1.kb) << 16;
  const std::uint32_t t_ks =
      need_mod<alg::kKoopmanSingleMod>(fs.ks_target, fs.ksconst + a1.ks);
  const std::uint8_t t_eq = static_cast<std::uint8_t>(
      (fs.ident1_base && a1.eq1 ? 1u : 0u) |
      (fs.ctx->ident2_head && a1.eq2 ? 2u : 0u));

  const std::uint32_t* tkey = b.tkey.data();
  const std::uint32_t* crc = b.crc.data();
  const std::uint32_t* kd = b.kd.data();
  const std::uint32_t* ks = b.ks.data();
  const std::uint8_t* eq = b.eq.data();
  const auto flagged = [&](std::size_t i) -> std::uint32_t {
    return static_cast<std::uint32_t>(tkey[i] == t_tkey) |
           static_cast<std::uint32_t>(crc[i] == t_crc) |
           static_cast<std::uint32_t>(kd[i] == t_kd) |
           static_cast<std::uint32_t>(ks[i] == t_ks) |
           static_cast<std::uint32_t>((eq[i] & t_eq) != 0);
  };

  std::uint64_t hits = 0, hits_hdr2 = 0;
  for (std::size_t base = 0; base < b.size; base += kJoinBlock) {
    std::uint32_t any = 0;
    for (std::size_t j = 0; j < kJoinBlock; ++j) any |= flagged(base + j);
    if (any == 0) continue;
    const std::size_t end = std::min(base + kJoinBlock, b.size);
    for (std::size_t i = base; i < end; ++i) {
      if (flagged(i) == 0) continue;
      dfs_leaf(fs, a1, b.combos[i], k1);
      ++hits;
      hits_hdr2 += b.combos[i].hdr2 ? 1 : 0;
    }
  }

  SpliceStats& st = *fs.st;
  const std::uint64_t misses = b.size - hits;
  const std::size_t n2 = fs.ctx->p2->cells.size();
  st.remaining += misses;
  st.fail_changed += misses;
  st.remaining_by_k[std::min<std::size_t>(n2 - k1, kMaxTrackedK - 1)] +=
      misses;
  st.remaining_with_hdr2 += b.hdr2 - hits_hdr2;
#ifndef OBS_DISABLE
  *fs.leaf_evals += hits;
#endif
}

/// Exact-size variant for packets too large to pool (2^e2 combos):
/// regrow the suffix per phase-1 node, still prefix-shared within it.
void suffix_exact(const DfsPair& fs, int from, unsigned need, unsigned r,
                  const Agg& a2, bool hdr2, const Agg& a1, unsigned k1) {
  if (r == need) {
#ifndef OBS_DISABLE
    ++*fs.leaf_evals;  // cold path, as dfs_nodes below
#endif
    dfs_leaf(fs, a1, {a2, hdr2}, k1);
    return;
  }
  const unsigned pos = fs.e2 - 1 - r;
  // idx+1 cells remain available below `idx`; prune branches that
  // cannot reach `need`.
  for (int idx = from; idx + 1 >= static_cast<int>(need - r); --idx) {
    Agg a = a2;
    fold(fs, a, fs.c2[idx], pos);
#ifndef OBS_DISABLE
    ++*fs.dfs_nodes;  // cold path: no closed form with the pruning
#endif
    suffix_exact(fs, idx - 1, need, r + 1, a, hdr2 || idx == 0, a1, k1);
  }
}

/// Packets whose suffix pool stays comfortably small (2^14 combos,
/// well under a megabyte of thread-local scratch). Larger packets —
/// none exist under the default MTUs — fall back to suffix_exact.
constexpr unsigned kMaxPooledSuffixCells = 14;

/// Phase 1: DFS over p1's kept cells after the mandatory first cell.
/// The node reached after choosing t cells (k1 = t+1) joins every
/// pooled suffix of size e2-k1 (`join`, indexed by k2; null when the
/// suffix is regrown by suffix_exact), then extends by each later
/// cell; a subset's fold happens once, on the edge adding its largest
/// index.
void prefix_walk(const DfsPair& fs, unsigned from, unsigned t, const Agg& agg,
                 const JoinBucket* join) {
  const unsigned k1 = t + 1;
  const unsigned k2 = fs.e2 - k1;
  if (join != nullptr) {
    join_leaves(fs, agg, k1, join[k2]);
  } else if (k2 == 0) {
#ifndef OBS_DISABLE
    ++*fs.leaf_evals;
#endif
    dfs_leaf(fs, agg, SuffixCombo{}, k1);
  } else {
    suffix_exact(fs, static_cast<int>(fs.e2) - 1, k2, 0, Agg{}, false, agg,
                 k1);
  }
  if (k1 + 1 > fs.e2) return;  // a longer prefix would force k2 < 0
  for (unsigned idx = from; idx < fs.e1; ++idx) {
    Agg a = agg;
    fold(fs, a, fs.c1[idx], t + 1);
    prefix_walk(fs, idx + 1, t + 1, a, join);
  }
}

// ---------------------------------------------------------------------------
// Flat (pre-DFS) per-splice evaluation — benchmark baseline and
// differential-test oracle.
// ---------------------------------------------------------------------------

void eval_fast_flat(const PairContext& ctx, const atm::SpliceSpec& s,
                    SpliceStats& st) {
  const SimPacket& p1 = *ctx.p1;
  const SimPacket& p2 = *ctx.p2;
  const unsigned first = static_cast<unsigned>(std::countr_zero(s.mask1));

  if (!ctx.hdr_ok[first]) {
    ++st.caught_by_header;
    ++st.fast_path;
    return;
  }
  if (first != 0) {
    // A data cell that nonetheless parses as a valid header: rare
    // enough to evaluate by materialisation.
    eval_slow(ctx, s, st);
    return;
  }
  ++st.fast_path;

  const std::size_t n1 = p1.cells.size();
  const std::size_t n2 = p2.cells.size();

  // Accumulators. Fletcher sums stay unreduced (they fit easily in 32
  // bits for tens of cells); Internet sum folds at the end.
  std::uint64_t inet = p1.tp.head_sum;
  const alg::FletcherPair& hf = ctx.mod255 ? p1.tp.head_f255 : p1.tp.head_f256;
  std::uint64_t fa = hf.a;
  std::uint64_t fb = hf.b;
  std::uint32_t crc = 0;
  // Koopman coverage is the raw PDU (minus the CRC field), so unlike
  // the transport sums it includes the position-0 cell's bytes.
  alg::KoopmanDualPair kd{};
  std::uint64_t ks = 0;
  bool ident2 = true;
  bool ident1 = (n1 == n2);
  std::size_t pos = 0;

  auto take = [&](const SimPacket& src, unsigned idx) {
    const CellPartial& c = src.cells[idx];
    crc = pos == 0 ? c.crc : comb48().combine(crc, c.crc);
    kd = alg::koopman_dual_combine(kd, c.kd, kKoopmanBlocksPerCell);
    ks += c.ks;
    ident2 = ident2 &&
             (pos == 0 ? ctx.ident2_head : c.hash == p2.cells[pos].hash);
    if (ident1) ident1 = c.hash == p1.cells[pos].hash;
    if (pos != 0) {
      inet += c.inet;
      const alg::FletcherPair& fp = ctx.mod255 ? c.f255 : c.f256;
      fb += static_cast<std::uint64_t>(atm::kCellPayload) * fa + fp.b;
      fa += fp.a;
    }
    ++pos;
  };

  for (std::uint32_t m = s.mask1; m != 0; m &= m - 1)
    take(p1, static_cast<unsigned>(std::countr_zero(m)));
  for (std::uint32_t m = s.mask2; m != 0; m &= m - 1)
    take(p2, static_cast<unsigned>(std::countr_zero(m)));

  // EOM cell: p2's last cell, always present. Identical-data
  // comparison covers only the in-datagram bytes of the EOM cell (the
  // AAL5 pad/trailer is not delivered data).
  {
    if (ident1) ident1 = p2.eom_cov_hash == p1.eom_cov_hash;
    inet += p2.tp.eom_sum;
    const alg::FletcherPair& fp = ctx.mod255 ? p2.tp.eom_f255 : p2.tp.eom_f256;
    fb += static_cast<std::uint64_t>(p2.tp.eom_len) * fa + fp.b;
    fa += fp.a;
    crc = comb44().combine(crc, p2.crc_head44);
    kd = alg::koopman_dual_combine(kd, p2.eom_kd,
                                   alg::koopman_block_count(44));
    ks += p2.eom_ks;
  }

  bool transport_pass;
  if (ctx.fletcher) {
    const std::uint32_t m = ctx.mod255 ? 255u : 256u;
    transport_pass = (fa % m == 0) && (fb % m == 0);
  } else {
    const std::uint16_t content = [&] {
      std::uint64_t sum = inet;
      while (sum >> 16) sum = (sum & 0xffffu) + (sum >> 16);
      return static_cast<std::uint16_t>(sum);
    }();
    const std::uint16_t stored =
        ctx.header_placement ? p1.tp.stored : p2.tp.stored;
    const std::uint16_t expect =
        ctx.cfg->invert_checksum ? alg::ones_neg(content) : content;
    transport_pass =
        alg::ones_canonical(stored) == alg::ones_canonical(expect);
  }

  const bool crc_pass = crc == p2.stored_crc;
  const bool kd_pass = kd == p2.kd_pdu;
  const bool ks_pass = ks % alg::kKoopmanSingleMod == p2.ks_pdu;
  classify(ctx, s.k1, (s.mask2 & 1u) != 0, ident1 || ident2, transport_pass,
           crc_pass, kd_pass, ks_pass, st);
}

PairContext make_pair_context(const net::PacketConfig& cfg, const SimPacket& p1,
                              const SimPacket& p2,
                              std::vector<std::uint8_t>& hdr_scratch) {
  PairContext ctx;
  ctx.cfg = &cfg;
  ctx.p1 = &p1;
  ctx.p2 = &p2;
  ctx.fletcher = cfg.transport != alg::Algorithm::kInternet;
  ctx.mod255 = cfg.transport == alg::Algorithm::kFletcher255;
  ctx.header_placement = cfg.placement == net::ChecksumPlacement::kHeader;
  ctx.hdr_ok = pair_hdr_ok(cfg, p1, p2, hdr_scratch);
  ctx.ident2_head = header_cells_match(cfg, p1, p2);
  return ctx;
}

}  // namespace

SpliceOutcome evaluate_splice_reference(const net::PacketConfig& cfg,
                                        const SimPacket& p1,
                                        const SimPacket& p2,
                                        const atm::SpliceSpec& splice) {
  SpliceOutcome out;
  const util::Bytes bytes = atm::materialize_splice(p1.pdu, p2.pdu, splice);
  const atm::Aal5Trailer trailer = atm::parse_trailer(util::ByteView(bytes));
  const std::size_t len = trailer.length;

  if (net::check_headers(util::ByteView(bytes), len,
                         cfg.fill_ip_header && !cfg.legacy95_headers,
                         cfg.legacy95_headers) != net::HeaderCheck::kOk) {
    out.caught_by_header = true;
    return out;
  }

  // "Identical data" compares the delivered IP datagram (the first
  // `len` bytes) with the transport check field excluded. The AAL5
  // pad/trailer is reassembly framing, not data, and the check field
  // is not data either: §5.3's trailer analysis counts a splice whose
  // *payload* reproduces packet 1 as identical even though it carries
  // packet 2's trailer checksum (and is therefore rejected — a benign
  // false positive, Table 10).
  std::size_t skip_at = len;  // offset of the 2 excluded bytes
  if (cfg.placement == net::ChecksumPlacement::kHeader) {
    skip_at = net::kIpv4HeaderLen + 16;
  } else if (len >= net::kTrailerCheckLen) {
    skip_at = len - net::kTrailerCheckLen;
  }
  const auto datagram_equal = [&](const SimPacket& p) {
    if (p.total_len != len) return false;
    const util::ByteView a(bytes.data(), len);
    const util::ByteView b = p.pdu.bytes().first(len);
    for (std::size_t i = 0; i < len; ++i) {
      if (i == skip_at) {
        ++i;  // skip both check bytes
        continue;
      }
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  out.identical = datagram_equal(p2) || datagram_equal(p1);
  out.transport_pass =
      net::verify_transport_checksum(cfg, util::ByteView(bytes).first(len));
  out.crc_pass = atm::crc_ok(util::ByteView(bytes));
  // Koopman sums share the AAL5 CRC's coverage; "pass" means the
  // splice reproduces packet 2's stored-in-our-model sums (the splice
  // carries p2's trailer, so p2's whole-PDU values are the targets).
  const util::ByteView kcov(bytes.data(), bytes.size() - 4);
  out.koopman_dual_pass = alg::kern::koopman_dual(kcov) == p2.kd_pdu;
  out.koopman_single_pass = alg::kern::koopman_single(kcov) == p2.ks_pdu;
  return out;
}

void SpliceStats::merge(const SpliceStats& o) {
  files += o.files;
  packets += o.packets;
  pairs += o.pairs;
  total += o.total;
  caught_by_header += o.caught_by_header;
  identical += o.identical;
  remaining += o.remaining;
  missed_crc += o.missed_crc;
  missed_transport += o.missed_transport;
  missed_both += o.missed_both;
  missed_koopman_dual += o.missed_koopman_dual;
  missed_koopman_single += o.missed_koopman_single;
  fail_identical += o.fail_identical;
  pass_identical += o.pass_identical;
  fail_changed += o.fail_changed;
  pass_changed += o.pass_changed;
  remaining_with_hdr2 += o.remaining_with_hdr2;
  missed_with_hdr2 += o.missed_with_hdr2;
  for (std::size_t i = 0; i < kMaxTrackedK; ++i) {
    remaining_by_k[i] += o.remaining_by_k[i];
    missed_by_k[i] += o.missed_by_k[i];
  }
  slow_path += o.slow_path;
  fast_path += o.fast_path;
}

void evaluate_pair(const net::PacketConfig& cfg, const SimPacket& p1,
                   const SimPacket& p2, SpliceStats& stats) {
  SpliceObsFlush obs_flush(stats);
  ++stats.pairs;
  const std::size_t n1 = p1.pdu.num_cells();
  const std::size_t n2 = p2.pdu.num_cells();
  if (n1 < 2 || n2 < 1) return;

  const std::uint64_t total_pair = atm::splice_count(n1, n2);
  if (total_pair == 0) return;
  stats.total += total_pair;

  std::vector<std::uint8_t> hdr_scratch;
  const PairContext ctx = make_pair_context(cfg, p1, p2, hdr_scratch);

  if (!p2.fast_path_ok) {
    atm::for_each_splice(
        n1, n2, [&](const atm::SpliceSpec& s) { eval_slow(ctx, s, stats); });
    return;
  }

  // Header gate, taken per subtree instead of per splice: all splices
  // starting at cell i share its header verdict, so a failing subtree
  // is counted wholesale and a passing one with i > 0 (a data cell
  // that happens to parse as a header — rare) goes to the slow path.
  const std::size_t e1 = n1 - 1;
  bool any_slow = false;
  for (std::size_t i = 0; i < e1; ++i) {
    const std::uint64_t sub = atm::splice_count_first_cell(n1, n2, i);
    if (!ctx.hdr_ok[i]) {
      stats.caught_by_header += sub;
      stats.fast_path += sub;
    } else if (i != 0) {
      any_slow = true;
    } else {
      stats.fast_path += sub;
    }
  }
  if (any_slow) {
    atm::for_each_splice(n1, n2, [&](const atm::SpliceSpec& s) {
      const unsigned first = static_cast<unsigned>(std::countr_zero(s.mask1));
      if (first != 0 && ctx.hdr_ok[first]) eval_slow(ctx, s, stats);
    });
  }
  if (!ctx.hdr_ok[0]) return;  // the whole DFS subtree was bulk-counted

  DfsPair fs;
  fs.ctx = &ctx;
  fs.c1 = p1.cells.data();
  fs.c2 = p2.cells.data();
  fs.e1 = static_cast<unsigned>(e1);
  fs.e2 = static_cast<unsigned>(n2 - 1);
  fs.eom_len = p2.tp.eom_len;
  fs.mod255 = ctx.mod255;
  fs.track1 = n1 == n2;
  fs.ident1_base = fs.track1 && p2.eom_cov_hash == p1.eom_cov_hash;
  fs.iconst = static_cast<std::uint64_t>(p1.tp.head_sum) + p2.tp.eom_sum;
  {
    const alg::FletcherPair& hf =
        ctx.mod255 ? p1.tp.head_f255 : p1.tp.head_f256;
    const alg::FletcherPair& ef = ctx.mod255 ? p2.tp.eom_f255 : p2.tp.eom_f256;
    fs.fconst_a = static_cast<std::uint64_t>(hf.a) + ef.a;
    fs.fconst_b =
        static_cast<std::uint64_t>(hf.b) + ef.b +
        (static_cast<std::uint64_t>(atm::kCellPayload) * (fs.e2 - 1) +
         fs.eom_len) *
            hf.a;
  }
  fs.crc_target = p2.stored_crc ^ p2.crc_head44 ^
                  suffix_comb(fs.e2 - 1).advance(p1.cells[0].crc);
  // Koopman constants: p1's mandatory first cell (6*e2 blocks follow
  // it) plus p2's EOM fragment (nothing follows). Targets are p2's
  // whole-PDU sums — the splice carries p2's trailer.
  fs.kconst_a = p1.cells[0].kd.a + p2.eom_kd.a;
  fs.kconst_b = static_cast<std::uint64_t>(p1.cells[0].kd.b) +
                kKoopmanBlocksPerCell * static_cast<std::uint64_t>(fs.e2) *
                    p1.cells[0].kd.a +
                p2.eom_kd.b;
  fs.ksconst = p1.cells[0].ks + p2.eom_ks;
  fs.kd_target = p2.kd_pdu;
  fs.ks_target = p2.ks_pdu;
  fs.stored_canon = alg::ones_canonical(ctx.header_placement ? p1.tp.stored
                                                             : p2.tp.stored);
  fs.inet_need = cfg.invert_checksum ? (65535u - fs.stored_canon) % 65535u
                                     : fs.stored_canon;
  fs.st = &stats;
  fs.dfs_nodes = &obs_flush.dfs_nodes;
  fs.leaf_evals = &obs_flush.leaf_evals;

  if (fs.e2 <= kMaxPooledSuffixCells) {
    thread_local std::vector<std::vector<SuffixCombo>> buckets;
    if (buckets.size() < fs.e2) buckets.resize(fs.e2);
    for (auto& b : buckets) b.clear();
    buckets[0].push_back(SuffixCombo{});  // k2 = 0: only p2's EOM
    if (fs.e2 >= 2)
      suffix_pool(fs, static_cast<int>(fs.e2) - 1, 0, Agg{}, buckets);
#ifndef OBS_DISABLE
    // Every pool entry past the seeded k2 = 0 one cost exactly one
    // fold; the prefix side has a closed form. Summing here keeps the
    // DFS itself free of telemetry.
    for (std::size_t r = 1; r < buckets.size(); ++r)
      obs_flush.dfs_nodes += buckets[r].size();
    obs_flush.dfs_nodes += prefix_fold_count(fs.e1, fs.e2);
#endif
    // One SoA residue image per bucket, reduced once per pair and
    // swept by every prefix node that joins it.
    thread_local std::vector<JoinBucket> join;
    if (join.size() < fs.e2) join.resize(fs.e2);
    for (unsigned r = 0; r < fs.e2; ++r) build_join(fs, buckets[r], join[r]);
    prefix_walk(fs, 1, 0, Agg{}, join.data());
  } else {
#ifndef OBS_DISABLE
    obs_flush.dfs_nodes += prefix_fold_count(fs.e1, fs.e2);
#endif
    prefix_walk(fs, 1, 0, Agg{}, nullptr);
  }
}

void evaluate_pair_flat(const net::PacketConfig& cfg, const SimPacket& p1,
                        const SimPacket& p2, SpliceStats& stats) {
  SpliceObsFlush obs_flush(stats);
  ++stats.pairs;
  const std::size_t n1 = p1.pdu.num_cells();
  const std::size_t n2 = p2.pdu.num_cells();
  if (n1 < 2 || n2 < 1) return;
  atm::check_splice_cells(n1, n2);

  std::vector<std::uint8_t> hdr_scratch;
  const PairContext ctx = make_pair_context(cfg, p1, p2, hdr_scratch);
  const bool fast = p2.fast_path_ok;

  atm::for_each_splice(n1, n2, [&](const atm::SpliceSpec& s) {
    ++stats.total;
    if (fast) {
      eval_fast_flat(ctx, s, stats);
    } else {
      eval_slow(ctx, s, stats);
    }
  });
}

namespace {

/// Compress (optionally) and packetize one file — shared by the
/// sequential and work-stealing paths.
std::vector<SimPacket> prepare_file(const SpliceRunConfig& cfg,
                                    util::ByteView file) {
  obs::ScopedTimer timer(smx().packetize_ns);
  util::Bytes compressed;
  if (cfg.compress_files) {
    compressed = compress::lzw_compress(file);
    file = util::ByteView(compressed);
  }
  return packetize_file(cfg.flow, file);
}

/// Evaluate the adjacent pairs [first, last) of `pkts` as one timed
/// chunk — a claimed chunk in the work-stealing path, a whole file in
/// the sequential one.
void evaluate_chunk(const SpliceRunConfig& cfg,
                    const std::vector<SimPacket>& pkts, std::size_t first,
                    std::size_t last, SpliceStats& st) {
  obs::ScopedTimer timer(smx().chunk_ns);
  for (std::size_t j = first; j < last; ++j)
    evaluate_pair(cfg.flow.packet, pkts[j], pkts[j + 1], st);
}

}  // namespace

void register_splice_metrics() { (void)smx(); }

SpliceStats run_file(const SpliceRunConfig& cfg, util::ByteView file) {
  SpliceStats st;
  const std::vector<SimPacket> pkts = prepare_file(cfg, file);
  st.files = 1;
  st.packets = pkts.size();
  smx().files.add(1);
  smx().packets.add(pkts.size());
  for (std::size_t i = 0; i + 1 < pkts.size(); ++i)
    evaluate_pair(cfg.flow.packet, pkts[i], pkts[i + 1], st);
  return st;
}

SpliceStats run_filesystem(const SpliceRunConfig& cfg,
                           const fsgen::Filesystem& fs) {
  return run_filesystem_range(cfg, fs, 0, fs.file_count());
}

namespace {

/// The scheduler behind run_filesystem_range and run_corpus_range.
/// `load(i)` produces file i's SimPackets — by generate + packetize
/// for a fsgen source, by memcpy reconstruction for a corpus store —
/// and the rest of the machinery (sequential loop or pair-granular
/// work stealing) is source-agnostic. Every SpliceStats counter is
/// additive, so the merged result is bitwise identical for any thread
/// count, interleaving, or source representation of the same corpus.
template <typename Loader>
SpliceStats run_range_impl(const SpliceRunConfig& cfg, Loader&& load,
                           std::size_t begin, std::size_t end) {
  unsigned threads = cfg.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t nfiles = end > begin ? end - begin : 0;
  const SpliceMetrics& mx = smx();

  if (threads <= 1 || nfiles == 0) {
    SpliceStats st;
    for (std::size_t i = begin; i < end; ++i) {
      const std::vector<SimPacket> pkts = load(i);
      st.files += 1;
      st.packets += pkts.size();
      mx.files.add(1);
      mx.packets.add(pkts.size());
      evaluate_chunk(cfg, pkts, 0, pkts.empty() ? 0 : pkts.size() - 1, st);
    }
    return st;
  }

  // Pair-granular work stealing: whichever worker claims a file
  // loads it once, then its adjacent-pair range is carved into
  // fixed chunks that any idle worker can steal, so one large file no
  // longer serialises the run.
  struct FileWork {
    std::vector<SimPacket> pkts;
    std::atomic<std::size_t> next_pair{0};
    std::size_t pair_count = 0;
    unsigned owner = 0;  ///< worker that packetized it (steal counting)
  };
  constexpr std::size_t kPairChunk = 8;

  std::vector<SpliceStats> partial(threads);
  std::atomic<std::size_t> next_file{begin};
  std::atomic<unsigned> packetizing{0};
  std::mutex mu;  // guards `open`
  std::vector<std::shared_ptr<FileWork>> open;

  auto worker = [&](unsigned t) {
    SpliceStats& st = partial[t];
    for (;;) {
      // 1) Steal a pair chunk from any open file.
      std::shared_ptr<FileWork> fw;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = open.begin(); it != open.end();) {
          if ((*it)->next_pair.load(std::memory_order_relaxed) >=
              (*it)->pair_count) {
            mx.sched_open_files.sub(1);
            it = open.erase(it);  // drained; in-flight chunks hold refs
          } else {
            fw = *it;
            break;
          }
        }
      }
      if (fw != nullptr) {
        const std::size_t first = fw->next_pair.fetch_add(kPairChunk);
        const std::size_t last =
            std::min(first + kPairChunk, fw->pair_count);
        if (first < last) {
          mx.sched_chunks.add(1);
          if (fw->owner != t) mx.sched_steals.add(1);
          evaluate_chunk(cfg, fw->pkts, first, last, st);
        }
        continue;
      }
      // 2) No open pairs: claim and packetize the next file. The
      //    in-flight counter keeps step 3 from declaring victory while
      //    a file is being opened. (Bumped before the claim so a
      //    racing worker can never observe files-exhausted with the
      //    counter already back at zero.)
      packetizing.fetch_add(1);
      const std::size_t i = next_file.fetch_add(1);
      if (i < end) {
        auto work = std::make_shared<FileWork>();
        work->pkts = load(i);
        work->owner = t;
        st.files += 1;
        st.packets += work->pkts.size();
        mx.sched_files.add(1);
        mx.files.add(1);
        mx.packets.add(work->pkts.size());
        if (work->pkts.size() >= 2) {
          work->pair_count = work->pkts.size() - 1;
          mx.sched_open_files.add(1);
          std::lock_guard<std::mutex> lock(mu);
          open.push_back(std::move(work));
        }
        packetizing.fetch_sub(1);
        continue;
      }
      packetizing.fetch_sub(1);
      // 3) Files exhausted: done once no file is mid-packetize and no
      //    open file has unclaimed pairs.
      if (packetizing.load() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        bool pending = false;
        for (const auto& w : open) {
          if (w->next_pair.load(std::memory_order_relaxed) < w->pair_count) {
            pending = true;
            break;
          }
        }
        if (!pending) return;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  SpliceStats st;
  for (const auto& p : partial) st.merge(p);
  return st;
}

}  // namespace

SpliceStats run_filesystem_range(const SpliceRunConfig& cfg,
                                 const fsgen::Filesystem& fs,
                                 std::size_t begin, std::size_t end) {
  end = std::min(end, fs.file_count());
  begin = std::min(begin, end);
  return run_range_impl(
      cfg,
      [&](std::size_t i) {
        const util::Bytes file = [&] {
          obs::ScopedTimer timer(smx().generate_ns);
          return fs.file(i);
        }();
        return prepare_file(cfg, util::ByteView(file));
      },
      begin, end);
}

SpliceStats run_corpus(const SpliceRunConfig& cfg,
                       const fsgen::CorpusReader& corpus) {
  return run_corpus_range(cfg, corpus, 0, corpus.file_count());
}

SpliceStats run_corpus_range(const SpliceRunConfig& cfg,
                             const fsgen::CorpusReader& corpus,
                             std::size_t begin, std::size_t end) {
  end = std::min(end, corpus.file_count());
  begin = std::min(begin, end);
  // Advisory readahead over exactly the SoA slices this range touches:
  // a dist worker streams each lease shard from a cold page cache, so
  // asking for the pages up front overlaps I/O with reconstruction.
  corpus.advise_will_need(begin, end);
  return run_range_impl(
      cfg,
      [&](std::size_t i) {
        // The reconstruction cost lands in the same timing histogram
        // as packetisation so the two sources are directly comparable
        // in exported manifests.
        obs::ScopedTimer timer(smx().packetize_ns);
        return corpus.file_packets(i);
      },
      begin, end);
}

}  // namespace cksum::core
