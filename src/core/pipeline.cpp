#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "check/invariants.hpp"
#include "core/memory_model.hpp"
#include "core/packed_ingest.hpp"
#include "core/plan.hpp"
#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/scanner.hpp"
#include "kmer/superkmer.hpp"
#include "mpsim/comm.hpp"
#include "obs/attr.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "part/part.hpp"
#include "sort/radix.hpp"
#include "util/buffer_pool.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/memusage.hpp"
#include "util/prefix_sum.hpp"
#include "util/session.hpp"
#include "util/thread_team.hpp"

namespace metaprep::core {

namespace {

using util::StepTimes;
using util::ThreadTeam;
using util::WallTimer;

/// Tuple buffers in SoA layout.  keys_hi is used only for k > 32 ("wide"):
/// the 12-byte tuple becomes the paper's 20-byte tuple (§4.4).  `leased`
/// marks arrays that are out on lease from the run's BufferPool.
struct TupleBuffer {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> keys_hi;
  std::vector<std::uint32_t> vals;
  bool leased = false;

  [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

/// The tuple arrays one rank leases from its BufferPool, under either
/// exchange codec.  Leases are tagged "tuples" for memory attribution; the
/// peak of the live leased bytes, plus whatever a codec holds beside them,
/// is the rank's max_buffer_bytes.
class TupleLeases {
 public:
  TupleLeases(util::BufferPool& pool, bool wide, std::uint64_t& peak)
      : pool_(pool), wide_(wide), peak_(peak) {}

  TupleBuffer acquire(std::size_t n) {
    const obs::MemScope tuples_scope("tuples");  // tags the pool leases below
    TupleBuffer b;
    b.leased = true;
    b.keys = pool_.acquire_u64(n);
    if (wide_) b.keys_hi = pool_.acquire_u64(n);
    b.vals = pool_.acquire_u32(n);
    live_ += bytes_of(n);
    note_peak(0);
    return b;
  }

  /// Return @p b's arrays to the pool; @p b is left empty and unleased.
  void release(TupleBuffer& b) {
    const obs::MemScope tuples_scope("tuples");
    live_ -= bytes_of(b.size());
    pool_.release(std::move(b.keys));
    // keys_hi is only leased for wide keys; releasing the empty vector would
    // (correctly) trip the pool's double-release check.
    if (wide_) pool_.release(std::move(b.keys_hi));
    pool_.release(std::move(b.vals));
    b = TupleBuffer{};
  }

  /// Raise the peak to the live leases plus @p beside bytes held next to
  /// them (super-k-mer streams or messages).
  void note_peak(std::uint64_t beside) { peak_ = std::max(peak_, live_ + beside); }

 private:
  [[nodiscard]] std::uint64_t bytes_of(std::size_t n) const { return n * (wide_ ? 20ull : 12ull); }

  util::BufferPool& pool_;
  const bool wide_;
  std::uint64_t& peak_;
  std::uint64_t live_ = 0;
};

/// counts[i] += sum of row[b] for b in [bounds[i], bounds[i+1]), computed in
/// one scan over the row's relevant bin range.
void accumulate_bounded_counts(const std::uint32_t* row,
                               std::span<const std::uint32_t> bounds,
                               std::span<std::uint64_t> counts) {
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::uint32_t b = bounds[i]; b < bounds[i + 1]; ++b) acc += row[b];
    counts[i] += acc;
  }
}

/// Lookup table bin -> part index for a boundary vector covering
/// [bounds.front(), bounds.back()).
std::vector<std::uint16_t> bin_owner_table(std::span<const std::uint32_t> bounds) {
  const std::uint32_t lo = bounds.front();
  const std::uint32_t hi = bounds.back();
  std::vector<std::uint16_t> table(hi - lo, 0);
  for (std::size_t part = 0; part + 1 < bounds.size(); ++part) {
    for (std::uint32_t b = bounds[part]; b < bounds[part + 1]; ++b) {
      table[b - lo] = static_cast<std::uint16_t>(part);
    }
  }
  return table;
}

/// Read-ID sentinel carried by tuples that pad under-filled send blocks
/// (lenient parsing skipped records the chunk histograms had counted).
/// LocalCC treats it as absent: it neither counts toward its k-mer's
/// frequency nor breaks the edge chain between the reads around it.
constexpr std::uint32_t kInvalidRead = 0xFFFFFFFFu;

struct RankShared {
  StepTimes times;
  int cc_iterations = 0;
  std::uint64_t tuples = 0;
  std::uint64_t max_buffer_bytes = 0;
  std::uint64_t merge_comm_bytes = 0;
  /// CC-I/O files each of this rank's threads wrote, with their output slot.
  std::vector<std::vector<std::pair<part::BinFile, std::uint16_t>>> written;
  std::vector<obs::RssSample> rss_samples;    ///< rank 0 only: peak RSS per phase boundary
  std::uint64_t records_skipped = 0;  ///< distinct records lenient parsing dropped
                                      ///< (first KmerGen sweep over this rank's chunks)
  // Exchange-compression accounting (--comm-compress; see PipelineResult).
  std::uint64_t exchange_bytes = 0;      ///< cross-rank KmerGen-Comm bytes shipped
  std::uint64_t exchange_bytes_raw = 0;  ///< uncompressed-equivalent of the same traffic
  std::uint64_t superkmer_records = 0;   ///< wire records this rank emitted
};

/// Everything a rank's pass engine and its exchange codec need.
struct PassCtx {
  const DatasetIndex& index;
  const MetaprepConfig& config;
  const PassPlan& plan;
  const ChunkAssignment& ca;
  mpsim::Comm& comm;
  ThreadTeam& team;
  dsu::AtomicDSU& local_cc;
  RankShared& my;
  /// Non-null in --read-store=packed runs: the mmap'd 2-bit arena KmerGen
  /// scans instead of re-reading FASTQ text each pass.
  const io::PackedStore* packed;
  int p, P, T, S;
  int k = config.k, m = index.mer_hist.m;
  bool wide = k > kmer::kMaxK64;
  // The run session's sinks; hot-path handles are resolved once per rank
  // (a registry lookup takes a mutex).
  obs::TraceSession& tr = obs::TraceSession::current();
  obs::Counter& m_tuples = obs::metrics().counter("pipeline.tuples_total");
  obs::Counter& m_cc_edges = obs::metrics().counter("pipeline.cc_edges_total");
  obs::Gauge& m_rss = obs::metrics().gauge("mem.rss_peak");
  obs::Gauge& m_peak = obs::metrics().gauge("proc.peak_rss_bytes");
};

/// One step's wall on this rank: a trace span named after the step plus
/// the matching StepTimes entry, both closed when the scope ends.
class StepScope {
 public:
  StepScope(StepTimes& times, const char* step) : span_(step), timer_(times, step) {}

 private:
  obs::TraceSpan span_;
  util::ScopedStepTimer timer_;
};

/// Manual span markers for steps whose lifetime doesn't match a C++ scope.
inline double span_begin(obs::TraceSession& tr) { return tr.enabled() ? tr.now_us() : -1.0; }
inline void span_end(obs::TraceSession& tr, const char* name, double t0) {
  if (t0 >= 0.0) tr.record(name, t0, tr.now_us() - t0);
}

/// Phase boundary (ISSUE satellite: per-phase RSS growth).  Records the
/// process peak RSS into the proc.peak_rss_bytes gauge and — on rank 0 of a
/// traced run — appends an (phase, peak) sample for the attribution report.
/// Collapses to two relaxed loads when neither tracing nor metrics are on.
void phase_boundary(PassCtx& ctx, const char* phase) {
  if (!ctx.tr.enabled() && !obs::metrics().enabled()) return;
  const std::uint64_t peak = util::peak_rss_bytes();
  if (peak == 0) return;  // /proc unavailable
  ctx.m_peak.set_max(static_cast<double>(peak));
  if (ctx.p == 0 && ctx.tr.enabled()) ctx.my.rss_samples.push_back({phase, peak});
}

/// Passes per chunk sweep (the pass engines' group size G): 1 for the
/// paper's barrier schedule, 2 for overlap.
int group_size(const MetaprepConfig& config) {
  return config.pipeline_mode == PipelineMode::kOverlap ? 2 : 1;
}

/// Progress line updates happen on rank 0 only (the phases are globally
/// synchronized by the exchange anyway, so rank 0's view is representative).
inline void progress_phase(const PassCtx& ctx, const char* phase) {
  if (ctx.p == 0) obs::Progress::global().phase(phase);
}

/// fn(km, pos) for every canonical k-mer of one record (a text sequence, or
/// a packed-store record); km is a std::uint64_t for k <= 32 and a
/// kmer::Kmer128 above.
template <typename Fn>
void for_each_record_kmer(std::string_view seq, int k, bool wide, Fn&& fn) {
  if (!wide) {
    kmer::for_each_canonical_kmer64(seq, k, fn);
  } else {
    kmer::for_each_canonical_kmer128(seq, k, fn);
  }
}
template <typename Fn>
void for_each_record_kmer(const io::PackedStore::Record& rec, int k, bool wide, Fn&& fn) {
  if (!wide) {
    kmer::for_each_canonical_kmer64_packed(rec.words, rec.len, rec.npos, rec.ncount, k, fn);
  } else {
    kmer::for_each_canonical_kmer128_packed(rec.words, rec.len, rec.npos, rec.ncount, k, fn);
  }
}

/// Store the tuple (km, value) at slot @p at of @p b.
inline void put_tuple(TupleBuffer& b, std::uint64_t at, std::uint64_t km, std::uint32_t value) {
  b.keys[at] = km;
  b.vals[at] = value;
}
inline void put_tuple(TupleBuffer& b, std::uint64_t at, kmer::Kmer128 km, std::uint32_t value) {
  b.keys[at] = km.lo;
  b.keys_hi[at] = km.hi;
  b.vals[at] = value;
}

/// One chunk's record stream for the pass engine's KmerGen.  Text
/// mode reads the chunk's byte range and parses it; packed mode walks the
/// arena's record range for the chunk — same records, same order, same read
/// IDs, so the emitted stream is bit-identical.  Per record: value =
/// find(read_id) under the §3.5.1 substitution, then rec_fn(value, seq) with
/// the text sequence or rec_fn(value, rec) with the packed record.
/// @p io_s and @p gen_s accumulate the KmerGen-I/O and KmerGen step walls
/// for this thread.  Returns the records handed to rec_fn and the
/// lenient-parse skips this scan observed (always 0 in packed mode: ingest
/// already recorded them in the arena).
template <typename RecFn>
io::BufferParseStats scan_chunk_records(PassCtx& ctx, std::uint32_t c, bool substitute,
                                        double& io_s, double& gen_s, RecFn&& rec_fn) {
  util::throw_if_cancelled(ctx.config.cancel_token, "KmerGen chunk");
  const DatasetIndex& index = ctx.index;
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  io::BufferParseStats stats;
  if (ctx.packed != nullptr) {
    const io::PackedStore& ps = *ctx.packed;
    WallTimer gen_timer;
    const double gen_t0 = span_begin(ctx.tr);
    for (std::uint64_t r = ps.chunk_begin(c), e = ps.chunk_end(c); r < e; ++r) {
      const io::PackedStore::Record rec = ps.record(r);
      const std::uint32_t value = substitute ? local_cc.find(rec.read_id) : rec.read_id;
      rec_fn(value, rec);
    }
    stats.records = ps.chunk_end(c) - ps.chunk_begin(c);
    span_end(ctx.tr, "KmerGen", gen_t0);
    gen_s += gen_timer.seconds();
  } else {
    const ChunkRecord& chunk = index.part.chunks[c];
    WallTimer io_timer;
    const double io_t0 = span_begin(ctx.tr);
    const auto buffer =
        io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
    span_end(ctx.tr, "KmerGen-I/O", io_t0);
    const obs::MemCharge io_mem("io", buffer.size());
    io_s += io_timer.seconds();

    WallTimer gen_timer;
    const double gen_t0 = span_begin(ctx.tr);
    std::uint32_t read_id = chunk.first_read_id;
    io::ParseOptions popt{ctx.config.parse_mode, index.files[chunk.file], chunk.offset,
                          [&read_id] { ++read_id; }};
    stats = io::for_each_record_in_buffer(
        std::string_view(buffer.data(), buffer.size()),
        [&](std::string_view, std::string_view seq, std::string_view) {
          // LocalCC-Opt (§3.5.1): from pass 2 on, enumerate the component
          // ID instead of the read ID for better locality.
          const std::uint32_t value = substitute ? local_cc.find(read_id) : read_id;
          rec_fn(value, seq);
          ++read_id;
        },
        popt);
    span_end(ctx.tr, "KmerGen", gen_t0);
    gen_s += gen_timer.seconds();
  }
  obs::Progress::global().chunk_done();
  return stats;
}

// ---------------------------------------------------------------------------
// LocalSort + LocalCC (§3.4-§3.5), shared by both codecs.  A codec
// delivers one pass's tuples into T dest-thread regions
// [region_start[t], region_start[t+1]), each ordered by (src rank, src
// thread, generation order).  Both sorts are stable, so the sorted
// sequence — and with it every union LocalCC performs — depends only on
// that order.
// ---------------------------------------------------------------------------

/// Stable sort of tuples[lo, hi), scratch[lo, hi) as the out-of-place
/// buffer: the two-level bin sort for k <= 32, the 128-bit LSD above, both
/// with the paper's 8-bit digit (§3.4).
constexpr int kSortDigitBits = 8;

void sort_region(const PassCtx& ctx, TupleBuffer& tuples, TupleBuffer& scratch,
                 std::uint64_t lo, std::uint64_t hi) {
  const std::size_t n = hi - lo;
  if (n == 0) return;
  if (!ctx.wide) {
    sort::two_level_sort_kv64(std::span(tuples.keys).subspan(lo, n),
                              std::span(tuples.vals).subspan(lo, n),
                              std::span(scratch.keys).subspan(lo, n),
                              std::span(scratch.vals).subspan(lo, n), kSortDigitBits);
  } else {
    sort::radix_sort_kv128(std::span(tuples.keys_hi).subspan(lo, n),
                           std::span(tuples.keys).subspan(lo, n),
                           std::span(tuples.vals).subspan(lo, n),
                           std::span(scratch.keys_hi).subspan(lo, n),
                           std::span(scratch.keys).subspan(lo, n),
                           std::span(scratch.vals).subspan(lo, n), 2 * ctx.k, kSortDigitBits);
  }
}

/// Algorithm 1 over one sorted region: each run of equal k-mers whose
/// frequency the filter accepts chains its reads into union-find edges.
/// kSentinels: the region may hold kInvalidRead padding (lenient parsing in
/// the fixed-tuple codec); each sentinel is skipped in both the run's
/// frequency and its chain.  Adds to pipeline.cc_edges_total the links
/// that joined two distinct roots, in the first sweep and in Algorithm 1's
/// re-verify rounds, so the counter is the rank's component reduction at
/// any T.  Returns the region's Algorithm 1 iteration count.
template <bool kSentinels>
int union_region(PassCtx& ctx, const TupleBuffer& tuples, std::uint64_t lo,
                 std::uint64_t hi) {
  dsu::AtomicDSU& local_cc = ctx.local_cc;
  const KmerFreqFilter& filter = ctx.config.filter;
  const bool filtered = filter.enabled();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::uint64_t links = 0;
  std::uint64_t i = lo;
  while (i < hi) {
    std::uint64_t j = i + 1;
    if (!ctx.wide) {
      while (j < hi && tuples.keys[j] == tuples.keys[i]) ++j;
    } else {
      while (j < hi && tuples.keys[j] == tuples.keys[i] &&
             tuples.keys_hi[j] == tuples.keys_hi[i])
        ++j;
    }
    std::uint64_t freq = j - i;
    if constexpr (kSentinels) {
      // Sentinels only lower a run's count, so a run already below the
      // band is rejected without reading its values.
      if (filtered && freq >= filter.min_freq) {
        for (std::uint64_t x = i; x < j; ++x) freq -= tuples.vals[x] == kInvalidRead;
      }
    }
    if (filter.accepts(freq)) {
      std::uint32_t u = tuples.vals[i];
      for (std::uint64_t x = i + 1; x < j; ++x) {
        const std::uint32_t v = tuples.vals[x];
        if constexpr (kSentinels) {
          if (v == kInvalidRead) continue;  // u carries over: the chain bridges it
          if (u == kInvalidRead) {
            u = v;
            continue;
          }
        }
        if (u != v) {
          const std::uint32_t ru = local_cc.find(u);
          const std::uint32_t rv = local_cc.find(v);
          if (ru != rv) {
            links += local_cc.unite_once(ru, rv) ? 1 : 0;
            edges.emplace_back(u, v);
          }
        }
        u = v;
      }
    }
    i = j;
  }
  const int iterations = 1 + dsu::process_edges_algorithm1(local_cc, edges, &links);
  ctx.m_cc_edges.add(links);
  return iterations;
}

/// LocalSort, then LocalCC, over the T dest-thread regions of one pass.
/// @p sentinels: the regions may hold lenient-parse padding.
void sort_and_union(PassCtx& ctx, TupleBuffer& tuples, TupleBuffer& scratch,
                    std::span<const std::uint64_t> region_start, bool sentinels) {
  RankShared& my = ctx.my;
  auto lo = [&](int t) { return region_start[static_cast<std::size_t>(t)]; };
  auto hi = [&](int t) { return region_start[static_cast<std::size_t>(t) + 1]; };

  progress_phase(ctx, "LocalSort");
  {
    const StepScope step(my.times, "LocalSort");
    ctx.team.run([&](int t) { sort_region(ctx, tuples, scratch, lo(t), hi(t)); });
  }
  phase_boundary(ctx, "LocalSort");

  progress_phase(ctx, "LocalCC");
  std::vector<int> thread_iters(static_cast<std::size_t>(ctx.T), 0);
  {
    const StepScope step(my.times, "LocalCC");
    ctx.team.run([&](int t) {
      thread_iters[static_cast<std::size_t>(t)] =
          sentinels ? union_region<true>(ctx, tuples, lo(t), hi(t))
                    : union_region<false>(ctx, tuples, lo(t), hi(t));
    });
  }
  phase_boundary(ctx, "LocalCC");
  my.cc_iterations = std::max(my.cc_iterations,
                              *std::max_element(thread_iters.begin(), thread_iters.end()));
}

// ---------------------------------------------------------------------------
// The pass engine: the paper's pass loop (§3.2-§3.5), with passes run in
// groups of G, over an exchange codec.
//
// One chunk read + record scan feeds every pass of a group (KmerGen).  Each
// pass's exchange is then posted (KmerGen-Comm) and drained in pass order:
// complete the exchange, lease the radix scratch, LocalSort + LocalCC, and
// return the leases.  Tuple arrays are leased from util::BufferPool and
// recycled across passes and groups under both codecs.
//
// G = 1 (PipelineMode::kBarrier) is the paper's schedule: pass s runs
// KmerGen -> KmerGen-Comm -> LocalSort -> LocalCC to completion, and pass
// s+1 substitutes (§3.5.1) the components as of pass s.  G = 2 (kOverlap)
// fuses two passes per chunk sweep, so pass s+1's KmerGen rides inside pass
// s's KmerGen-Comm window, and both passes of a group substitute the
// components as of the previous group.  A stale root is still a member of
// the same component, so the final partition is unchanged (DESIGN.md "Pass
// engine").
//
// The codec is the only part that differs between --comm-compress modes;
// it is a template parameter because emit runs once per record.  A codec
// provides:
//   begin(g)          per-group set-up before KmerGen;
//   generate(g, t, sweep)
//                     thread t's KmerGen: calls sweep(emit) once, and the
//                     loop's chunk scan calls emit(value, rec) per record;
//   seal(g)           after KmerGen, before any post;
//   post(g, i)        post pass i's exchange;
//   wait(g, i)        (P > 1) complete pass i's exchange;
//   deliver(g, i)     leave pass i's sort input in g.tuples[i] and return
//                     its T+1 dest-thread region starts;
//   sentinels         whether the regions may hold lenient-parse padding.
// ---------------------------------------------------------------------------

/// One pass group: its pass range and every tuple array it holds on lease.
/// The destructor returns whatever is still leased, so an exception leaving
/// the group (cancel, comm poison, CheckError) hands every lease back.
struct PassGroup {
  PassGroup(TupleLeases& group_leases, int first_pass, int passes)
      : leases(group_leases), s0(first_pass), npasses(passes) {}
  PassGroup(const PassGroup&) = delete;
  PassGroup& operator=(const PassGroup&) = delete;
  ~PassGroup() {
    for (TupleBuffer* b : {&send[0], &send[1], &tuples[0], &tuples[1], &scratch}) {
      if (!b->leased) continue;
      try {
        leases.release(*b);
      } catch (const std::exception& e) {
        // Only reached while unwinding from the error that matters.
        LOG_WARN("pass group: lease not returned: " << e.what());
      }
    }
  }

  TupleLeases& leases;
  const int s0;
  const int npasses;
  std::array<TupleBuffer, 2> send;    ///< fixed-tuple codec: generation buffers
  std::array<TupleBuffer, 2> tuples;  ///< each pass's sort input
  TupleBuffer scratch;                ///< the draining pass's radix scratch
};

template <typename Codec>
void run_passes(PassCtx& ctx, Codec&& codec) {
  const MetaprepConfig& config = ctx.config;
  RankShared& my = ctx.my;
  obs::TraceSession& tr = ctx.tr;
  const int p = ctx.p, T = ctx.T, S = ctx.S;
  const int G = group_size(config);
  // Records handed to the codec, summed over each sweep: S/G sweeps, so a
  // codec that rescans shows here.
  obs::Counter& m_records = obs::metrics().counter("pipeline.kmergen_records");
  TupleLeases leases(
      config.buffer_pool != nullptr ? *config.buffer_pool : util::BufferPool::global(), ctx.wide,
      my.max_buffer_bytes);

  for (int s0 = 0; s0 < S; s0 += G) {
    util::throw_if_cancelled(config.cancel_token, "pass group");
    PassGroup g(leases, s0, std::min(G, S - s0));
    std::array<double, 2> pass_t0{span_begin(tr), -1.0};
    codec.begin(g);

    // ---- KmerGen: one chunk read + scan feeds every pass of the group, no
    // synchronization. ----
    const bool substitute_components = config.cc_opt && s0 > 0;
    std::vector<double> io_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<double> gen_seconds(static_cast<std::size_t>(T), 0.0);
    std::vector<io::BufferParseStats> scans(static_cast<std::size_t>(T));
    progress_phase(ctx, "KmerGen");
    ctx.team.run([&](int t) {
      obs::TraceSession::set_thread_identity(p, t);
      const auto ut = static_cast<std::size_t>(t);
      codec.generate(g, t, [&](auto&& emit) {
        for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
          const io::BufferParseStats scan = scan_chunk_records(
              ctx, c, substitute_components, io_seconds[ut], gen_seconds[ut], emit);
          scans[ut].records += scan.records;
          scans[ut].skipped += scan.skipped;
        }
      });
    });
    my.times.add("KmerGen-I/O", *std::max_element(io_seconds.begin(), io_seconds.end()));
    my.times.add("KmerGen", *std::max_element(gen_seconds.begin(), gen_seconds.end()));
    std::uint64_t sweep_records = 0;
    for (const io::BufferParseStats& scan : scans) {
      sweep_records += scan.records;
      // The first sweep visits every record exactly once, so its skip count
      // is the number of *distinct* records lenient parsing dropped (later
      // sweeps re-discover the same skips in text mode).
      if (s0 == 0) my.records_skipped += scan.skipped;
    }
    m_records.add(sweep_records);
    codec.seal(g);
    phase_boundary(ctx, "KmerGen");

    // ---- KmerGen-Comm: post every pass's exchange. ----
    progress_phase(ctx, "KmerGen-Comm");
    for (int i = 0; i < g.npasses; ++i) {
      const StepScope step(my.times, "KmerGen-Comm");
      codec.post(g, i);
    }
    phase_boundary(ctx, "KmerGen-Comm");

    // ---- Drain the group: while pass s0 sorts and unions, pass s0+1's
    // exchange stays in flight (straggler ranks may still be generating
    // it); completing it is the pipeline's only synchronization. ----
    const double window_t0 = G > 1 ? span_begin(tr) : -1.0;
    for (int i = 0; i < g.npasses; ++i) {
      util::throw_if_cancelled(config.cancel_token, "pass drain");
      const auto si = static_cast<std::size_t>(i);
      if (i == g.npasses - 1) span_end(tr, "Overlap-Window", window_t0);
      if (pass_t0[si] < 0.0) pass_t0[si] = span_begin(tr);
      if (ctx.P > 1) {
        const StepScope step(my.times, "KmerGen-Comm");
        codec.wait(g, i);
      }
      const std::span<const std::uint64_t> regions = codec.deliver(g, i);
      g.scratch = leases.acquire(g.tuples[si].size());
      sort_and_union(ctx, g.tuples[si], g.scratch, regions, codec.sentinels);
      leases.release(g.scratch);
      leases.release(g.tuples[si]);
      ctx.m_rss.set_max(static_cast<double>(util::current_rss_bytes()));
      span_end(tr, "Pass", pass_t0[si]);
    }
  }  // pass groups
}

// ---------------------------------------------------------------------------
// Fixed-tuple codec (--comm-compress=none): the paper's exchange.  Tuples
// go to synchronization-free offsets precomputed from the FASTQPart
// histograms (§3.2.2).  The offsets have (dest rank, dest thread)
// granularity, so the receive buffer IS the sort buffer: no partition copy.
// Each pass's exchange is posted with async isend/irecv and completed by
// wait_all while earlier passes of the group sort and union.
// ---------------------------------------------------------------------------

/// Receive layout from per-(src rank q, dest thread dt) tuple counts: T
/// dest-thread regions (region_start, T+1 offsets), each holding its blocks
/// in src-rank order (block_start, [q][dt] offsets).  Shared by both codecs.
void layout_regions(std::span<const std::uint64_t> count, int P, int T,
                    std::vector<std::uint64_t>& region_start,
                    std::vector<std::uint64_t>& block_start) {
  region_start.assign(static_cast<std::size_t>(T) + 1, 0);
  block_start.assign(static_cast<std::size_t>(P) * T, 0);
  for (int dt = 0; dt < T; ++dt) {
    std::uint64_t off = region_start[static_cast<std::size_t>(dt)];
    for (int q = 0; q < P; ++q) {
      block_start[static_cast<std::size_t>(q) * T + dt] = off;
      off += count[static_cast<std::size_t>(q) * T + dt];
    }
    region_start[static_cast<std::size_t>(dt) + 1] = off;
  }
}

/// Exchange geometry of one pass at (dest rank, dest thread) granularity,
/// fully precomputed from the index tables.
struct PassGeom {
  std::uint32_t pass_lo = 0, pass_hi = 0;
  std::vector<std::uint32_t> slot_bounds;   ///< P*T+1 concatenated thread bounds
  std::vector<std::uint16_t> slot_of_bin;   ///< bin - pass_lo -> slot d*T+dt
  // Send side: slot-major layout, ordered by my thread t within a slot.
  std::vector<std::uint64_t> count_send;    ///< [t][slot]
  std::vector<std::uint64_t> slot_start;    ///< P*T+1 element offsets
  std::vector<std::uint64_t> cursor_start;  ///< [t][slot]
  std::uint64_t total_out = 0;
  // Recv side: T regions (one per dest thread), each ordered by src rank q,
  // within q by src thread.
  std::vector<std::uint64_t> count_recv;    ///< [q][dt]
  std::vector<std::uint64_t> region_start;  ///< T+1 element offsets
  std::vector<std::uint64_t> block_start;   ///< [q][dt] absolute element offsets
  std::uint64_t total_in = 0;
};

PassGeom pass_geometry(const PassCtx& ctx, int s) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  PassGeom g;
  g.pass_lo = ctx.plan.pass_range(s).begin;
  g.pass_hi = ctx.plan.pass_range(s).end;
  g.slot_bounds.reserve(nslots + 1);
  g.slot_bounds.push_back(ctx.plan.thread_bounds(s, 0).front());
  for (int d = 0; d < P; ++d) {
    const auto& tb = ctx.plan.thread_bounds(s, d);
    for (int t = 1; t <= T; ++t) g.slot_bounds.push_back(tb[static_cast<std::size_t>(t)]);
  }
  g.slot_of_bin = bin_owner_table(g.slot_bounds);

  g.count_send.assign(static_cast<std::size_t>(ctx.T) * nslots, 0);
  for (int t = 0; t < T; ++t) {
    for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
      accumulate_bounded_counts(
          ctx.index.part.row(c), g.slot_bounds,
          std::span(g.count_send).subspan(static_cast<std::size_t>(t) * nslots, nslots));
    }
  }
  g.slot_start.assign(nslots + 1, 0);
  for (std::size_t slot = 0; slot < nslots; ++slot) {
    std::uint64_t tot = 0;
    for (int t = 0; t < T; ++t) tot += g.count_send[static_cast<std::size_t>(t) * nslots + slot];
    g.slot_start[slot + 1] = g.slot_start[slot] + tot;
  }
  g.cursor_start.assign(static_cast<std::size_t>(T) * nslots, 0);
  for (std::size_t slot = 0; slot < nslots; ++slot) {
    std::uint64_t off = g.slot_start[slot];
    for (int t = 0; t < T; ++t) {
      g.cursor_start[static_cast<std::size_t>(t) * nslots + slot] = off;
      off += g.count_send[static_cast<std::size_t>(t) * nslots + slot];
    }
  }
  g.total_out = g.slot_start[nslots];

  const auto& my_tb = ctx.plan.thread_bounds(s, p);
  g.count_recv.assign(static_cast<std::size_t>(P) * T, 0);
  for (int q = 0; q < P; ++q) {
    for (std::uint32_t c = ctx.ca.rank_begin(q); c < ctx.ca.rank_end(q); ++c) {
      accumulate_bounded_counts(
          ctx.index.part.row(c), my_tb,
          std::span(g.count_recv).subspan(static_cast<std::size_t>(q) * T, T));
    }
  }
  layout_regions(g.count_recv, P, T, g.region_start, g.block_start);
  g.total_in = g.region_start[static_cast<std::size_t>(T)];
  return g;
}

/// Tags for the fine-grained async exchange: unique per (pass, tuple array,
/// dest thread), disjoint from the MergeCC (1<<20) and super-k-mer
/// (3'000'000+) ranges.
constexpr int kExchangeTagBase = 2'000'000;
inline int exchange_tag(int s, int arr, int dt, int T) {
  return kExchangeTagBase + (s * 3 + arr) * T + dt;
}

/// Post the pass-s exchange: self sub-blocks copy inline, every remote
/// sub-block is isend'ed now (buffered) and its irecv lands directly at the
/// tuple's final sort position.  Zero-length sub-blocks are not shipped —
/// both sides derive the same sizes from the index tables, so the skip is
/// symmetric.  Returns immediately; the caller owns the pending receives.
void post_exchange(PassCtx& ctx, int s, const PassGeom& g, const TupleBuffer& sendb,
                   TupleBuffer& recvb, std::vector<mpsim::Request>& pending) {
  const int P = ctx.P, T = ctx.T, p = ctx.p;
  auto post_array = [&](int arr, const void* sdata, void* rdata, std::size_t esz) {
    const auto* sb = static_cast<const std::byte*>(sdata);
    auto* rb = static_cast<std::byte*>(rdata);
    for (int dt = 0; dt < T; ++dt) {
      const std::size_t self = static_cast<std::size_t>(p) * T + dt;
      const std::uint64_t len = g.count_recv[self];
      if (len == 0) continue;
      std::memcpy(rb + g.block_start[self] * esz, sb + g.slot_start[self] * esz, len * esz);
    }
    // Staged schedule (§3.3): stage i sends to (p+i)%P, receives from
    // (p-i+P)%P, one message per destination thread.
    for (int stage = 1; stage < P; ++stage) {
      const int d = (p + stage) % P;
      const int q = (p - stage + P) % P;
      for (int dt = 0; dt < T; ++dt) {
        const std::size_t dslot = static_cast<std::size_t>(d) * T + dt;
        const std::uint64_t slen = g.slot_start[dslot + 1] - g.slot_start[dslot];
        if (slen > 0) {
          ctx.comm.isend(d, exchange_tag(s, arr, dt, T), sb + g.slot_start[dslot] * esz,
                         slen * esz);
        }
        const std::size_t qslot = static_cast<std::size_t>(q) * T + dt;
        const std::uint64_t rlen = g.count_recv[qslot];
        if (rlen > 0) {
          pending.push_back(ctx.comm.irecv(q, exchange_tag(s, arr, dt, T),
                                           rb + g.block_start[qslot] * esz, rlen * esz));
        }
      }
    }
  };
  post_array(0, sendb.keys.data(), recvb.keys.data(), 8);
  post_array(1, sendb.vals.data(), recvb.vals.data(), 4);
  if (ctx.wide) post_array(2, sendb.keys_hi.data(), recvb.keys_hi.data(), 8);
}


class FixedTupleCodec {
 public:
  explicit FixedTupleCodec(PassCtx& ctx)
      : sentinels(ctx.config.parse_mode == io::ParseMode::kLenient),
        ctx_(ctx),
        nslots_(static_cast<std::size_t>(ctx.P) * ctx.T) {}

  /// Only lenient parsing can skip a record the histograms counted.
  const bool sentinels;

  void begin(PassGroup& g) {
    for (int i = 0; i < g.npasses; ++i) {
      const auto si = static_cast<std::size_t>(i);
      geom_[si] = pass_geometry(ctx_, g.s0 + i);
      g.send[si] = g.leases.acquire(geom_[si].total_out);
      cursor_[si] = geom_[si].cursor_start;
      ctx_.my.tuples += geom_[si].total_out;
      ctx_.m_tuples.add(geom_[si].total_out);
    }
  }

  /// Every canonical k-mer of a record whose m-mer bin falls in the group's
  /// range goes to its pass's next cursor slot.
  template <typename Sweep>
  void generate(PassGroup& g, int t, Sweep&& sweep) {
    const int k = ctx_.k, m = ctx_.m;
    const PassGeom& g0 = geom_[0];
    const PassGeom& g1 = geom_[1];
    const std::uint32_t lo = g0.pass_lo;
    const std::uint32_t mid = g0.pass_hi;
    const std::uint32_t hi = geom_[static_cast<std::size_t>(g.npasses) - 1].pass_hi;
    // This thread's cursor rows, copied out of the shared [t][slot] tables
    // and written back after the sweep: neighbouring threads' rows share
    // cache lines, and incrementing them in place from T threads at once
    // false-shares them (~1.6x slower KmerGen on XL-mini at P=1 T=4,
    // measured on a 4-vCPU host).
    const auto row = static_cast<std::ptrdiff_t>(t) * static_cast<std::ptrdiff_t>(nslots_);
    std::array<std::vector<std::uint64_t>, 2> cur;
    for (std::size_t i = 0; i < static_cast<std::size_t>(g.npasses); ++i)
      cur[i].assign(cursor_[i].begin() + row, cursor_[i].begin() + row + nslots_);
    std::uint64_t* cur0 = cur[0].data();
    std::uint64_t* cur1 = cur[1].data();
    TupleBuffer& out0 = g.send[0];
    TupleBuffer& out1 = g.send[1];
    sweep([&](std::uint32_t value, const auto& rec) {
      for_each_record_kmer(rec, k, ctx_.wide, [&](auto km, std::size_t) {
        std::uint32_t bin;
        if constexpr (std::is_same_v<decltype(km), kmer::Kmer128>) {
          bin = kmer::prefix_bin128(km, k, m);
        } else {
          bin = kmer::prefix_bin64(km, k, m);
        }
        if (bin < lo || bin >= hi) return;
        if (bin < mid) {
          put_tuple(out0, cur0[g0.slot_of_bin[bin - lo]]++, km, value);
        } else {
          put_tuple(out1, cur1[g1.slot_of_bin[bin - mid]]++, km, value);
        }
      });
    });
    for (std::size_t i = 0; i < static_cast<std::size_t>(g.npasses); ++i)
      std::copy(cur[i].begin(), cur[i].end(), cursor_[i].begin() + row);
  }

  /// Lenient parsing may have skipped records that the (clean-data) chunk
  /// histograms counted, leaving some (thread, slot) blocks under-filled.
  /// The exchange geometry is precomputed on both sides, so the gap slots
  /// ship regardless: fill them with sentinel tuples keyed at the slot's
  /// first bin (so they stay inside the dest thread's range) whose value is
  /// kInvalidRead (so LocalCC skips them).
  void seal(PassGroup& g) {
    const int k = ctx_.k, m = ctx_.m;
    const bool wide = ctx_.wide;
    for (int i = 0; i < g.npasses; ++i) {
      const PassGeom& pg = geom_[static_cast<std::size_t>(i)];
      TupleBuffer& buf = g.send[static_cast<std::size_t>(i)];
      auto& cur = cursor_[static_cast<std::size_t>(i)];
      for (int t = 0; t < ctx_.T; ++t) {
        for (std::size_t slot = 0; slot < nslots_; ++slot) {
          const std::size_t ts = static_cast<std::size_t>(t) * nslots_ + slot;
          const std::uint64_t block_end = pg.cursor_start[ts] + pg.count_send[ts];
          if (cur[ts] == block_end) continue;
          const auto key = static_cast<unsigned __int128>(pg.slot_bounds[slot]) << (2 * (k - m));
          for (std::uint64_t at = cur[ts]; at < block_end; ++at) {
            buf.keys[at] = static_cast<std::uint64_t>(key);
            if (wide) buf.keys_hi[at] = static_cast<std::uint64_t>(key >> 64);
            buf.vals[at] = kInvalidRead;
          }
          cur[ts] = block_end;
        }
      }
    }
  }

  /// Sends are buffered, so the send buffer goes back to the pool as soon
  /// as the post returns (the mailbox owns the in-flight copies — DESIGN.md
  /// "Buffer-pool ownership").
  void post(PassGroup& g, int i) {
    const auto si = static_cast<std::size_t>(i);
    const PassGeom& pg = geom_[si];
    if (ctx_.P == 1) {
      // Slot layout == region layout at P == 1: the generation buffer IS
      // the sort buffer; no exchange, no copy.
      g.tuples[si] = std::exchange(g.send[si], TupleBuffer{});
      return;
    }
    g.tuples[si] = g.leases.acquire(pg.total_in);
    post_exchange(ctx_, g.s0 + i, pg, g.send[si], g.tuples[si], pending_[si]);
    g.leases.release(g.send[si]);
    // Cross-rank tuples = everything outside my own P*T slot block;
    // uncompressed, so shipped == raw.
    const auto p = static_cast<std::size_t>(ctx_.p);
    const std::uint64_t cross =
        pg.total_out - (pg.slot_start[(p + 1) * ctx_.T] - pg.slot_start[p * ctx_.T]);
    const std::uint64_t bytes = cross * (ctx_.wide ? 20u : 12u);
    ctx_.my.exchange_bytes += bytes;
    ctx_.my.exchange_bytes_raw += bytes;
  }

  void wait(PassGroup&, int i) {
    auto& pending = pending_[static_cast<std::size_t>(i)];
    ctx_.comm.wait_all(pending);
    pending.clear();
  }

  std::span<const std::uint64_t> deliver(PassGroup&, int i) {
    return geom_[static_cast<std::size_t>(i)].region_start;
  }

 private:
  PassCtx& ctx_;
  const std::size_t nslots_;
  std::array<PassGeom, 2> geom_;
  std::array<std::vector<std::uint64_t>, 2> cursor_;
  std::array<std::vector<mpsim::Request>, 2> pending_;
};

// ---------------------------------------------------------------------------
// Super-k-mer codec (--comm-compress=superkmer) over a variable-size staged
// exchange.
//
// Routing.  Whole runs route by minimizer-hash bin (kmer::minimizer_bin):
// the minimizer is a deterministic function of the canonical k-mer, so
// every occurrence of a k-mer lands on one (pass, rank, thread) and
// frequency counting stays global.  Payloads are variable-size, so the
// precomputed-offset exchange is replaced by exactly one isend per (src,
// dest, pass) — sent even when empty, so the receive loop has a
// deterministic message count and World::finalize_check stays clean.
//
// Message layout per (src -> dest, pass): u64 lens[T] header (bytes per
// dest-thread section), then section dt = 0..T-1, each the concatenation of
// the source's T thread streams for slot d*T+dt.  The receiver sizes T sort
// regions (one per dest thread, blocks ordered by src rank — the same order
// the fixed-tuple codec produces) and expands records at exact offsets into
// a leased tuple buffer.  Equivalence arguments: DESIGN.md "Exchange
// compression".
// ---------------------------------------------------------------------------

/// Tag space disjoint from the fixed-tuple exchange (2'000'000+) and
/// MergeCC (1<<20): one tag per pass.
constexpr int kCompressTagBase = 3'000'000;

/// Little-endian byte append/read for the message headers.
inline void append_le(std::vector<std::byte>& out, std::uint64_t v, int nbytes) {
  for (int b = 0; b < nbytes; ++b)
    out.push_back(static_cast<std::byte>((v >> (8 * b)) & 0xFF));
}
inline std::uint64_t read_le(const std::byte* p, int nbytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < nbytes; ++b)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[b])) << (8 * b);
  return v;
}

/// 2-bit code of base i of a record.  Only called for positions inside a
/// valid super-k-mer run, which the scanner guarantees is free of invalid
/// bases.
inline std::uint8_t code_at(std::string_view seq, std::size_t i) {
  return kmer::base_code(seq[i]);
}
inline std::uint8_t code_at(const io::PackedStore::Record& rec, std::size_t i) {
  return static_cast<std::uint8_t>((rec.words[i >> 5] >> (2 * (i & 31))) & 3u);
}

/// Enumerate a record's super-k-mer runs; fn(start, kmer_count, minimizer).
template <typename Rec, typename Fn>
void for_each_run(kmer::SuperKmerScanner& scanner, const Rec& rec, int k, int msk, Fn&& fn) {
  if constexpr (std::is_same_v<Rec, std::string_view>) {
    scanner.scan(rec, k, msk, std::forward<Fn>(fn));
  } else {
    scanner.scan_packed(rec.words, rec.len, rec.npos, rec.ncount, k, msk, std::forward<Fn>(fn));
  }
}

/// One pass's routing geometry for the super-k-mer exchange: the pass's
/// minimizer-hash bin range plus a uniform bin -> slot (d*T+dt) table.
struct CompressPassGeom {
  std::uint32_t lo = 0, hi = 0;
  std::vector<std::uint16_t> slot_of_bin;  ///< bin - lo -> slot d*T+dt
};

std::vector<CompressPassGeom> make_compress_plan(int S, int P, int T) {
  const std::size_t nslots = static_cast<std::size_t>(P) * T;
  std::vector<CompressPassGeom> plan(static_cast<std::size_t>(S));
  const auto pass_bounds = util::split_range(kmer::kNumMinimizerBins, S);
  for (int s = 0; s < S; ++s) {
    CompressPassGeom& pg = plan[static_cast<std::size_t>(s)];
    pg.lo = static_cast<std::uint32_t>(pass_bounds[static_cast<std::size_t>(s)]);
    pg.hi = static_cast<std::uint32_t>(pass_bounds[static_cast<std::size_t>(s) + 1]);
    const auto slot_rel = util::split_range(pg.hi - pg.lo, static_cast<int>(nslots));
    std::vector<std::uint32_t> bounds(nslots + 1);
    for (std::size_t i = 0; i <= nslots; ++i)
      bounds[i] = pg.lo + static_cast<std::uint32_t>(slot_rel[i]);
    pg.slot_of_bin = bin_owner_table(bounds);
  }
  return plan;
}

class SuperKmerCodec {
 public:
  SuperKmerCodec(PassCtx& ctx, const std::vector<CompressPassGeom>& cplan)
      : ctx_(ctx),
        cplan_(cplan),
        nslots_(static_cast<std::size_t>(ctx.P) * ctx.T),
        counts_(static_cast<std::size_t>(ctx.T)),
        msgs_(static_cast<std::size_t>(ctx.P)) {}

  /// Lenient-parse skips simply emit nothing: variable-size messages need
  /// no sentinel padding.
  const bool sentinels = false;

  void begin(PassGroup& g) {
    for (int i = 0; i < g.npasses; ++i) {
      streams_[static_cast<std::size_t>(i)].assign(
          static_cast<std::size_t>(ctx_.T), std::vector<std::vector<std::byte>>(nslots_));
    }
  }

  /// Every super-k-mer run of a record whose minimizer bin falls in the
  /// group's range is appended as wire records to its (pass, slot) stream.
  template <typename Sweep>
  void generate(PassGroup& g, int t, Sweep&& sweep) {
    const int k = ctx_.k, p = ctx_.p, T = ctx_.T;
    const int msk = ctx_.config.superkmer_minimizer_len;
    const auto ut = static_cast<std::size_t>(t);
    const CompressPassGeom& pg0 = cplan_[static_cast<std::size_t>(g.s0)];
    const CompressPassGeom* pg1 =
        g.npasses > 1 ? &cplan_[static_cast<std::size_t>(g.s0) + 1] : nullptr;
    GenCounts c;
    kmer::SuperKmerScanner scanner;
    sweep([&](std::uint32_t value, const auto& rec) {
      for_each_run(scanner, rec, k, msk,
                   [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
        const std::uint32_t bin = kmer::minimizer_bin(mz);
        int i = 0;
        const CompressPassGeom* pg = &pg0;
        if (bin < pg0.lo || bin >= pg0.hi) {
          if (pg1 == nullptr || bin < pg1->lo || bin >= pg1->hi) return;
          i = 1;
          pg = pg1;
        }
        const std::uint16_t slot = pg->slot_of_bin[bin - pg->lo];
        std::vector<std::byte>& stream = streams_[static_cast<std::size_t>(i)][ut][slot];
        if (slot / T != p) c.raw_kmers += count;
        c.kmers += count;
        for (std::uint32_t a = 0; a < count;) {
          const std::uint32_t take = std::min(count - a, kmer::kMaxSuperKmerRun);
          const std::size_t cap0 = stream.capacity();
          const std::size_t size0 = stream.size();
          kmer::append_superkmer_record(
              stream, value, take, k, [&](std::size_t j) { return code_at(rec, start + a + j); });
          if (stream.capacity() != cap0) {
            ++c.grow_events;
            c.copied_bytes += size0;
          }
          ++c.records;
          a += take;
        }
      });
    });
    for (int i = 0; i < g.npasses; ++i) {
      for (const std::vector<std::byte>& st : streams_[static_cast<std::size_t>(i)][ut]) {
        c.stream_bytes += st.size();
        c.stream_capacity += st.capacity();
      }
    }
    counts_[ut] = c;
  }

  void seal(PassGroup& g) {
    RankShared& my = ctx_.my;
    const std::uint64_t tuple_bytes = ctx_.wide ? 20 : 12;
    std::uint64_t stream_capacity = 0;
    for (const GenCounts& c : counts_) {
      my.exchange_bytes_raw += c.raw_kmers * tuple_bytes;
      my.tuples += c.kmers;
      my.superkmer_records += c.records;
      ctx_.m_tuples.add(c.kmers);
      m_grow_.add(c.grow_events);
      m_copied_.add(c.copied_bytes);
      m_stream_.add(c.stream_bytes);
      stream_capacity += c.stream_capacity;
    }
    // The streams peak here; they stay charged to "comm" until the last
    // message of the group is built.
    g.leases.note_peak(stream_capacity);
    streams_mem_.emplace("comm", stream_capacity);
  }

  /// One message per (dest, pass), always sent (the u64 lens[T] header
  /// makes even an empty message well-formed and keeps the receive count
  /// deterministic).
  void post(PassGroup& g, int i) {
    const int p = ctx_.p, P = ctx_.P, T = ctx_.T;
    const auto si = static_cast<std::size_t>(i);
    auto stream = [&](int t, int d, int dt) -> std::vector<std::byte>& {
      return streams_[si][static_cast<std::size_t>(t)][static_cast<std::size_t>(d) * T + dt];
    };
    for (int d = 0; d < P; ++d) {
      std::vector<std::byte> msg;
      std::size_t total = 8u * static_cast<std::size_t>(T);
      for (int dt = 0; dt < T; ++dt) {
        for (int t = 0; t < T; ++t) total += stream(t, d, dt).size();
      }
      msg.reserve(total);
      for (int dt = 0; dt < T; ++dt) {
        std::uint64_t len = 0;
        for (int t = 0; t < T; ++t) len += stream(t, d, dt).size();
        append_le(msg, len, 8);
      }
      for (int dt = 0; dt < T; ++dt) {
        for (int t = 0; t < T; ++t) {
          std::vector<std::byte>& st = stream(t, d, dt);
          msg.insert(msg.end(), st.begin(), st.end());
          st.clear();
          st.shrink_to_fit();
        }
      }
      if (d == p) {
        self_msg_[si] = std::move(msg);
      } else {
        ctx_.my.exchange_bytes += msg.size();
        ctx_.comm.isend(d, kCompressTagBase + g.s0 + i, msg.data(), msg.size());
      }
    }
    if (i == g.npasses - 1) streams_mem_.reset();
  }

  void wait(PassGroup& g, int i) {
    const int p = ctx_.p, P = ctx_.P;
    for (int stage = 1; stage < P; ++stage) {
      const int q = (p - stage + P) % P;
      msgs_[static_cast<std::size_t>(q)] =
          ctx_.comm.recv_any_size(q, kCompressTagBase + g.s0 + i);
    }
  }

  /// Expand: size the T sort regions from the headers, validate and count
  /// every record, then decode at exact offsets in parallel into a leased
  /// tuple buffer.  Region dt holds blocks ordered by src rank q ascending —
  /// the same (src rank, src thread, generation order) sequence the
  /// fixed-tuple codec delivers, so the stable sort sees equivalent input.
  /// The messages are freed before the loop leases the radix scratch.
  std::span<const std::uint64_t> deliver(PassGroup& g, int i) {
    const int p = ctx_.p, P = ctx_.P, T = ctx_.T, k = ctx_.k;
    const bool wide = ctx_.wide;
    const std::uint32_t R = ctx_.index.total_reads;
    msgs_[static_cast<std::size_t>(p)] = std::move(self_msg_[static_cast<std::size_t>(i)]);
    std::uint64_t msg_bytes = 0;
    for (const auto& msg : msgs_) msg_bytes += msg.size();
    const obs::MemCharge msgs_mem("comm", msg_bytes);

    progress_phase(ctx_, "Expand");
    TupleBuffer& tuples = g.tuples[static_cast<std::size_t>(i)];
    {
      const StepScope step(ctx_.my.times, "Expand");
      std::vector<std::uint64_t> sec_off(nslots_, 0);
      std::vector<std::uint64_t> sec_len(nslots_, 0);
      for (int q = 0; q < P; ++q) {
        const auto& msg = msgs_[static_cast<std::size_t>(q)];
        if (msg.size() < 8u * static_cast<std::size_t>(T))
          throw util::parse_error("comm-compress: message shorter than its header");
        std::uint64_t off = 8u * static_cast<std::size_t>(T);
        for (int dt = 0; dt < T; ++dt) {
          const std::uint64_t len = read_le(msg.data() + 8 * dt, 8);
          if (len > msg.size() - off)
            throw util::parse_error("comm-compress: section overruns message");
          sec_off[static_cast<std::size_t>(q) * T + dt] = off;
          sec_len[static_cast<std::size_t>(q) * T + dt] = len;
          off += len;
        }
        if (off != msg.size())
          throw util::parse_error("comm-compress: trailing bytes after last section");
      }
      std::vector<std::uint64_t> block_count(nslots_, 0);
      ctx_.team.run([&](int t) {
        for (int q = 0; q < P; ++q) {
          const std::size_t idx = static_cast<std::size_t>(q) * T + t;
          const std::byte* data = msgs_[static_cast<std::size_t>(q)].data() + sec_off[idx];
          block_count[idx] = kmer::count_superkmer_stream(data, sec_len[idx], k).kmers;
        }
      });
      std::vector<std::uint64_t> block_off;
      layout_regions(block_count, P, T, region_start_, block_off);
      tuples = g.leases.acquire(region_start_[static_cast<std::size_t>(T)]);
      g.leases.note_peak(msg_bytes);
      ctx_.team.run([&](int t) {
        obs::TraceSession::set_thread_identity(p, t);
        for (int q = 0; q < P; ++q) {
          const std::size_t idx = static_cast<std::size_t>(q) * T + t;
          const std::byte* data = msgs_[static_cast<std::size_t>(q)].data() + sec_off[idx];
          std::uint64_t at = block_off[idx];
          kmer::SuperKmerReader reader(data, sec_len[idx], k);
          while (!reader.done()) {
            reader.next_header();
            const std::uint32_t value = reader.value();
            if (value >= R) throw util::parse_error("comm-compress: record value out of range");
            auto put = [&](auto km) { put_tuple(tuples, at++, km, value); };
            if (!wide) {
              reader.expand64(put);
            } else {
              reader.expand128(put);
            }
          }
        }
      });
    }
    for (auto& msg : msgs_) msg = std::vector<std::byte>();
    phase_boundary(ctx_, "Expand");
    return region_start_;
  }

 private:
  /// One thread's KmerGen work counts, written back once per sweep.
  struct GenCounts {
    std::uint64_t raw_kmers = 0;     ///< k-mers bound for another rank
    std::uint64_t kmers = 0;
    std::uint64_t records = 0;
    std::uint64_t grow_events = 0;   ///< appends that reallocated a stream
    std::uint64_t copied_bytes = 0;  ///< bytes those reallocations moved
    std::uint64_t stream_bytes = 0;  ///< final size of this thread's streams
    std::uint64_t stream_capacity = 0;
  };

  PassCtx& ctx_;
  const std::vector<CompressPassGeom>& cplan_;
  const std::size_t nslots_;
  /// Per (pass-in-group, my thread, slot) byte streams; concatenated into
  /// one message per (dest, pass) by post().
  std::array<std::vector<std::vector<std::vector<std::byte>>>, 2> streams_;
  std::vector<GenCounts> counts_;
  std::optional<obs::MemCharge> streams_mem_;
  std::array<std::vector<std::byte>, 2> self_msg_;
  std::vector<std::vector<std::byte>> msgs_;  ///< the draining pass's messages, by src rank
  std::vector<std::uint64_t> region_start_;
  // Stream work counters: copied bytes far above stream bytes is the
  // signature of a stream that regrows on every append.
  obs::Counter& m_grow_ = obs::metrics().counter("comm.stream_grow_events");
  obs::Counter& m_copied_ = obs::metrics().counter("comm.stream_copied_bytes");
  obs::Counter& m_stream_ = obs::metrics().counter("comm.stream_bytes");
};

/// Dump the per-(src, dst) traffic matrices (--comm-matrix-out) as one JSON
/// object: {"ranks": P, "skew": s, "bytes": [[..]], "msgs": [[..]]}.
void write_comm_matrix(const std::string& path, int ranks,
                       const std::vector<std::uint64_t>& bytes,
                       const std::vector<std::uint64_t>& msgs, double skew) {
  std::string out = "{\n  \"ranks\": " + std::to_string(ranks) + ",\n  \"skew\": ";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", skew);
  out += buf;
  auto emit = [&](const char* name, const std::vector<std::uint64_t>& mat) {
    out += ",\n  \"";
    out += name;
    out += "\": [";
    for (int i = 0; i < ranks; ++i) {
      out += i > 0 ? ",\n    [" : "\n    [";
      for (int j = 0; j < ranks; ++j) {
        if (j > 0) out += ",";
        out += std::to_string(mat[static_cast<std::size_t>(i) * ranks + j]);
      }
      out += "]";
    }
    out += "\n  ]";
  };
  emit("bytes", bytes);
  emit("msgs", msgs);
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw util::io_error("comm matrix: cannot open for writing", path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const int rc = std::fclose(f);
  if (written != out.size() || rc != 0)
    throw util::io_error("comm matrix: short write", path);
}

// ---------------------------------------------------------------------------
// The driver's steps, in run order (DESIGN.md "Driver").
// ---------------------------------------------------------------------------

/// Top-N list entry past the last component.
constexpr std::uint32_t kNoRoot = 0xFFFFFFFFu;

/// Component sizes PipelineResult::top_component_sizes reports.
constexpr std::size_t kReportedSizes = 10;

/// Reject a configuration the run cannot honour.
void validate(const DatasetIndex& index, const MetaprepConfig& config) {
  const int k = config.k;
  if (k != index.k)
    throw util::config_error("run_metaprep: config.k differs from the index's k");
  if (k < index.mer_hist.m || k > kmer::kMaxK128)
    throw util::config_error("run_metaprep: k out of range");
  const int P = config.num_ranks;
  const int T = config.threads_per_rank;
  if (P < 1 || T < 1) throw util::config_error("run_metaprep: P and T must be >= 1");
  if (config.output_bins < 0 || config.output_bins > 0xFFFF)
    throw util::config_error("run_metaprep: output_bins must be in [0, 65535]");
  // CC-I/O routes through a 16-bit root -> slot table: N top slots + ".other".
  if (config.output_top_components > 0xFFFE)
    throw util::config_error("run_metaprep: output_top_components must be at most 65534");
  // Both codecs route through a 16-bit bin -> (rank, thread) slot table.
  if (static_cast<std::size_t>(P) * static_cast<std::size_t>(T) > 0xFFFF)
    throw util::config_error("run_metaprep: P*T must fit the 16-bit slot table");
  if (config.comm_compress == CommCompress::kSuperKmer &&
      (config.superkmer_minimizer_len < 1 || config.superkmer_minimizer_len > std::min(k, 31)))
    throw util::config_error("comm-compress: superkmer_minimizer_len must be in [1, min(k, 31)]");
}

/// The run's memory-model input, with S derived from the budget when the
/// config leaves it 0.
MemoryModelInput memory_model_input(const DatasetIndex& index, const MetaprepConfig& config) {
  MemoryModelInput mm;
  mm.total_tuples = index.mer_hist.total();
  mm.total_reads = index.total_reads;
  mm.num_chunks = index.part.num_chunks();
  mm.max_chunk_bytes = index.max_chunk_bytes();
  mm.m = index.mer_hist.m;
  mm.num_ranks = config.num_ranks;
  mm.threads_per_rank = config.threads_per_rank;
  mm.tuple_bytes = config.k > kmer::kMaxK64 ? 20 : 12;
  mm.num_passes = config.num_passes;
  if (mm.num_passes == 0) {
    mm.num_passes = min_passes_for_budget(mm, config.memory_budget_bytes);
    if (mm.num_passes == 0)
      throw util::config_error("run_metaprep: memory budget too small for any pass count");
  }
  return mm;
}

/// The run's shape and every table derived from the index before a rank
/// starts.
struct RunPlan {
  RunPlan(const DatasetIndex& index, const MetaprepConfig& config)
      : mm(memory_model_input(index, config)),
        P(config.num_ranks),
        T(config.threads_per_rank),
        S(mm.num_passes),
        R(index.total_reads),
        passes(index.mer_hist, S, P, T),
        ca(index.part.num_chunks(), P, T),
        slice_off(static_cast<std::size_t>(P), 0),
        slice_len(static_cast<std::size_t>(P), 0) {
    if (config.comm_compress == CommCompress::kSuperKmer) cplan = make_compress_plan(S, P, T);
    for (int q = 0; q < P; ++q) {
      std::uint64_t lo = R;
      std::uint64_t hi = 0;
      for (std::uint32_t c = ca.rank_begin(q); c < ca.rank_end(q); ++c) {
        const ChunkRecord& chunk = index.part.chunks[c];
        lo = std::min<std::uint64_t>(lo, chunk.first_read_id);
        hi = std::max<std::uint64_t>(hi, chunk.first_read_id + chunk.record_count);
      }
      if (hi > lo) {
        slice_off[static_cast<std::size_t>(q)] = lo;
        slice_len[static_cast<std::size_t>(q)] = hi - lo;
      }
    }
  }

  MemoryModelInput mm;  ///< also feeds the attribution report
  int P, T, S;
  std::uint32_t R;
  PassPlan passes;
  ChunkAssignment ca;
  std::vector<CompressPassGeom> cplan;  ///< super-k-mer routing (comm_compress only)
  /// Label-slice geometry for the merge tail's scatter: rank q's chunks
  /// cover the read-ID interval [slice_off[q], slice_off[q] + slice_len[q]).
  /// Derived from the shared chunk table, so every rank computes identical
  /// slices.  Paired-end libraries interleave the per-rank intervals (mates
  /// share one ID), which is why the slices may overlap and each rank's
  /// slice spans roughly 2R/P IDs instead of R/P.
  std::vector<std::uint64_t> slice_off, slice_len;
};

/// Installs the config's session sinks for the whole run; every step
/// resolves its sinks through obs::*::current(), and the overrides
/// propagate to ThreadTeam workers and mpsim rank threads, so a config
/// without a session keeps the process-global singletons.  When the config
/// names output files the run owns that session's tracer and metrics
/// (cleared and enabled here, written by export_artifacts).  attr_out
/// needs the span data, so it forces tracing like trace_out.  Memory
/// attribution rides with tracing: its subsystem high-water marks feed the
/// same report, and its cost discipline is the same
/// one-relaxed-load-when-off.  The destructor restores every flag the
/// scope changed, on the error path too.
struct ObsScope {
  static util::SessionContext session_of(const MetaprepConfig& config) {
    util::SessionContext ctx = util::SessionContext::capture();
    if (config.trace_session != nullptr) ctx.trace = config.trace_session;
    if (config.metrics_registry != nullptr) ctx.metrics = config.metrics_registry;
    if (config.mem_registry != nullptr) ctx.mem = config.mem_registry;
    return ctx;
  }

  ObsScope(const MetaprepConfig& run_config, const RunPlan& plan)
      : config(run_config), session(session_of(run_config)) {
    if (want_trace) {
      tr.clear();
      tr.enable();
    }
    if (!config.metrics_out.empty()) {
      metrics.reset_values();
      metrics.set_enabled(true);
    }
    if (traced && !mem_was_enabled) {
      mem.reset();
      mem.set_enabled(true);
    }
    // --progress: one stderr line driven by the pipeline's phase boundaries.
    // Total ticks = chunk reads per KmerGen sweep (one sweep per pass
    // *group*) plus the CC-I/O sweep when output is on.
    if (config.progress) {
      const std::uint64_t nchunks = plan.mm.num_chunks;
      const auto G = static_cast<std::uint64_t>(group_size(config));
      const std::uint64_t sweeps = (static_cast<std::uint64_t>(plan.S) + G - 1) / G;
      obs::Progress::global().set_enabled(true);
      obs::Progress::global().begin_run(nchunks * sweeps + (config.write_output ? nchunks : 0));
    }
  }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
  ~ObsScope() {
    if (config.progress) {
      obs::Progress::global().finish();
      obs::Progress::global().set_enabled(false);
    }
    if (!config.metrics_out.empty()) metrics.set_enabled(metrics_were_enabled);
    if (want_trace && !trace_was_enabled) tr.disable();
    if (traced && !mem_was_enabled) mem.set_enabled(false);
  }

  const MetaprepConfig& config;
  const util::ScopedSessionContext session;
  obs::TraceSession& tr = obs::TraceSession::current();
  obs::MetricsRegistry& metrics = obs::metrics();
  obs::MemRegistry& mem = obs::MemRegistry::current();
  const bool want_trace = !config.trace_out.empty() || !config.attr_out.empty();
  const bool trace_was_enabled = tr.enabled();
  const bool metrics_were_enabled = metrics.enabled();
  const bool mem_was_enabled = mem.enabled();
  const bool traced = want_trace || trace_was_enabled;
};

/// Rank 0's final components (flatten_and_rank), read by scatter_labels
/// and by result assembly.
struct Components {
  std::vector<std::uint32_t> labels;     ///< root per read
  std::vector<std::uint32_t> top_roots;  ///< N largest roots, kNoRoot-padded
  std::uint64_t count = 0;
  std::vector<std::uint64_t> top_sizes;  ///< up to kReportedSizes, descending
  // Binned output (output_bins >= 1) only.
  std::vector<part::Component> binned;
  part::BinPlan bin_plan;
  part::RootSlotTable root_table;        ///< root -> bin
};

/// What the ranks and PackedIngest leave for result assembly.
struct RunState {
  mpsim::World world;
  std::vector<RankShared> ranks;
  Components components{};   ///< written by rank 0
  io::PackedStoreStats packed{};
  StepTimes ingest_times{};  ///< PackedIngest (packed read store only)
  double wall_s = 0.0;       ///< measured wall for the attribution report
};

/// PackedIngest (--read-store=packed): the run's single FASTQ parse.  Every
/// record lands 2-bit-packed in an arena; the KmerGen scans walk the arena
/// and the per-pass text re-parse disappears.  A named --packed-store arena
/// is serialized and mmapped back (it outlives the run); an ephemeral arena
/// stays in memory and never touches disk.  The ingest is deliberately
/// inside the measured wall: packed mode must pay for its arena to claim a
/// win over text mode.  The parse itself is sharded over the run's worker
/// budget, capped at the machine's real core count — mpsim ranks
/// oversubscribe cores by design, but for the ingest (pure local CPU work,
/// no simulated communication) extra threads on a small host are pure
/// overhead.  Shards merge deterministically, so the arena bytes never
/// depend on the thread count.  Text runs get a closed store.
io::PackedStore packed_ingest(const DatasetIndex& index, const MetaprepConfig& config,
                              const RunPlan& plan, RunState& run) {
  if (config.read_store != ReadStore::kPacked) return {};
  const int threads =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, plan.P * plan.T);
  const StepScope step(run.ingest_times, "PackedIngest");
  if (config.packed_store_path.empty())
    return build_packed_store_in_memory(index, config.parse_mode, threads, &run.packed);
  run.packed = build_packed_store(index, config.packed_store_path, config.parse_mode, threads);
  return io::PackedStore::open(config.packed_store_path);
}

/// MergeCC (§3.6): combine the rank-local forests.  Rank 0 returns the
/// merged global forest; what the other ranks return is unused.
std::vector<std::uint32_t> merge_components(PassCtx& ctx) {
  const int p = ctx.p, P = ctx.P;
  const std::uint32_t R = ctx.index.total_reads;
  StepTimes& times = ctx.my.times;
  mpsim::Comm& comm = ctx.comm;
  util::throw_if_cancelled(ctx.config.cancel_token, "MergeCC");
  progress_phase(ctx, "MergeCC");
  std::vector<std::uint32_t> parents = ctx.local_cc.parents();
  if (ctx.config.merge_strategy == MergeStrategy::kPairwiseTree) {
    // The paper's method (Figure 4): pairwise merge over ceil(log P)
    // rounds; rank 0 ends with the global components.
    constexpr int kMergeTag = 1 << 20;
    int round = 0;
    for (int step = 1; step < P; step <<= 1, ++round) {
      if (p % (2 * step) == step) {
        const StepScope comm_step(times, "Merge-Comm");
        comm.send(p - step, kMergeTag + round, parents.data(),
                  parents.size() * sizeof(std::uint32_t));
        ctx.my.merge_comm_bytes += parents.size() * sizeof(std::uint32_t);
        break;  // this rank is inactive in later rounds
      }
      if (p % (2 * step) == 0 && p + step < P) {
        std::vector<std::uint32_t> incoming(R);
        {
          const StepScope comm_step(times, "Merge-Comm");
          comm.recv(p + step, kMergeTag + round, incoming.data(),
                    incoming.size() * sizeof(std::uint32_t));
        }
        const StepScope merge_step(times, "MergeCC");
        // Each entry is an edge (i, p'[i]); union into the local forest.
        dsu::SerialDSU merged(std::move(parents));
        for (std::uint32_t i = 0; i < R; ++i) {
          if (incoming[i] != i) merged.unite(i, incoming[i]);
        }
        parents = merged.take_parents();
      }
    }
  } else if (P > 1) {
    // Contraction (§5 future work, after Iverson et al.): ship only the
    // non-trivial (vertex, parent) pairs — the contracted component
    // graph — to rank 0 in a single round.
    constexpr int kContractTag = (1 << 20) + 4096;
    if (p != 0) {
      const StepScope comm_step(times, "Merge-Comm");
      std::vector<std::uint32_t> edges;
      for (std::uint32_t i = 0; i < R; ++i) {
        if (parents[i] != i) {
          edges.push_back(i);
          edges.push_back(parents[i]);
        }
      }
      comm.send(0, kContractTag, edges.data(), edges.size() * sizeof(std::uint32_t));
      ctx.my.merge_comm_bytes += edges.size() * sizeof(std::uint32_t);
    } else {
      dsu::SerialDSU merged(std::move(parents));
      for (int q = 1; q < P; ++q) {
        std::vector<std::byte> payload;
        {
          const StepScope comm_step(times, "Merge-Comm");
          payload = comm.recv_any_size(q, kContractTag);
        }
        const StepScope merge_step(times, "MergeCC");
        std::vector<std::uint32_t> edges(payload.size() / sizeof(std::uint32_t));
        std::memcpy(edges.data(), payload.data(), payload.size());
        for (std::size_t i = 0; i + 1 < edges.size(); i += 2) {
          merged.unite(edges[i], edges[i + 1]);
        }
      }
      parents = merged.take_parents();
    }
  }
  return parents;
}

/// Rank 0 flattens labels and ranks component sizes across the thread
/// team; this is the run's only component count.  The labels overwrite
/// the merged parent array once the DSU has adopted a copy of it.
void flatten_and_rank(PassCtx& ctx, std::vector<std::uint32_t> parents, Components& cc) {
  const StepScope step(ctx.my.times, "MergeCC");
  const std::uint32_t R = ctx.index.total_reads;
  // The merged forest must still be a forest: union-by-index promises
  // acyclicity even under the CAS races of LocalCC.
  if (check::enabled()) check::verify_parent_forest(parents, "MergeCC merged forest (rank 0)");
  dsu::AtomicDSU final_dsu{std::span<const std::uint32_t>(parents)};
  std::vector<std::uint32_t>& labels = cc.labels = std::move(parents);
  std::vector<std::uint32_t> sizes(R, 0);
  const auto id_bounds = util::split_range(R, ctx.T);
  // Parallel find with path splitting; per-thread counts land directly
  // in the global size array via atomic increments, and the thread that
  // first touches a root claims it for the (deterministic-set) root
  // list — no O(R) post-scan, no O(R*T) per-thread arrays.
  std::vector<std::vector<std::uint32_t>> thread_roots(static_cast<std::size_t>(ctx.T));
  ctx.team.run([&](int t) {
    auto& my_roots = thread_roots[static_cast<std::size_t>(t)];
    for (std::size_t i = id_bounds[static_cast<std::size_t>(t)];
         i < id_bounds[static_cast<std::size_t>(t) + 1]; ++i) {
      const std::uint32_t root = final_dsu.find(static_cast<std::uint32_t>(i));
      labels[i] = root;
      const std::uint32_t prev =
          std::atomic_ref<std::uint32_t>(sizes[root]).fetch_add(1, std::memory_order_relaxed);
      if (prev == 0) my_roots.push_back(root);
    }
  });
  std::vector<std::uint32_t> roots;
  for (auto& tr_roots : thread_roots) {
    roots.insert(roots.end(), tr_roots.begin(), tr_roots.end());
  }
  if (check::enabled()) {
    // The per-root size counts must conserve the read count: every read
    // labeled once.
    std::uint64_t labeled = 0;
    for (std::uint32_t root : roots) labeled += sizes[root];
    check::verify_size_conservation(labeled, R, "MergeCC flatten component sizes");
  }
  // Bin before the partial sort below: on the root order that sort leaves,
  // binning XL-mini into 8 bins took ~5 ms instead of ~3 ms.
  if (ctx.config.output_bins >= 1) {
    // Component weights in estimated bp: reads * mean bases per read
    // (per-read lengths are not in the index; DESIGN.md documents the
    // proxy).  128-bit intermediate so huge datasets cannot overflow.
    cc.binned.reserve(roots.size());
    for (std::uint32_t root : roots) {
      part::Component comp;
      comp.root = root;
      comp.reads = sizes[root];
      comp.weight_bp = static_cast<std::uint64_t>(
          static_cast<unsigned __int128>(sizes[root]) * ctx.index.total_bases / R);
      cc.binned.push_back(comp);
    }
    cc.bin_plan = part::greedy_bin_pack(cc.binned, ctx.config.output_bins);
    cc.root_table = part::make_root_slot_table(cc.binned, cc.bin_plan);
  }
  // The largest roots by component size, ties by root (a partial
  // selection): the top-N split's roots and the reported sizes.
  const auto top_n = static_cast<std::size_t>(std::max(1, ctx.config.output_top_components));
  const std::size_t take = std::min(std::max(top_n, kReportedSizes), roots.size());
  std::partial_sort(roots.begin(), roots.begin() + static_cast<std::ptrdiff_t>(take), roots.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return sizes[a] != sizes[b] ? sizes[a] > sizes[b] : a < b;
                    });
  cc.count = roots.size();
  cc.top_roots.assign(top_n, kNoRoot);
  for (std::size_t i = 0; i < std::min(top_n, take); ++i) cc.top_roots[i] = roots[i];
  for (std::size_t i = 0; i < std::min(kReportedSizes, take); ++i)
    cc.top_sizes.push_back(sizes[roots[i]]);
}

/// What CC-I/O routes a read by: its label from this rank's slice, then
/// the root -> output slot table.  The top-N split's table holds only the
/// top roots; every other root goes to other_slot (".other").
struct Routing {
  std::vector<std::uint32_t> label_slice;  ///< labels of this rank's slice
  part::RootSlotTable table;
  std::uint16_t other_slot = part::RootSlotTable::kNoSlot;
};

/// The label broadcast of §3.6 ("The global components list in Rank 0 is
/// broadcast to all other tasks"), scaled: each rank receives only the
/// label slice covering its own chunk ranges plus the compact routing
/// tables, O(R/P + #components) per rank instead of O(R).  @p cc is rank
/// 0's components and null on every other rank.
Routing scatter_labels(PassCtx& ctx, const RunPlan& plan, Components* cc) {
  const int p = ctx.p, P = ctx.P;
  const bool bin_mode = ctx.config.output_bins >= 1;
  Routing routing;
  routing.label_slice.resize(plan.slice_len[static_cast<std::size_t>(p)]);
  part::RootSlotTable& table = routing.table;
  std::vector<std::uint32_t> top_roots(
      static_cast<std::size_t>(std::max(1, ctx.config.output_top_components)), kNoRoot);
  if (cc != nullptr) {
    top_roots = cc->top_roots;
    if (bin_mode) table = std::move(cc->root_table);
  }
  {
    // Rank 0 only sends here; its time is not charged to Merge-Comm.
    obs::TraceSpan span("Merge-Comm");
    WallTimer timer;
    std::vector<std::uint64_t> byte_off(plan.slice_off), byte_len(plan.slice_len);
    for (std::size_t q = 0; q < byte_off.size(); ++q) {
      byte_off[q] *= sizeof(std::uint32_t);
      byte_len[q] *= sizeof(std::uint32_t);
    }
    ctx.comm.scatterv(cc != nullptr ? cc->labels.data() : nullptr, byte_off, byte_len,
                      routing.label_slice.data(), 0);
    ctx.comm.broadcast(top_roots.data(), top_roots.size() * sizeof(std::uint32_t), 0);
    if (bin_mode && P > 1) {
      std::uint64_t ncomp = table.roots.size();
      ctx.comm.broadcast(&ncomp, sizeof(ncomp), 0);
      table.roots.resize(ncomp);
      table.slots.resize(ncomp);
      if (ncomp > 0) {
        ctx.comm.broadcast(table.roots.data(), ncomp * sizeof(std::uint32_t), 0);
        ctx.comm.broadcast(table.slots.data(), ncomp * sizeof(std::uint16_t), 0);
      }
    }
    if (p != 0) ctx.my.times.add("Merge-Comm", timer.seconds());
  }
  if (!bin_mode) {
    // Top-N split: slot j holds the j-th largest component.
    std::vector<part::Component> top;
    part::BinPlan slots;
    for (std::uint16_t j = 0; j < top_roots.size() && top_roots[j] != kNoRoot; ++j) {
      top.push_back(part::Component{.root = top_roots[j]});
      slots.slot_of.push_back(j);
    }
    routing.other_slot = static_cast<std::uint16_t>(top.size());
    table = part::make_root_slot_table(top, slots);
  }
  phase_boundary(ctx, "MergeCC");
  return routing;
}

/// CC-I/O (§3.6): each thread re-reads its FASTQ chunks and writes every
/// read to its slot's per-thread output file.  The top-N split opens all of
/// its files up front; bin files open on first use, so no bin file is
/// empty.  Labels come from the scattered slice, indexed relative to this
/// rank's slice offset @p slice_off.
void write_partitions(PassCtx& ctx, const Routing& routing, std::uint64_t slice_off) {
  const MetaprepConfig& config = ctx.config;
  const DatasetIndex& index = ctx.index;
  const int p = ctx.p;
  const bool bin_mode = config.output_bins >= 1;
  const std::size_t nslots = bin_mode ? static_cast<std::size_t>(config.output_bins)
                                      : static_cast<std::size_t>(routing.other_slot) + 1;
  progress_phase(ctx, "CC-I/O");
  {
    const StepScope step(ctx.my.times, "CC-I/O");
    ctx.my.written.resize(static_cast<std::size_t>(ctx.T));
    ctx.team.run([&](int t) {
      if (ctx.ca.thread_begin(p, t) >= ctx.ca.thread_end(p, t)) return;
      const std::string base = config.output_dir + "/" + index.name + ".p" + std::to_string(p) +
                               ".t" + std::to_string(t);
      auto& files = ctx.my.written[static_cast<std::size_t>(t)];
      std::vector<std::unique_ptr<io::FastqWriter>> writers;
      std::vector<std::size_t> writer_of(nslots, static_cast<std::size_t>(-1));
      auto writer = [&](std::uint16_t slot) -> std::size_t {
        std::size_t& w = writer_of[slot];
        if (w == static_cast<std::size_t>(-1)) {
          const std::string suffix = bin_mode                     ? ".b" + std::to_string(slot)
                                     : slot == routing.other_slot ? ".other"
                                     : config.output_top_components <= 1 ? ".lc"
                                                                   : ".c" + std::to_string(slot);
          files.emplace_back(part::BinFile{base + suffix + ".fastq", 0}, slot);
          writers.push_back(std::make_unique<io::FastqWriter>(files.back().first.path));
          w = writers.size() - 1;
        }
        return w;
      };
      if (!bin_mode) {
        for (std::size_t slot = 0; slot < nslots; ++slot) writer(static_cast<std::uint16_t>(slot));
      }

      for (std::uint32_t c = ctx.ca.thread_begin(p, t); c < ctx.ca.thread_end(p, t); ++c) {
        util::throw_if_cancelled(config.cancel_token, "CC-I/O chunk");
        const ChunkRecord& chunk = index.part.chunks[c];
        const auto buffer = io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
        const obs::MemCharge io_mem("io", buffer.size());
        std::uint32_t read_id = chunk.first_read_id;
        io::ParseOptions popt{config.parse_mode, index.files[chunk.file], chunk.offset,
                              [&read_id] { ++read_id; }};
        io::for_each_record_in_buffer(
            std::string_view(buffer.data(), buffer.size()),
            [&](std::string_view id, std::string_view seq, std::string_view qual) {
              const std::uint16_t slot =
                  routing.table.slot_of(routing.label_slice[read_id - slice_off]);
              const std::size_t w =
                  writer(slot == part::RootSlotTable::kNoSlot ? routing.other_slot : slot);
              writers[w]->write(id, seq, qual);
              ++files[w].first.records;
              ++read_id;
            },
            popt);
        obs::Progress::global().chunk_done();
      }
      // Explicit close so a failed flush (e.g. ENOSPC) surfaces as a typed
      // Error instead of being swallowed by the destructor.
      for (auto& w : writers) w->close();
    });
  }
  phase_boundary(ctx, "CC-I/O");
}

/// Fold the ranks' accounting, rank 0's components and the world's traffic
/// into the result, and write the bin manifest.
PipelineResult assemble_result(const DatasetIndex& index, const MetaprepConfig& config,
                               const RunPlan& plan, RunState& run) {
  const bool bin_mode = config.output_bins >= 1;
  Components& cc = run.components;
  PipelineResult result;
  result.num_reads = plan.R;
  result.passes_used = plan.S;
  result.labels = std::move(cc.labels);
  result.num_components = cc.count;
  if (!cc.top_sizes.empty()) {
    result.largest_root = cc.top_roots[0];
    result.largest_size = cc.top_sizes[0];
    result.largest_fraction =
        static_cast<double>(result.largest_size) / static_cast<double>(plan.R);
  }
  result.top_component_sizes = std::move(cc.top_sizes);
  std::vector<part::BinFile> bin_files;
  std::vector<std::uint16_t> file_bins;
  for (RankShared& rs : run.ranks) {
    result.step_times.merge_max(rs.times);
    result.rank_times.push_back(rs.times);
    result.total_tuples += rs.tuples;
    result.merge_comm_bytes += rs.merge_comm_bytes;
    result.max_tuple_buffer_bytes = std::max(result.max_tuple_buffer_bytes, rs.max_buffer_bytes);
    result.cc_iterations_max = std::max(result.cc_iterations_max, rs.cc_iterations);
    result.records_skipped += rs.records_skipped;
    result.exchange_bytes += rs.exchange_bytes;
    result.exchange_bytes_raw += rs.exchange_bytes_raw;
    result.superkmer_records += rs.superkmer_records;
    for (const auto& thread_files : rs.written) {
      for (const auto& [file, slot] : thread_files) {
        result.output_files.push_back(file.path);
        bin_files.push_back(file);
        file_bins.push_back(slot);
      }
    }
  }
  if (result.exchange_bytes_raw > 0) {
    result.superkmer_ratio = static_cast<double>(result.exchange_bytes) /
                             static_cast<double>(result.exchange_bytes_raw);
  }
  if (config.read_store == ReadStore::kPacked) {
    // The arena recorded every skip at ingest; the scans saw none.  Text
    // mode accumulated the same distinct-record count from pass 1.
    result.records_skipped = run.packed.skipped;
    result.packed_ingest_seconds = run.ingest_times.get("PackedIngest");
    result.packed_store_bytes = run.packed.file_bytes;
    result.step_times.merge(run.ingest_times);
  }
  result.traffic_matrix = run.world.traffic_matrix();
  result.message_matrix = run.world.message_matrix();
  result.total_traffic_bytes = run.world.total_traffic_bytes();
  result.message_count = run.world.message_count();
  result.sim_comm_seconds = run.world.max_simulated_comm_seconds();

  // Merge/output tail accounting: what the label scatter actually shipped
  // cross-rank (rank 0 keeps its own slice) and, in bin mode, the compact
  // root->bin table broadcast — O(R/P + #components) per rank versus the
  // old O(R) full-label broadcast.
  for (std::size_t q = 1; q < plan.slice_len.size(); ++q) {
    result.label_scatter_bytes += plan.slice_len[q] * sizeof(std::uint32_t);
  }
  if (bin_mode && plan.R > 0) {
    if (plan.P > 1) {
      const std::uint64_t table_bytes =
          sizeof(std::uint64_t) +
          cc.binned.size() * (sizeof(std::uint32_t) + sizeof(std::uint16_t));
      result.root_table_bytes = static_cast<std::uint64_t>(plan.P - 1) * table_bytes;
    }
    result.bin_reads = cc.bin_plan.bin_reads;
    result.bin_weights_bp = cc.bin_plan.bin_weight_bp;
    result.bin_skew = cc.bin_plan.skew();
    if (config.write_output) {
      const part::BinManifest manifest = part::build_bin_manifest(
          index.name, plan.R, cc.binned, cc.bin_plan, bin_files, file_bins);
      result.bin_manifest_path = config.output_dir + "/" + index.name + ".bins.json";
      part::save_bin_manifest(manifest, result.bin_manifest_path);
    }
  }
  return result;
}

/// Performance attribution (src/obs/attr): whenever the run was traced,
/// fold the span analysis, the comm matrices, and the measured-vs-modeled
/// memory reconciliation into one AttrReport.
void attribute(PipelineResult& result, const ObsScope& scope, const RunPlan& plan,
               const RunState& run) {
  if (!scope.traced) return;
  obs::AttrReport ar = obs::PhaseAccountant::analyze(scope.tr.snapshot(), run.wall_s * 1e6);
  ar.ranks = plan.P;
  ar.threads = plan.T;
  ar.passes = plan.S;
  ar.comm_ranks = plan.P;
  ar.comm_bytes = result.traffic_matrix;
  ar.comm_msgs = result.message_matrix;
  ar.comm_skew = obs::comm_matrix_skew(result.traffic_matrix, plan.P);
  ar.peak_rss_bytes = util::peak_rss_bytes();
  ar.rss_samples = run.ranks[0].rss_samples;
  // The model predicts bytes per task; the registry measures the whole
  // process hosting all P ranks, so predictions scale by P.  "sort" and
  // "pool" have no model term and report measured-only.
  const MemoryBreakdown pred = estimate_memory(plan.mm);
  const auto up = static_cast<std::uint64_t>(plan.P);
  for (const auto& [name, usage] : scope.mem.snapshot()) {
    obs::MemSubsystem ms;
    ms.name = name;
    ms.high_water_bytes =
        usage.high_water > 0 ? static_cast<std::uint64_t>(usage.high_water) : 0;
    if (name == "tuples") {
      ms.predicted_bytes = (pred.kmer_out + pred.kmer_in) * up;
    } else if (name == "dsu") {
      ms.predicted_bytes = (pred.p_array + pred.p_prime) * up;
    } else if (name == "io") {
      ms.predicted_bytes = pred.fastq_buffer * up;
    }
    ar.memory.push_back(std::move(ms));
  }
  ar.mem_predicted_total = pred.total * up;
  result.has_attr = true;
  result.attr = std::move(ar);
}

/// Publish the run-level metrics and write every artifact the config names.
void export_artifacts(const ObsScope& scope, const PipelineResult& result, int P) {
  const MetaprepConfig& config = scope.config;
  obs::MetricsRegistry& m = scope.metrics;
  const double comm_skew = obs::comm_matrix_skew(result.traffic_matrix, P);
  const auto peak_rss = static_cast<double>(util::peak_rss_bytes());
  m.counter("part.label_scatter_bytes").add(result.label_scatter_bytes);
  m.counter("part.root_table_bytes").add(result.root_table_bytes);
  m.counter("comm.alltoallv_bytes").add(result.exchange_bytes);
  m.counter("comm.alltoallv_bytes_raw").add(result.exchange_bytes_raw);
  m.counter("comm.superkmer_records").add(result.superkmer_records);
  if (result.exchange_bytes_raw > 0) m.gauge("comm.superkmer_ratio").set(result.superkmer_ratio);
  m.gauge("pipeline.passes").set(static_cast<double>(result.passes_used));
  m.gauge("pipeline.components").set(static_cast<double>(result.num_components));
  m.gauge("pipeline.largest_fraction").set(result.largest_fraction);
  m.gauge("pipeline.max_tuple_buffer_bytes")
      .set_max(static_cast<double>(result.max_tuple_buffer_bytes));
  m.gauge("pipeline.cc_iterations_max").set_max(static_cast<double>(result.cc_iterations_max));
  m.gauge("mpsim.sim_comm_seconds").set_max(result.sim_comm_seconds);
  m.gauge("mem.rss_peak").set_max(peak_rss);
  m.gauge("proc.peak_rss_bytes").set_max(peak_rss);
  // Comm-matrix export as metrics: the off-diagonal byte cells land in one
  // histogram (the distribution is what skew summarizes) plus the skew
  // gauge, so metrics-only consumers see the exchange shape too.
  if (m.enabled() && P > 1) {
    obs::Histogram& h = m.histogram("mpsim.comm_matrix");
    for (int i = 0; i < P; ++i) {
      for (int j = 0; j < P; ++j) {
        if (i == j) continue;
        const std::uint64_t v = result.traffic_matrix[static_cast<std::size_t>(i) * P + j];
        if (v > 0) h.record(v);
      }
    }
    m.gauge("mpsim.comm_matrix_skew").set_max(comm_skew);
  }
  for (const auto& ms : result.attr.memory) {
    m.gauge("mem." + ms.name + ".high_water").set_max(static_cast<double>(ms.high_water_bytes));
  }
  if (!config.metrics_out.empty()) m.write_jsonl(config.metrics_out);
  if (!config.attr_out.empty()) result.attr.write_json(config.attr_out);
  if (!config.comm_matrix_out.empty()) {
    write_comm_matrix(config.comm_matrix_out, P, result.traffic_matrix, result.message_matrix,
                      comm_skew);
  }
  if (!config.trace_out.empty()) scope.tr.write_chrome_json(config.trace_out);
  scope.tr.flush();  // no-op unless the session has an armed flush path
}

}  // namespace

CommCompress parse_comm_compress(const std::string& name) {
  if (name == "none") return CommCompress::kNone;
  if (name == "superkmer") return CommCompress::kSuperKmer;
  throw util::config_error("--comm-compress must be 'none' or 'superkmer' (got '" + name +
                           "')");
}

PipelineResult run_metaprep(const DatasetIndex& index, const MetaprepConfig& config) {
  validate(index, config);
  const RunPlan plan(index, config);
  const ObsScope scope(config, plan);
  RunState run{.world = mpsim::World(plan.P, config.cost_model),
               .ranks = std::vector<RankShared>(static_cast<std::size_t>(plan.P))};
  const WallTimer run_timer;
  // An empty dataset runs no step and writes no output file; its result
  // and artifacts report zero components.
  if (plan.R > 0) {
    const io::PackedStore packed = packed_ingest(index, config, plan, run);
    run.world.run([&](mpsim::Comm& comm) {
      const int p = comm.rank();
      obs::TraceSession::set_thread_identity(p, 0);
      ThreadTeam team(plan.T);
      dsu::AtomicDSU local_cc(plan.R);
      PassCtx ctx{index, config, plan.passes, plan.ca, comm, team, local_cc,
                  run.ranks[static_cast<std::size_t>(p)], packed.is_open() ? &packed : nullptr,
                  p, plan.P, plan.T, plan.S};
      if (config.comm_compress == CommCompress::kSuperKmer) {
        run_passes(ctx, SuperKmerCodec(ctx, plan.cplan));
      } else {
        run_passes(ctx, FixedTupleCodec(ctx));
      }
      {
        std::vector<std::uint32_t> merged = merge_components(ctx);
        if (p == 0) flatten_and_rank(ctx, std::move(merged), run.components);
      }
      const Routing routing = scatter_labels(ctx, plan, p == 0 ? &run.components : nullptr);
      if (config.write_output)
        write_partitions(ctx, routing, plan.slice_off[static_cast<std::size_t>(p)]);
    });
    run.wall_s = run_timer.seconds();
  }
  PipelineResult result = assemble_result(index, config, plan, run);
  attribute(result, scope, plan, run);
  export_artifacts(scope, result, plan.P);
  return result;
}

std::vector<std::uint32_t> reference_components(const DatasetIndex& index,
                                                const KmerFreqFilter& filter,
                                                io::ParseMode parse_mode) {
  const int k = index.k;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint32_t>> kmer_reads;
  for (std::uint32_t c = 0; c < index.part.num_chunks(); ++c) {
    const ChunkRecord& chunk = index.part.chunks[c];
    const auto buffer = io::read_file_range(index.files[chunk.file], chunk.offset, chunk.size);
    std::uint32_t read_id = chunk.first_read_id;
    io::ParseOptions popt{parse_mode, index.files[chunk.file], chunk.offset,
                          [&read_id] { ++read_id; }};
    io::for_each_record_in_buffer(
        std::string_view(buffer.data(), buffer.size()),
        [&](std::string_view, std::string_view seq, std::string_view) {
          if (k <= kmer::kMaxK64) {
            kmer::for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) {
              kmer_reads[{0, km}].push_back(read_id);
            });
          } else {
            kmer::for_each_canonical_kmer128(seq, k, [&](kmer::Kmer128 km, std::size_t) {
              kmer_reads[{km.hi, km.lo}].push_back(read_id);
            });
          }
          ++read_id;
        },
        popt);
  }
  dsu::SerialDSU dsu(index.total_reads);
  for (const auto& [km, reads] : kmer_reads) {
    if (!filter.accepts(reads.size())) continue;
    for (std::size_t i = 1; i < reads.size(); ++i) dsu.unite(reads[i - 1], reads[i]);
  }
  return dsu.labels();
}

}  // namespace metaprep::core
