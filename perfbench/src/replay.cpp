#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>

#include "core/plan.hpp"
#include "dsu/dsu.hpp"
#include "io/fastq.hpp"
#include "kmer/codec.hpp"
#include "kmer/scanner.hpp"
#include "kmer/superkmer.hpp"
#include "mpsim/comm.hpp"
#include "sort/radix.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace core = metaprep::core;
namespace io = metaprep::io;
namespace kmer = metaprep::kmer;
namespace util = metaprep::util;

std::vector<Piece> whole_file_pieces(const std::vector<std::string>& files) {
  std::vector<Piece> out;
  for (const std::string& f : files) out.push_back(Piece{f, 0, io::file_size_bytes(f), 0});
  return out;
}

std::vector<Piece> chunk_pieces(const core::DatasetIndex& index) {
  std::vector<Piece> out;
  for (const core::ChunkRecord& c : index.part.chunks) {
    out.push_back(Piece{index.files[c.file], c.offset, c.size, c.first_read_id});
  }
  return out;
}

ParsedReads read_pieces(const std::vector<Piece>& pieces) {
  ParsedReads out;
  out.buffers.reserve(pieces.size());
  out.piece_rec_begin.push_back(0);
  for (const Piece& pc : pieces) {
    out.buffers.push_back(io::read_file_range(pc.path, pc.offset, pc.size));
    const std::vector<char>& buf = out.buffers.back();
    out.bytes += buf.size();

    util::WallTimer parse_timer;
    std::uint32_t read_id = pc.first_read_id;
    io::ParseOptions opt{io::ParseMode::kStrict, pc.path, pc.offset};
    io::for_each_record_in_buffer(
        std::string_view(buf.data(), buf.size()),
        [&](std::string_view id, std::string_view seq, std::string_view qual) {
          out.recs.push_back(ParsedReads::Rec{id, seq, qual, read_id++});
        },
        opt);
    out.parse_seconds += parse_timer.seconds();
    out.piece_rec_begin.push_back(out.recs.size());
  }
  return out;
}

Tuples scan_tuples(const ParsedReads& reads, int k) {
  std::uint64_t windows = 0;
  for (const ParsedReads::Rec& r : reads.recs) {
    if (r.seq.size() >= static_cast<std::size_t>(k)) windows += r.seq.size() - k + 1;
  }
  Tuples t;
  t.keys.reserve(windows);
  t.vals.reserve(windows);
  t.piece_tuple_begin.push_back(0);
  for (std::size_t pc = 0; pc + 1 < reads.piece_rec_begin.size(); ++pc) {
    for (std::size_t i = reads.piece_rec_begin[pc]; i < reads.piece_rec_begin[pc + 1]; ++i) {
      const ParsedReads::Rec& r = reads.recs[i];
      kmer::for_each_canonical_kmer64(r.seq, k, [&](std::uint64_t km, std::size_t) {
        t.keys.push_back(km);
        t.vals.push_back(r.read_id);
      });
    }
    t.piece_tuple_begin.push_back(t.keys.size());
  }
  return t;
}

std::vector<std::uint32_t> canonical_labels(const std::vector<std::uint32_t>& labels) {
  constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  std::vector<std::uint32_t> first(labels.size(), kUnset);
  std::vector<std::uint32_t> out(labels.size());
  for (std::uint32_t i = 0; i < labels.size(); ++i) {
    const std::uint32_t l = labels[i];
    if (l >= labels.size()) throw std::runtime_error("label out of range");
    if (first[l] == kUnset) first[l] = i;
    out[i] = first[l];
  }
  return out;
}

namespace {

/// Calls fn(u, v) for consecutive values of every run of equal keys in
/// [lo, hi) whose length the filter accepts, skipping u == v.
template <typename Fn>
void for_each_edge(const std::uint64_t* keys, const std::uint32_t* vals, std::uint64_t lo,
                   std::uint64_t hi, const core::KmerFreqFilter& filter, Fn&& fn) {
  std::uint64_t i = lo;
  while (i < hi) {
    std::uint64_t j = i + 1;
    while (j < hi && keys[j] == keys[i]) ++j;
    if (filter.accepts(j - i)) {
      for (std::uint64_t x = i + 1; x < j; ++x) {
        if (vals[x - 1] != vals[x]) fn(vals[x - 1], vals[x]);
      }
    }
    i = j;
  }
}

void summarize(Reference& ref) {
  std::vector<std::uint64_t> size(ref.canon.size(), 0);
  for (std::uint32_t l : ref.canon) ++size[l];
  ref.components = 0;
  for (std::uint64_t s : size) {
    if (s > 0) ++ref.components;
  }
}

}  // namespace

Reference build_reference(Tuples tuples, std::uint32_t reads, const core::KmerFreqFilter& filter,
                          int k) {
  Reference ref;
  ref.reads = reads;
  ref.tuples = tuples.keys.size();
  metaprep::sort::radix_sort_kv64(tuples.keys, tuples.vals, 2 * k);
  metaprep::dsu::SerialDSU dsu(reads);
  for_each_edge(tuples.keys.data(), tuples.vals.data(), 0, tuples.keys.size(), filter,
                [&](std::uint32_t u, std::uint32_t v) { dsu.unite(u, v); });
  ref.canon = canonical_labels(dsu.labels());
  summarize(ref);
  return ref;
}

void save_reference(const Reference& ref, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t head[3] = {ref.reads, ref.tuples, ref.components};
  out.write(reinterpret_cast<const char*>(head), sizeof(head));
  out.write(reinterpret_cast<const char*>(ref.canon.data()),
            static_cast<std::streamsize>(ref.canon.size() * sizeof(std::uint32_t)));
  if (!out) throw std::runtime_error("cannot write " + path);
}

Reference load_reference(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t head[3] = {};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  Reference ref;
  ref.reads = static_cast<std::uint32_t>(head[0]);
  ref.tuples = head[1];
  ref.components = head[2];
  ref.canon.resize(ref.reads);
  in.read(reinterpret_cast<char*>(ref.canon.data()),
          static_cast<std::streamsize>(ref.canon.size() * sizeof(std::uint32_t)));
  if (!in) throw std::runtime_error("cannot read " + path);
  return ref;
}

Cells partition_cells(const Tuples& tuples, const core::DatasetIndex& index, int S, int P, int T,
                      int k) {
  const int m = index.mer_hist.m;
  const core::PassPlan plan(index.mer_hist, S, P, T);
  const std::size_t ncells = static_cast<std::size_t>(S) * P * T;
  std::vector<std::uint32_t> cell_of_bin(index.mer_hist.counts.size(), 0);
  for (int s = 0; s < S; ++s) {
    for (int p = 0; p < P; ++p) {
      for (int t = 0; t < T; ++t) {
        const core::BinRange r = plan.thread_range(s, p, t);
        for (std::uint32_t b = r.begin; b < r.end; ++b)
          cell_of_bin[b] = static_cast<std::uint32_t>((s * P + p) * T + t);
      }
    }
  }
  const core::ChunkAssignment ca(index.part.num_chunks(), P, T);
  std::vector<int> rank_of_chunk(index.part.num_chunks(), 0);
  for (int q = 0; q < P; ++q) {
    for (std::uint32_t c = ca.rank_begin(q); c < ca.rank_end(q); ++c) rank_of_chunk[c] = q;
  }

  Cells cells;
  cells.S = S;
  cells.P = P;
  cells.T = T;
  cells.src_count.assign(static_cast<std::size_t>(S) * P * P, 0);
  std::vector<std::uint64_t> count(ncells, 0);
  for (std::size_t c = 0; c + 1 < tuples.piece_tuple_begin.size(); ++c) {
    const int q = rank_of_chunk[c];
    for (std::uint64_t i = tuples.piece_tuple_begin[c]; i < tuples.piece_tuple_begin[c + 1]; ++i) {
      const std::uint32_t cell = cell_of_bin[kmer::prefix_bin64(tuples.keys[i], k, m)];
      ++count[cell];
      const std::uint32_t sp = cell / static_cast<std::uint32_t>(T);  // s * P + p
      const std::uint32_t s = sp / static_cast<std::uint32_t>(P);
      const std::uint32_t p = sp % static_cast<std::uint32_t>(P);
      ++cells.src_count[(static_cast<std::size_t>(s) * P + q) * P + p];
    }
  }
  cells.begin.assign(ncells + 1, 0);
  for (std::size_t c = 0; c < ncells; ++c) cells.begin[c + 1] = cells.begin[c] + count[c];
  cells.keys.resize(tuples.keys.size());
  cells.vals.resize(tuples.keys.size());
  std::vector<std::uint64_t> cursor(cells.begin.begin(), cells.begin.end() - 1);
  for (std::size_t i = 0; i < tuples.keys.size(); ++i) {
    const std::uint64_t at = cursor[cell_of_bin[kmer::prefix_bin64(tuples.keys[i], k, m)]]++;
    cells.keys[at] = tuples.keys[i];
    cells.vals[at] = tuples.vals[i];
  }
  return cells;
}

double sort_cells(Cells& cells, int k) {
  std::uint64_t widest = 0;
  for (std::size_t c = 0; c + 1 < cells.begin.size(); ++c)
    widest = std::max(widest, cells.begin[c + 1] - cells.begin[c]);
  std::vector<std::uint64_t> tmp_keys(widest);
  std::vector<std::uint32_t> tmp_vals(widest);
  util::WallTimer timer;
  for (std::size_t c = 0; c + 1 < cells.begin.size(); ++c) {
    const std::uint64_t lo = cells.begin[c];
    const std::size_t n = cells.begin[c + 1] - lo;
    if (n == 0) continue;
    metaprep::sort::radix_sort_kv64(std::span(cells.keys).subspan(lo, n),
                                    std::span(cells.vals).subspan(lo, n),
                                    std::span(tmp_keys).first(n), std::span(tmp_vals).first(n),
                                    2 * k);
  }
  return timer.seconds();
}

DsuReplay union_cells(const Cells& cells, std::uint32_t reads,
                      const core::KmerFreqFilter& filter) {
  DsuReplay out;
  metaprep::dsu::AtomicDSU dsu(reads);
  util::WallTimer timer;
  for (std::size_t c = 0; c + 1 < cells.begin.size(); ++c) {
    for_each_edge(cells.keys.data(), cells.vals.data(), cells.begin[c], cells.begin[c + 1],
                  filter, [&](std::uint32_t u, std::uint32_t v) {
                    dsu.unite(u, v);
                    ++out.unions;
                  });
  }
  out.seconds = timer.seconds();
  out.canon = canonical_labels(dsu.labels());
  return out;
}

namespace {

/// One staged all-to-all per pass.  blocks(s, q, p) is the byte size rank q
/// sends rank p in pass s; buffers are allocated and touched before timing.
template <typename Blocks, typename Fill>
ExchangeReplay staged_exchange(int S, int P, Blocks&& blocks, Fill&& fill) {
  ExchangeReplay out;
  for (int s = 0; s < S; ++s) {
    std::vector<std::vector<std::uint64_t>> send_off(P), recv_off(P);
    std::vector<std::vector<std::byte>> send(P), recv(P);
    for (int p = 0; p < P; ++p) {
      send_off[p].assign(P + 1, 0);
      recv_off[p].assign(P + 1, 0);
      for (int d = 0; d < P; ++d) {
        send_off[p][d + 1] = send_off[p][d] + blocks(s, p, d);
        recv_off[p][d + 1] = recv_off[p][d] + blocks(s, d, p);
        out.bytes += blocks(s, p, d);
      }
      send[p].resize(send_off[p][P]);
      fill(s, p, send[p], send_off[p]);
      recv[p].assign(recv_off[p][P], std::byte{0});
    }
    metaprep::mpsim::World world(P);
    util::WallTimer timer;
    world.run([&](metaprep::mpsim::Comm& comm) {
      const int p = comm.rank();
      comm.alltoallv_staged(send[p].data(), send_off[p], recv[p].data(), recv_off[p], 100 + s);
    });
    out.seconds += timer.seconds();
  }
  return out;
}

}  // namespace

ExchangeReplay exchange_tuples(const Cells& cells) {
  constexpr std::uint64_t kTupleBytes = 12;
  const int P = cells.P;
  return staged_exchange(
      cells.S, P,
      [&](int s, int q, int p) {
        return cells.src_count[(static_cast<std::size_t>(s) * P + q) * P + p] * kTupleBytes;
      },
      [](int, int, std::vector<std::byte>& buf, const std::vector<std::uint64_t>&) {
        std::fill(buf.begin(), buf.end(), std::byte{0x5A});
      });
}

ExchangeReplay exchange_messages(const SuperKmerReplay& sk) {
  const int S = static_cast<int>(sk.messages.size());
  const int P = S > 0 ? static_cast<int>(sk.messages[0].size()) : 1;
  return staged_exchange(
      S, P, [&](int s, int q, int p) -> std::uint64_t { return sk.messages[s][q][p].size(); },
      [&](int s, int p, std::vector<std::byte>& buf, const std::vector<std::uint64_t>& off) {
        for (int d = 0; d < P; ++d) {
          const auto& msg = sk.messages[s][p][d];
          if (!msg.empty()) std::memcpy(buf.data() + off[d], msg.data(), msg.size());
        }
      });
}

SuperKmerReplay superkmer_roundtrip(const ParsedReads& chunk_reads,
                                    const core::DatasetIndex& index, int S, int P, int T, int k,
                                    int minimizer_len) {
  const int W = P * T;
  const std::size_t nslots = static_cast<std::size_t>(W);
  // Routing: minimizer-hash bins split uniformly over passes, then each
  // pass's bins uniformly over the P * T destination slots.
  std::vector<std::uint16_t> pass_of(kmer::kNumMinimizerBins), slot_of(kmer::kNumMinimizerBins);
  const auto pass_bounds = util::split_range(kmer::kNumMinimizerBins, S);
  for (int s = 0; s < S; ++s) {
    const std::size_t lo = pass_bounds[s], hi = pass_bounds[s + 1];
    const auto slot_bounds = util::split_range(hi - lo, W);
    for (int d = 0; d < W; ++d) {
      for (std::size_t b = lo + slot_bounds[d]; b < lo + slot_bounds[d + 1]; ++b) {
        pass_of[b] = static_cast<std::uint16_t>(s);
        slot_of[b] = static_cast<std::uint16_t>(d);
      }
    }
  }

  // streams[s][w][slot]
  std::vector<std::vector<std::vector<std::vector<std::byte>>>> streams(
      S, std::vector<std::vector<std::vector<std::byte>>>(
             W, std::vector<std::vector<std::byte>>(nslots)));
  struct WorkerCounts {
    std::uint64_t records = 0, kmers = 0, grow = 0, copied = 0, decoded = 0;
  };
  std::vector<WorkerCounts> wc(W);
  const core::ChunkAssignment ca(index.part.num_chunks(), P, T);

  util::ThreadTeam team(W);

  // Barrier schedule: every pass re-scans the worker's chunks and keeps
  // only the runs whose bin belongs to that pass.
  SuperKmerReplay out;
  util::WallTimer enc_timer;
  for (int s = 0; s < S; ++s) team.run([&](int w) {
    const int p = w / T, t = w % T;
    WorkerCounts& c = wc[w];
    kmer::SuperKmerScanner scanner;
    for (std::uint32_t ch = ca.thread_begin(p, t); ch < ca.thread_end(p, t); ++ch) {
      for (std::size_t i = chunk_reads.piece_rec_begin[ch]; i < chunk_reads.piece_rec_begin[ch + 1];
           ++i) {
        const ParsedReads::Rec& rec = chunk_reads.recs[i];
        scanner.scan(rec.seq, k, minimizer_len,
                     [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
          const std::uint32_t bin = kmer::minimizer_bin(mz);
          if (pass_of[bin] != s) return;
          std::vector<std::byte>& stream = streams[s][w][slot_of[bin]];
          c.kmers += count;
          std::uint32_t a = 0;
          while (count > 0) {
            const std::uint32_t take = std::min(count, kmer::kMaxSuperKmerRun);
            const std::size_t cap0 = stream.capacity();
            const std::size_t size0 = stream.size();
            kmer::append_superkmer_record(stream, rec.read_id, take, k, [&](std::size_t j) {
              return kmer::base_code(rec.seq[start + a + j]);
            });
            if (stream.capacity() != cap0) {
              ++c.grow;
              c.copied += size0;
            }
            ++c.records;
            a += take;
            count -= take;
          }
        });
      }
    }
  });
  out.encode_seconds = enc_timer.seconds();

  util::WallTimer dec_timer;
  team.run([&](int w) {
    std::uint64_t n = 0;
    for (int s = 0; s < S; ++s) {
      for (const std::vector<std::byte>& st : streams[s][w]) {
        kmer::SuperKmerReader rd(st.data(), st.size(), k);
        while (!rd.done()) {
          rd.next_header();
          rd.expand64([&](std::uint64_t) { ++n; });
        }
      }
    }
    wc[w].decoded = n;
  });
  out.decode_seconds = dec_timer.seconds();

  for (const WorkerCounts& c : wc) {
    out.records += c.records;
    out.kmers += c.kmers;
    out.grow_events += c.grow;
    out.copied_bytes += c.copied;
    out.decoded_kmers += c.decoded;
  }
  // Wire messages as the pipeline builds them: per (pass, dest rank), a
  // u64 length per destination thread, then the streams in (dt, t) order.
  out.messages.assign(S, std::vector<std::vector<std::vector<std::byte>>>(
                             P, std::vector<std::vector<std::byte>>(P)));
  for (int s = 0; s < S; ++s) {
    for (int p = 0; p < P; ++p) {
      for (int d = 0; d < P; ++d) {
        std::vector<std::byte>& msg = out.messages[s][p][d];
        for (int dt = 0; dt < T; ++dt) {
          std::uint64_t len = 0;
          for (int t = 0; t < T; ++t) len += streams[s][p * T + t][d * T + dt].size();
          for (int b = 0; b < 8; ++b) {
            msg.push_back(static_cast<std::byte>((len >> (8 * b)) & 0xFF));
          }
        }
        for (int dt = 0; dt < T; ++dt) {
          for (int t = 0; t < T; ++t) {
            const auto& st = streams[s][p * T + t][d * T + dt];
            msg.insert(msg.end(), st.begin(), st.end());
            out.stream_bytes += st.size();
          }
        }
        if (d != p) out.shipped_bytes += msg.size();
      }
    }
  }
  return out;
}

}  // namespace perfbench
