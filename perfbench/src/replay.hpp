// Layer replays: each library layer re-run on a workload's own data through
// that module's public functions, so the traced run can time and count one
// layer at a time.  The serial path (scan -> sort -> frequency filter ->
// SerialDSU) also builds the reference partition every timed run is
// checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/indices.hpp"

namespace perfbench {

/// A byte range of one FASTQ file whose records carry consecutive read IDs
/// from first_read_id (an index chunk, or a whole file).
struct Piece {
  std::string path;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t first_read_id = 0;
};

std::vector<Piece> whole_file_pieces(const std::vector<std::string>& files);
std::vector<Piece> chunk_pieces(const metaprep::core::DatasetIndex& index);

/// Parsed records of a list of pieces, views into the owned buffers.
struct ParsedReads {
  struct Rec {
    std::string_view id, seq, qual;
    std::uint32_t read_id = 0;
  };
  std::vector<std::vector<char>> buffers;     ///< one per piece
  std::vector<Rec> recs;                      ///< in piece order
  std::vector<std::size_t> piece_rec_begin;   ///< pieces + 1 entries
  std::uint64_t bytes = 0;                    ///< FASTQ bytes parsed
  double parse_seconds = 0.0;                 ///< for_each_record_in_buffer
};
ParsedReads read_pieces(const std::vector<Piece>& pieces);

/// (canonical k-mer, read ID) tuples in record order; piece_tuple_begin
/// gives each piece's tuple range.
struct Tuples {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  std::vector<std::uint64_t> piece_tuple_begin;
};
Tuples scan_tuples(const ParsedReads& reads, int k);

/// Canonical form of a labeling: each read maps to the smallest read ID of
/// its component, so two partitions are equal up to renaming iff their
/// canonical forms are equal.
std::vector<std::uint32_t> canonical_labels(const std::vector<std::uint32_t>& labels);

struct Reference {
  std::uint32_t reads = 0;
  std::uint64_t tuples = 0;
  std::uint64_t components = 0;
  std::vector<std::uint32_t> canon;  ///< canonical labels
};

/// Serial reference partition: one radix sort over all tuples, runs of equal
/// k-mers whose frequency the filter accepts become edges, SerialDSU.
Reference build_reference(Tuples tuples, std::uint32_t reads,
                          const metaprep::core::KmerFreqFilter& filter, int k);
void save_reference(const Reference& ref, const std::string& path);
Reference load_reference(const std::string& path);

/// Tuples regrouped into the PassPlan's (pass, rank, thread) cells by
/// m-mer prefix bin, as LocalSort sees them; cell (s, p, t) is
/// (s * P + p) * T + t.  src_count[(s * P + q) * P + p] counts the tuples
/// source rank q (by chunk assignment) sends to rank p in pass s.
struct Cells {
  int S = 1, P = 1, T = 1;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  std::vector<std::uint64_t> begin;  ///< cells + 1
  std::vector<std::uint64_t> src_count;
  [[nodiscard]] std::uint64_t rank_tuples(int s, int p) const {
    const std::size_t c = static_cast<std::size_t>(s * P + p) * static_cast<std::size_t>(T);
    return begin[c + static_cast<std::size_t>(T)] - begin[c];
  }
};
Cells partition_cells(const Tuples& tuples, const metaprep::core::DatasetIndex& index, int S,
                      int P, int T, int k);

/// Radix-sorts every cell (serially, one cell at a time); returns seconds.
double sort_cells(Cells& cells, int k);

/// Unions over every accepted run of equal k-mers in the sorted cells with
/// an AtomicDSU (serial); returns the canonical labels.
struct DsuReplay {
  std::uint64_t unions = 0;  ///< unite() calls
  double seconds = 0.0;
  std::vector<std::uint32_t> canon;
};
DsuReplay union_cells(const Cells& cells, std::uint32_t reads,
                      const metaprep::core::KmerFreqFilter& filter);

/// Staged all-to-all of every pass's tuples (12 bytes each) on an
/// mpsim::World(P), send layout from the chunk assignment.
struct ExchangeReplay {
  std::uint64_t bytes = 0;  ///< all blocks, the self block included
  double seconds = 0.0;
};
ExchangeReplay exchange_tuples(const Cells& cells);

/// Super-k-mer encode / decode over the pipeline's stream layout: one
/// stream per (pass, source worker, destination slot), minimizer-hash bins
/// split uniformly over passes and slots.  Stream growth is counted from
/// outside: capacity() before and after every append_superkmer_record.
struct SuperKmerReplay {
  std::uint64_t records = 0;
  std::uint64_t kmers = 0;
  std::uint64_t stream_bytes = 0;   ///< all streams
  std::uint64_t shipped_bytes = 0;  ///< cross-rank messages incl. headers
  std::uint64_t grow_events = 0;
  std::uint64_t copied_bytes = 0;   ///< old stream bytes moved by regrowth
  std::uint64_t decoded_kmers = 0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  /// Per pass, per source rank, per destination rank: the wire message.
  std::vector<std::vector<std::vector<std::vector<std::byte>>>> messages;
};
SuperKmerReplay superkmer_roundtrip(const ParsedReads& chunk_reads,
                                    const metaprep::core::DatasetIndex& index, int S, int P,
                                    int T, int k, int minimizer_len);

/// Staged all-to-all of the super-k-mer messages on an mpsim::World(P).
ExchangeReplay exchange_messages(const SuperKmerReplay& sk);

}  // namespace perfbench
