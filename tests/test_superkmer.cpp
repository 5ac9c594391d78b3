// Property suite for the shared super-k-mer core (kmer/superkmer): the
// decomposition scanner, the minimizer-routing hash, and the wire records
// the compressed exchange ships.
//
// The central contract: encoding a read as super-k-mer records and
// re-expanding them on the receiver must reproduce *exactly* the
// (canonical k-mer, read ID) multiset the scalar per-k-mer scan would have
// produced — across N runs, lowercase bases, reads shorter than k, reads of
// exactly k bases, and homopolymers — and every k-mer inside a run must
// share the run's minimizer (that is what makes minimizer routing sound).
#include "kmer/superkmer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kmer/codec.hpp"
#include "kmer/kmer128.hpp"
#include "kmer/minimizer.hpp"
#include "kmer/scanner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace metaprep::kmer {
namespace {

/// Random read with occasional N runs and lowercase bases (the parsers and
/// scanners must treat 'a' == 'A'; the scanner must break runs at N).
std::string random_seq(util::Xoshiro256& rng, std::size_t len, double n_prob,
                       double lower_prob) {
  std::string s;
  s.reserve(len);
  while (s.size() < len) {
    if (n_prob > 0 && rng.next_bool(n_prob)) {
      const std::uint64_t run = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < run && s.size() < len; ++i) s.push_back('N');
    } else {
      char c = "ACGT"[rng.next_below(4)];
      if (lower_prob > 0 && rng.next_bool(lower_prob)) c = static_cast<char>(c - 'A' + 'a');
      s.push_back(c);
    }
  }
  return s;
}

/// Corpus exercising every edge class: empty, shorter than k, exactly k,
/// homopolymers, all-N, N-broken, lowercase, and plain random reads.
std::vector<std::string> edge_corpus(int k, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::string> seqs;
  seqs.emplace_back();                                         // empty
  seqs.push_back(random_seq(rng, static_cast<std::size_t>(k) - 1, 0, 0));  // len < k
  seqs.push_back(random_seq(rng, static_cast<std::size_t>(k), 0, 0));      // len == k
  seqs.push_back(std::string(static_cast<std::size_t>(k) + 37, 'A'));      // homopolymer
  seqs.push_back(std::string(static_cast<std::size_t>(k) + 10, 'N'));      // all N
  for (int i = 0; i < 40; ++i) {
    const std::size_t len = rng.next_below(260);
    seqs.push_back(random_seq(rng, len, 0.02, 0.1));
  }
  return seqs;
}

/// Encode every run of @p seq as wire records with read ID @p value,
/// splitting at kMaxSuperKmerRun exactly like the pipeline's emit path.
void encode_seq(const std::string& seq, int k, int m, std::uint32_t value,
                SuperKmerScanner& sc, std::vector<std::byte>& out) {
  sc.scan(seq, k, m,
          [&](std::uint32_t start, std::uint32_t count, std::uint64_t /*mz*/) {
            std::uint32_t off = 0;
            while (off < count) {
              const std::uint32_t take = std::min(count - off, kMaxSuperKmerRun);
              append_superkmer_record(out, value, take, k, [&](std::size_t j) {
                return base_code(seq[start + off + j]);
              });
              off += take;
            }
          });
}

TEST(SuperKmerRoundTrip, ReproducesScalarKmerMultiset64) {
  for (const auto& [k, m] : {std::pair{15, 5}, std::pair{21, 9}, std::pair{31, 10}}) {
    const auto seqs = edge_corpus(k, 1000 + static_cast<std::uint64_t>(k));

    std::vector<std::pair<std::uint32_t, std::uint64_t>> expected;
    for (std::uint32_t id = 0; id < seqs.size(); ++id) {
      for_each_canonical_kmer64(seqs[id], k, [&](std::uint64_t km, std::size_t) {
        expected.emplace_back(id, km);
      });
    }

    SuperKmerScanner sc;
    std::vector<std::byte> stream;
    for (std::uint32_t id = 0; id < seqs.size(); ++id) encode_seq(seqs[id], k, m, id, sc, stream);

    const auto stats = count_superkmer_stream(stream.data(), stream.size(), k);
    EXPECT_EQ(stats.kmers, expected.size()) << "k=" << k;

    std::vector<std::pair<std::uint32_t, std::uint64_t>> got;
    SuperKmerReader reader(stream.data(), stream.size(), k);
    std::uint64_t records = 0;
    while (!reader.done()) {
      reader.next_header();
      ++records;
      reader.expand64([&](std::uint64_t km) { got.emplace_back(reader.value(), km); });
    }
    EXPECT_EQ(records, stats.records);

    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "k=" << k << " m=" << m;
  }
}

TEST(SuperKmerRoundTrip, ReproducesScalarKmerMultiset128) {
  constexpr int k = 33;
  constexpr int m = 11;
  const auto seqs = edge_corpus(k, 2033);

  std::vector<std::pair<std::uint32_t, Kmer128>> expected;
  for (std::uint32_t id = 0; id < seqs.size(); ++id) {
    for_each_canonical_kmer128(seqs[id], k, [&](Kmer128 km, std::size_t) {
      expected.emplace_back(id, km);
    });
  }

  SuperKmerScanner sc;
  std::vector<std::byte> stream;
  for (std::uint32_t id = 0; id < seqs.size(); ++id) encode_seq(seqs[id], k, m, id, sc, stream);

  std::vector<std::pair<std::uint32_t, Kmer128>> got;
  SuperKmerReader reader(stream.data(), stream.size(), k);
  while (!reader.done()) {
    reader.next_header();
    reader.expand128([&](Kmer128 km) { got.emplace_back(reader.value(), km); });
  }

  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(SuperKmerRoundTrip, SplitsRunsLongerThanMaxRun) {
  // A homopolymer has one minimizer everywhere, so the run exceeds the
  // uint16 n_kmers ceiling and the encoder must split it; the fragments
  // must still re-expand to every k-mer.
  constexpr int k = 15;
  constexpr int m = 5;
  const std::string seq(static_cast<std::size_t>(k) + kMaxSuperKmerRun + 99, 'G');
  const std::uint64_t nkmers = seq.size() - k + 1;

  SuperKmerScanner sc;
  std::vector<std::byte> stream;
  encode_seq(seq, k, m, 7, sc, stream);
  const auto stats = count_superkmer_stream(stream.data(), stream.size(), k);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.kmers, nkmers);

  std::uint64_t got = 0;
  std::vector<std::uint64_t> all;
  for_each_canonical_kmer64(seq, k, [&](std::uint64_t km, std::size_t) { all.push_back(km); });
  SuperKmerReader reader(stream.data(), stream.size(), k);
  std::vector<std::uint64_t> decoded;
  while (!reader.done()) {
    reader.next_header();
    EXPECT_EQ(reader.value(), 7u);
    got += reader.kmer_count();
    reader.expand64([&](std::uint64_t km) { decoded.push_back(km); });
  }
  EXPECT_EQ(got, nkmers);
  std::sort(all.begin(), all.end());
  std::sort(decoded.begin(), decoded.end());
  EXPECT_EQ(decoded, all);
}

TEST(SuperKmerScan, EveryKmerInRunSharesTheMinimizerAndRunsAreMaximal) {
  constexpr int k = 19;
  constexpr int m = 7;
  util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const auto seq = random_seq(rng, 60 + rng.next_below(200), 0.015, 0.05);
    SuperKmerScanner sc;
    std::vector<SuperKmer> runs;
    sc.scan(seq, k, m, [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
      runs.push_back({start, count, mz});
    });
    for (std::size_t r = 0; r < runs.size(); ++r) {
      for (std::uint32_t j = 0; j < runs[r].kmer_count; ++j) {
        std::uint64_t mz = 0;
        ASSERT_TRUE(window_minimizer(seq, runs[r].start + j, k, m, mz));
        EXPECT_EQ(mz, runs[r].minimizer) << "window " << runs[r].start + j;
      }
      // Maximality: a contiguous successor run must carry a different
      // minimizer, or the scanner should have extended this run.
      if (r + 1 < runs.size() &&
          runs[r + 1].start == runs[r].start + runs[r].kmer_count) {
        EXPECT_NE(runs[r + 1].minimizer, runs[r].minimizer);
      }
    }
  }
}

TEST(SuperKmerScan, AdapterAndScannerAgree) {
  // kmer::super_kmers (the KMC-2 baseline's entry point) is a thin adapter
  // over SuperKmerScanner; the two must never drift.
  constexpr int k = 17;
  constexpr int m = 6;
  util::Xoshiro256 rng(88);
  for (int trial = 0; trial < 20; ++trial) {
    const auto seq = random_seq(rng, rng.next_below(220), 0.02, 0.1);
    SuperKmerScanner sc;
    std::vector<SuperKmer> from_scanner;
    sc.scan(seq, k, m, [&](std::uint32_t start, std::uint32_t count, std::uint64_t mz) {
      from_scanner.push_back({start, count, mz});
    });
    const auto from_adapter = super_kmers(seq, k, m);
    ASSERT_EQ(from_adapter.size(), from_scanner.size());
    for (std::size_t i = 0; i < from_adapter.size(); ++i) {
      EXPECT_EQ(from_adapter[i].start, from_scanner[i].start);
      EXPECT_EQ(from_adapter[i].kmer_count, from_scanner[i].kmer_count);
      EXPECT_EQ(from_adapter[i].minimizer, from_scanner[i].minimizer);
    }
  }
}

TEST(SuperKmerScan, PackedScanMatchesTextScan) {
  // scan_packed over the PackedStore 2-bit layout must emit bit-identical
  // runs to scan() on the original text (including N resets via npos).
  constexpr int k = 15;
  constexpr int m = 5;
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const auto seq = random_seq(rng, rng.next_below(250), 0.03, 0.15);

    std::vector<std::uint64_t> words((seq.size() + 31) / 32, 0);
    std::vector<std::uint32_t> npos;
    for (std::uint32_t i = 0; i < seq.size(); ++i) {
      const std::uint8_t code = base_code(seq[i]);
      if (code > 3) {
        npos.push_back(i);  // packed as code 0, reset via the sidecar
      } else {
        words[i >> 5] |= static_cast<std::uint64_t>(code) << (2 * (i & 31u));
      }
    }

    SuperKmerScanner sc;
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> text_runs;
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> packed_runs;
    sc.scan(seq, k, m, [&](std::uint32_t s, std::uint32_t c, std::uint64_t mz) {
      text_runs.emplace_back(s, c, mz);
    });
    sc.scan_packed(words.data(), static_cast<std::uint32_t>(seq.size()), npos.data(),
                   static_cast<std::uint32_t>(npos.size()), k, m,
                   [&](std::uint32_t s, std::uint32_t c, std::uint64_t mz) {
                     packed_runs.emplace_back(s, c, mz);
                   });
    EXPECT_EQ(packed_runs, text_runs) << "trial " << trial;
  }
}

TEST(SuperKmerScan, EdgeCases) {
  constexpr int k = 15;
  constexpr int m = 5;
  SuperKmerScanner sc;
  auto runs_of = [&](const std::string& seq) {
    std::vector<SuperKmer> runs;
    sc.scan(seq, k, m, [&](std::uint32_t s, std::uint32_t c, std::uint64_t mz) {
      runs.push_back({s, c, mz});
    });
    return runs;
  };

  EXPECT_TRUE(runs_of("").empty());
  EXPECT_TRUE(runs_of("ACGTACGTACGTAC").empty());  // 14 bases < k
  EXPECT_TRUE(runs_of(std::string(40, 'N')).empty());

  // Exactly k bases: one run of one k-mer carrying the window's minimizer.
  const std::string exact = "ACGTACGTACGTACG";
  const auto one = runs_of(exact);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].start, 0u);
  EXPECT_EQ(one[0].kmer_count, 1u);
  std::uint64_t mz = 0;
  ASSERT_TRUE(window_minimizer(exact, 0, k, m, mz));
  EXPECT_EQ(one[0].minimizer, mz);

  // Homopolymer: a single maximal run covering every window; AAAAA is the
  // canonical minimum m-mer so the minimizer is 0.
  const std::string homo(static_cast<std::size_t>(k) + 9, 'A');
  const auto hr = runs_of(homo);
  ASSERT_EQ(hr.size(), 1u);
  EXPECT_EQ(hr[0].start, 0u);
  EXPECT_EQ(hr[0].kmer_count, homo.size() - k + 1);
  EXPECT_EQ(hr[0].minimizer, 0u);

  // An interior N voids every window that covers it.
  const std::string split = "ACGTACGTACGTACGT" + std::string("N") + "ACGTACGTACGTACGTA";
  std::uint64_t covered = 0;
  for (const auto& r : runs_of(split)) {
    covered += r.kmer_count;
    for (std::uint32_t j = 0; j < r.kmer_count; ++j) {
      const auto w = split.substr(r.start + j, k);
      EXPECT_EQ(w.find('N'), std::string::npos);
    }
  }
  std::uint64_t valid_windows = 0;
  for_each_canonical_kmer64(split, k, [&](std::uint64_t, std::size_t) { ++valid_windows; });
  EXPECT_EQ(covered, valid_windows);
}

TEST(SuperKmerWire, RecordByteLayout) {
  // value little-endian, n_kmers little-endian uint16, then 2-bit codes
  // LSB-first within each byte — the io::PackedStore word layout.
  constexpr int k = 5;
  const std::string bases = "ACGTACG";  // n=3 k-mers, 7 bases -> 2 packed bytes
  std::vector<std::byte> out;
  append_superkmer_record(out, 0xDEADBEEFu, 3, k,
                          [&](std::size_t j) { return base_code(bases[j]); });
  ASSERT_EQ(out.size(), superkmer_record_bytes(k, 3));
  ASSERT_EQ(out.size(), kSuperKmerHeaderBytes + 2);
  EXPECT_EQ(std::to_integer<unsigned>(out[0]), 0xEFu);
  EXPECT_EQ(std::to_integer<unsigned>(out[1]), 0xBEu);
  EXPECT_EQ(std::to_integer<unsigned>(out[2]), 0xADu);
  EXPECT_EQ(std::to_integer<unsigned>(out[3]), 0xDEu);
  EXPECT_EQ(std::to_integer<unsigned>(out[4]), 3u);
  EXPECT_EQ(std::to_integer<unsigned>(out[5]), 0u);
  // A=0 C=1 G=2 T=3: byte 0 holds ACGT -> 0b11'10'01'00, byte 1 holds ACG.
  EXPECT_EQ(std::to_integer<unsigned>(out[6]), 0xE4u);
  EXPECT_EQ(std::to_integer<unsigned>(out[7]), 0x24u);
}

TEST(SuperKmerWire, TruncatedStreamThrows) {
  constexpr int k = 15;
  const std::string seq = "ACGTACGTACGTACGTACGT";
  std::vector<std::byte> stream;
  SuperKmerScanner sc;
  encode_seq(seq, k, 5, 1, sc, stream);
  ASSERT_GT(stream.size(), kSuperKmerHeaderBytes);

  // Any strict prefix that cuts into a record must be rejected, both by the
  // sizing pass and by the streaming reader.
  for (const std::size_t cut : {stream.size() - 1, kSuperKmerHeaderBytes, std::size_t{3}}) {
    EXPECT_THROW(count_superkmer_stream(stream.data(), cut, k), util::Error) << cut;
    SuperKmerReader reader(stream.data(), cut, k);
    EXPECT_THROW(
        {
          while (!reader.done()) {
            reader.next_header();
            reader.expand64([](std::uint64_t) {});
          }
        },
        util::Error)
        << cut;
  }
}

TEST(SuperKmerWire, StreamGrowthIsAmortized) {
  // A stream built one record at a time must regrow O(log n) times and move
  // at most ~its own size in total, counted from outside through capacity()
  // exactly as the exchange's stream counters do.  A per-record exact-size
  // reserve regrows on every append and copies the whole stream each time.
  constexpr int k = 31;
  constexpr std::uint32_t kRecords = 100'000;
  constexpr std::uint64_t kMaxGrowEvents = 64;
  util::Xoshiro256 rng(0x5EED);
  std::vector<std::byte> stream;
  std::uint64_t grow_events = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t kmers = 0;
  for (std::uint32_t r = 0; r < kRecords && grow_events <= kMaxGrowEvents; ++r) {
    const auto n = static_cast<std::uint32_t>(1 + rng.next_below(40));
    const std::size_t cap0 = stream.capacity();
    const std::size_t size0 = stream.size();
    append_superkmer_record(stream, r, n, k, [&](std::size_t j) { return (j + r) & 3u; });
    if (stream.capacity() != cap0) {
      ++grow_events;
      copied_bytes += size0;
    }
    kmers += n;
  }
  ASSERT_LE(grow_events, kMaxGrowEvents);
  EXPECT_LE(copied_bytes, 2 * stream.size());
  const SuperKmerStreamStats stats = count_superkmer_stream(stream.data(), stream.size(), k);
  EXPECT_EQ(stats.records, kRecords);
  EXPECT_EQ(stats.kmers, kmers);
}

TEST(SuperKmerRouting, MinimizerIsStrandSymmetricSoRoutingIsToo) {
  // A canonical k-mer's minimizer must not depend on which strand the read
  // presented: minimizer routing relies on all occurrences of a k-mer
  // meeting at one (rank, thread), including reverse-complement occurrences.
  constexpr int k = 21;
  constexpr int m = 7;
  util::Xoshiro256 rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    std::string fwd = random_seq(rng, k, 0, 0);
    std::string rc(fwd.rbegin(), fwd.rend());
    for (auto& c : rc) c = base_char(complement_code(base_code(c)));
    std::uint64_t mf = 0;
    std::uint64_t mr = 0;
    ASSERT_TRUE(window_minimizer(fwd, 0, k, m, mf));
    ASSERT_TRUE(window_minimizer(rc, 0, k, m, mr));
    EXPECT_EQ(mf, mr) << fwd;
    EXPECT_LT(minimizer_bin(mf), kNumMinimizerBins);
  }
}

TEST(SuperKmerRouting, BinsSpreadAcrossTheSpace) {
  // mix64 must decouple the routing bin from the (lexicographically skewed)
  // minimizer value: random minimizers should occupy many distinct bins.
  util::Xoshiro256 rng(321);
  std::vector<bool> hit(kNumMinimizerBins, false);
  std::size_t distinct = 0;
  for (int i = 0; i < 8192; ++i) {
    const auto b = minimizer_bin(rng.next_below(1ULL << 14));  // small, skewed values
    ASSERT_LT(b, kNumMinimizerBins);
    if (!hit[b]) {
      hit[b] = true;
      ++distinct;
    }
  }
  // 8192 draws over 4096 bins: expect ~3540 distinct; anything above half
  // the space rules out the severe clustering raw minimizer values exhibit.
  EXPECT_GT(distinct, kNumMinimizerBins / 2);
}

}  // namespace
}  // namespace metaprep::kmer
