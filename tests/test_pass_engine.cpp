// Safety net for the pass engine: exact labels, not just partitions, for the
// paper's barrier schedule; hand-drawn read layouts with exact component
// membership for every exchange codec and group size; lenient-parse
// sentinel padding that must stay invisible to LocalCC; and BufferPool
// leases under both codecs.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/check.hpp"
#include "core/index_create.hpp"
#include "obs/metrics.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/buffer_pool.hpp"
#include "util/error.hpp"

namespace metaprep::core {
namespace {

using test::TempDir;

/// FNV-1a over the label array: exact values, so a renamed partition fails.
std::uint64_t label_digest(const std::vector<std::uint32_t>& labels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint32_t v : labels) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Golden barrier labels.  Unions link by index, so every label is the
// largest read ID of its component: exact labels pin the partition and the
// root rule, not just the partition up to renaming.  T = 1 keeps every
// rank's LocalCC serial.  The digest below was recorded from the dedicated
// barrier scheduler; any engine that serves PipelineMode::kBarrier must
// reproduce it bit for bit.

struct GoldenFixture {
  TempDir dir;
  DatasetIndex index;

  GoldenFixture() {
    sim::DatasetConfig cfg;
    cfg.name = "golden";
    cfg.genomes.num_species = 5;
    cfg.genomes.min_genome_len = 2500;
    cfg.genomes.max_genome_len = 5000;
    cfg.genomes.shared_fraction = 0.03;
    cfg.num_pairs = 220;
    cfg.reads.seed = 4242;
    const auto dataset = sim::simulate_dataset(cfg, dir.file("golden"));
    IndexCreateOptions opt;
    opt.k = 15;
    opt.m = 5;
    opt.target_chunks = 9;
    index = create_index("golden", dataset.files, true, opt);
  }
};

std::uint64_t golden_run_digest(ReadStore store) {
  static GoldenFixture f;
  MetaprepConfig cfg;
  cfg.k = 15;
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 1;
  cfg.num_passes = 3;
  cfg.pipeline_mode = PipelineMode::kBarrier;
  cfg.read_store = store;
  cfg.write_output = false;
  return label_digest(run_metaprep(f.index, cfg).labels);
}

TEST(GoldenBarrier, TextStoreLabelsBitIdentical) {
  EXPECT_EQ(golden_run_digest(ReadStore::kText), 0xe0a5c95e9e97476aULL);
}

TEST(GoldenBarrier, PackedStoreLabelsBitIdentical) {
  EXPECT_EQ(golden_run_digest(ReadStore::kPacked), 0xe0a5c95e9e97476aULL);
}

// ---------------------------------------------------------------------------
// Union-order pin.  LocalCC unions each run of equal k-mers in the order the
// sort leaves its tuples.  Labels cannot show a reordering (every label is
// its component's largest read ID), but the work LocalCC did can: the
// Algorithm 1 iteration count follows the edge list, and the summed DSU
// find path length (dsu.find_path_length) follows the exact sequence of
// finds and links.  The values below were recorded with the stable LSD
// LocalSort at P=2 T=1 S=2 — T=1 because two threads of one rank race on
// the shared DSU, so at T=2 the finds vary from run to run.  The edge
// count does not: it counts only the links that joined two roots, which is
// each rank's component reduction at any T.  The lenient leg parses a copy
// whose records 5 and 40 lost their header after indexing, so the
// fixed-tuple exchange pads the gaps with sentinel tuples.

/// Flip the header '@' of @p records to '#' in place (same byte length, so
/// the index's chunk offsets stay valid).
void mangle_headers_in_place(const std::string& path, std::initializer_list<std::size_t> records) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::size_t line = 0;
  for (std::size_t pos = 0; pos < text.size(); ++line) {
    for (const std::size_t rec : records) {
      if (line == 4 * rec && text[pos] == '@') text[pos] = '#';
    }
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  std::ofstream(path, std::ios::binary) << text;
}

struct UnionOrder {
  std::uint64_t cc_edges;
  int cc_iterations_max;
  std::uint64_t find_steps;
  std::uint64_t records_skipped;
};

UnionOrder union_order_run(io::ParseMode parse, int threads) {
  GoldenFixture f;
  if (parse == io::ParseMode::kLenient) mangle_headers_in_place(f.index.files[0], {5, 40});
  obs::metrics().set_enabled(true);
  obs::Counter& edges = obs::metrics().counter("pipeline.cc_edges_total");
  obs::Histogram& path = obs::metrics().histogram("dsu.find_path_length");
  const std::uint64_t before = edges.value();
  const std::uint64_t steps_before = path.sum();
  MetaprepConfig cfg;
  cfg.k = 15;
  cfg.num_ranks = 2;
  cfg.threads_per_rank = threads;
  cfg.num_passes = 2;
  cfg.parse_mode = parse;
  cfg.write_output = false;
  const auto result = run_metaprep(f.index, cfg);
  return {edges.value() - before, result.cc_iterations_max, path.sum() - steps_before,
          result.records_skipped};
}

TEST(UnionOrderPin, StrictMatchesStableLsdRecord) {
  const UnionOrder u = union_order_run(io::ParseMode::kStrict, 1);
  EXPECT_EQ(u.records_skipped, 0u);
  EXPECT_EQ(u.cc_edges, 420u);
  EXPECT_EQ(u.cc_iterations_max, 2);
  EXPECT_EQ(u.find_steps, 21970u);
}

TEST(UnionOrderPin, LenientSentinelsMatchStableLsdRecord) {
  const UnionOrder u = union_order_run(io::ParseMode::kLenient, 1);
  EXPECT_EQ(u.records_skipped, 2u);
  EXPECT_EQ(u.cc_edges, 420u);
  EXPECT_EQ(u.cc_iterations_max, 2);
  EXPECT_EQ(u.find_steps, 21785u);
}

TEST(UnionOrderPin, TwoThreadEdgeCountIsDeterministic) {
  for (int run = 0; run < 20; ++run) {
    EXPECT_EQ(union_order_run(io::ParseMode::kStrict, 2).cc_edges, 420u) << "run " << run;
  }
}

// ---------------------------------------------------------------------------
// Hand-drawn read layouts (the whatshap string_to_readset idiom).  Each
// non-blank line of a drawing is one read: its leading blanks place the read
// on a random genome in units of kCell bases, its run of letters is the span
// it covers, and the letter names the component the read must land in.
// Reads sharing three cells share 30 bases >= k, so they are joined; reads
// sharing two cells (20 bases < k) share no k-mer.

constexpr int kLayoutK = 21;
constexpr std::size_t kCell = 10;

struct Layout {
  std::vector<std::string> reads;
  std::vector<char> component;  ///< expected component letter per read
};

Layout draw_reads(const std::string& genome, std::string_view drawing) {
  Layout out;
  std::istringstream lines{std::string(drawing)};
  std::string line;
  while (std::getline(lines, line)) {
    const auto first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(' ');
    out.reads.push_back(genome.substr(first * kCell, (last - first + 1) * kCell));
    out.component.push_back(line[first]);
  }
  return out;
}

/// Exact membership: reads with one letter share a label, reads with
/// different letters do not.
void expect_membership(const std::vector<std::uint32_t>& labels,
                       const std::vector<char>& component) {
  ASSERT_EQ(labels.size(), component.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = i + 1; j < labels.size(); ++j) {
      EXPECT_EQ(labels[i] == labels[j], component[i] == component[j])
          << "reads " << i << " (" << component[i] << ") and " << j << " ("
          << component[j] << ")";
    }
  }
}

// Four components over one genome: 'a' is a chain whose ends share no
// k-mer, 'b' starts two cells short of the last 'a' read, 'c' is a lone
// read, and 'd' re-covers the start of 'a' from the far end of the file.
constexpr std::string_view kDrawing = R"(
aaaaaa
   aaaaaa
      aaaaaa
          bbbbbb
             bbbbbb
                bbbbbb
                       cccccc
                              dddddd
                                 dddddd
 aaaaa
)";

struct LayoutCase {
  CommCompress compress;
  PipelineMode mode;
};

std::string layout_case_name(const ::testing::TestParamInfo<LayoutCase>& info) {
  return std::string(info.param.compress == CommCompress::kNone ? "None" : "SuperKmer") +
         (info.param.mode == PipelineMode::kBarrier ? "G1" : "G2");
}

class ReadLayoutTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(ReadLayoutTest, ExactComponentMembership) {
  const auto& c = GetParam();
  TempDir dir;
  const Layout layout = draw_reads(sim::random_genome(500, 71), kDrawing);
  test::write_fastq(dir.file("layout.fastq"), layout.reads);
  IndexCreateOptions opt;
  opt.k = kLayoutK;
  opt.m = 4;
  opt.target_chunks = 4;
  const auto index = create_index("layout", {dir.file("layout.fastq")}, false, opt);
  ASSERT_EQ(index.total_reads, layout.reads.size());
  expect_membership(reference_components(index, KmerFreqFilter{}), layout.component);

  for (int P : {1, 2}) {
    for (int T : {1, 2}) {
      MetaprepConfig cfg;
      cfg.k = kLayoutK;
      cfg.num_ranks = P;
      cfg.threads_per_rank = T;
      cfg.num_passes = 3;
      cfg.pipeline_mode = c.mode;
      cfg.comm_compress = c.compress;
      cfg.write_output = false;
      SCOPED_TRACE("P=" + std::to_string(P) + " T=" + std::to_string(T));
      const auto result = run_metaprep(index, cfg);
      expect_membership(result.labels, layout.component);
      EXPECT_EQ(result.num_components, 4u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ReadLayoutTest,
    ::testing::Values(LayoutCase{CommCompress::kNone, PipelineMode::kBarrier},
                      LayoutCase{CommCompress::kNone, PipelineMode::kOverlap},
                      LayoutCase{CommCompress::kSuperKmer, PipelineMode::kBarrier},
                      LayoutCase{CommCompress::kSuperKmer, PipelineMode::kOverlap}),
    layout_case_name);

// ---------------------------------------------------------------------------
// Lenient sentinel padding.  The index is built on a clean file, then one
// record is mangled, so lenient parsing skips a record the chunk histograms
// counted and the fixed-tuple exchange pads the gap with sentinel tuples
// keyed at the slot's first bin.  For slot 0 of pass 0 that key is 0, the
// all-A k-mer — which is exactly the one k-mer joining reads A and B below.
// The sentinels sort between A's and B's tuples; they must neither break the
// A-B edge nor count toward the k-mer's frequency.

constexpr int kSentinelK = 27;

class SentinelPaddingTest : public ::testing::TestWithParam<PipelineMode> {};

TEST_P(SentinelPaddingTest, SkippedRecordLeavesPolyAJoinIntact) {
  TempDir dir;
  const std::string g = sim::random_genome(400, 83);
  const std::string poly_a(kSentinelK, 'A');
  // File 1 (chunk 0, thread 0): X (to be mangled), then A.  File 2 (chunk
  // 1, thread 1): B, then an unrelated read.  X carries poly-A too, so its
  // counted k-mers include bin 0.
  const std::string x = g.substr(0, 30) + poly_a + g.substr(30, 30);
  const std::string a = g.substr(100, 30) + "C" + poly_a + "C" + g.substr(130, 30);
  const std::string b = g.substr(200, 30) + "G" + poly_a + "G" + g.substr(230, 30);
  const std::string other = g.substr(300, 80);
  const std::string f1 = test::write_fastq(dir.file("one.fastq"), {x, a}, "one");
  const std::string f2 = test::write_fastq(dir.file("two.fastq"), {b, other}, "two");
  IndexCreateOptions opt;
  opt.k = kSentinelK;
  opt.m = 4;
  opt.target_chunks = 2;
  const auto index = create_index("sentinel", {f1, f2}, false, opt);
  ASSERT_EQ(index.part.num_chunks(), 2u);
  ASSERT_EQ(index.part.chunks[0].file, 0u);
  ASSERT_EQ(index.part.chunks[1].file, 1u);

  // Mangle X's header in place: same byte length, so the index's chunk
  // offsets stay valid while lenient parsing skips the record.
  {
    std::fstream io(f1, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(0);
    io.put('#');
  }

  for (const KmerFreqFilter filter : {KmerFreqFilter{}, KmerFreqFilter{1, 2}}) {
    const auto oracle = reference_components(index, filter, io::ParseMode::kLenient);
    // Read IDs: X=0, A=1, B=2, other=3.  X is skipped, so it is alone.
    const std::vector<char> expected{'x', 'a', 'a', 'o'};
    expect_membership(oracle, expected);

    MetaprepConfig cfg;
    cfg.k = kSentinelK;
    cfg.num_ranks = 1;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    cfg.pipeline_mode = GetParam();
    cfg.parse_mode = io::ParseMode::kLenient;
    cfg.filter = filter;
    cfg.write_output = false;
    SCOPED_TRACE("filter max " + std::to_string(filter.max_freq));
    const auto result = run_metaprep(index, cfg);
    EXPECT_EQ(result.records_skipped, 1u);
    expect_membership(result.labels, expected);
    EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(oracle));
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, SentinelPaddingTest,
                         ::testing::Values(PipelineMode::kBarrier, PipelineMode::kOverlap),
                         [](const ::testing::TestParamInfo<PipelineMode>& info) {
                           return std::string(info.param == PipelineMode::kBarrier ? "G1"
                                                                                   : "G2");
                         });

// ---------------------------------------------------------------------------
// Both codecs lease their sort buffers from config.buffer_pool.  In checked
// mode every lease must come back, and later passes must recycle earlier
// passes' storage.

TEST(PassEnginePool, SuperKmerCodecLeasesFromTheConfigPool) {
  GoldenFixture f;
  util::BufferPool pool;
  const int prev_check = check::exchange_thread_override(1);
  MetaprepConfig cfg;
  cfg.k = 15;
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  cfg.comm_compress = CommCompress::kSuperKmer;
  cfg.buffer_pool = &pool;
  cfg.write_output = false;
  const auto result = run_metaprep(f.index, cfg);
  check::exchange_thread_override(prev_check);
  EXPECT_EQ(pool.outstanding_leases(), 0u);
  EXPECT_GT(pool.reuse_hits(), 0u);
  EXPECT_EQ(test::normalize_partition(result.labels),
            test::normalize_partition(reference_components(f.index, cfg.filter)));
}

// ---------------------------------------------------------------------------
// --comm-compress accepts exactly the two codecs; the retired Bloom modes are
// a typed configuration error that names the accepted values.

TEST(CommCompressOption, ParsesTheTwoCodecs) {
  EXPECT_EQ(parse_comm_compress("none"), CommCompress::kNone);
  EXPECT_EQ(parse_comm_compress("superkmer"), CommCompress::kSuperKmer);
}

TEST(CommCompressOption, RejectsRetiredBloomModesWithConfigError) {
  for (const std::string mode : {"bloom", "both", ""}) {
    try {
      (void)parse_comm_compress(mode);
      ADD_FAILURE() << "accepted '" << mode << "'";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.category(), util::ErrorCategory::kConfig) << mode;
      const std::string what = e.what();
      EXPECT_NE(what.find("'none'"), std::string::npos) << what;
      EXPECT_NE(what.find("'superkmer'"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + mode + "'"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace metaprep::core
