// End-to-end pipeline tests: the METAPREP partition must equal a brute-force
// read-graph connected-components reference for every (P, T, S) and k
// configuration, and the partitioned FASTQ output must be a lossless split
// of the input.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/index_create.hpp"
#include "core/memory_model.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace metaprep::core {
namespace {

using test::TempDir;

struct Fixture {
  TempDir dir;
  DatasetIndex index;
  sim::SimulatedDataset dataset;

  explicit Fixture(int k, std::uint64_t pairs = 250, int m = 5, std::uint32_t chunks = 9,
                   int species = 4) {
    sim::DatasetConfig cfg;
    cfg.name = "pipe";
    cfg.genomes.num_species = species;
    cfg.genomes.min_genome_len = 3000;
    cfg.genomes.max_genome_len = 6000;
    cfg.genomes.shared_fraction = 0.02;
    cfg.num_pairs = pairs;
    cfg.reads.seed = 50 + static_cast<std::uint64_t>(k);
    dataset = sim::simulate_dataset(cfg, dir.file("pipe"));
    IndexCreateOptions opt;
    opt.k = k;
    opt.m = m;
    opt.target_chunks = chunks;
    index = create_index("pipe", dataset.files, true, opt);
  }
};

MetaprepConfig base_config(int k, const std::string& out_dir) {
  MetaprepConfig cfg;
  cfg.k = k;
  cfg.write_output = false;
  cfg.output_dir = out_dir;
  return cfg;
}

struct PTS {
  int P, T, S;
};

class PipelineGridTest : public ::testing::TestWithParam<PTS> {};

TEST_P(PipelineGridTest, PartitionMatchesBruteForceReference) {
  const auto [P, T, S] = GetParam();
  static Fixture fixture(15);  // shared across the grid: dataset is immutable
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = P;
  cfg.threads_per_rank = T;
  cfg.num_passes = S;

  const auto result = run_metaprep(fixture.index, cfg);
  const auto expected = reference_components(fixture.index, cfg.filter);

  EXPECT_EQ(result.num_reads, fixture.index.total_reads);
  EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(expected));
  EXPECT_EQ(result.passes_used, S);
  EXPECT_GT(result.total_tuples, 0u);
  EXPECT_GE(result.cc_iterations_max, 1);
  EXPECT_EQ(result.rank_times.size(), static_cast<std::size_t>(P));
}

INSTANTIATE_TEST_SUITE_P(Grid, PipelineGridTest,
                         ::testing::Values(PTS{1, 1, 1}, PTS{1, 4, 1}, PTS{2, 2, 1},
                                           PTS{4, 1, 1}, PTS{4, 3, 2}, PTS{3, 2, 3},
                                           PTS{8, 2, 1}, PTS{2, 4, 4}, PTS{5, 1, 2}));

class PipelineKTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineKTest, AllKWidthsMatchReference) {
  const int k = GetParam();
  Fixture fixture(k, 150);
  auto cfg = base_config(k, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  const auto result = run_metaprep(fixture.index, cfg);
  const auto expected = reference_components(fixture.index, cfg.filter);
  EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(expected));
}

// 15/27/31/32 exercise the 64-bit path, 33/45/63 the 128-bit path.
INSTANTIATE_TEST_SUITE_P(KWidths, PipelineKTest, ::testing::Values(15, 27, 31, 32, 33, 45, 63));

TEST(Pipeline, FrequencyFilterMatchesReference) {
  Fixture fixture(15, 300);
  for (const auto& [lo, hi] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {0, 30}, {2, 0xFFFFFFFFu}, {2, 10}, {3, 5}}) {
    auto cfg = base_config(15, fixture.dir.str());
    cfg.num_ranks = 3;
    cfg.threads_per_rank = 2;
    cfg.filter.min_freq = lo;
    cfg.filter.max_freq = hi;
    const auto result = run_metaprep(fixture.index, cfg);
    const auto expected = reference_components(fixture.index, cfg.filter);
    EXPECT_EQ(test::normalize_partition(result.labels), test::normalize_partition(expected))
        << "filter [" << lo << ", " << hi << "]";
  }
}

TEST(Pipeline, FilterShrinksLargestComponent) {
  Fixture fixture(15, 400, 5, 9, 6);
  auto cfg = base_config(15, fixture.dir.str());
  const auto unfiltered = run_metaprep(fixture.index, cfg);
  cfg.filter.min_freq = 2;
  cfg.filter.max_freq = 20;
  const auto filtered = run_metaprep(fixture.index, cfg);
  EXPECT_LE(filtered.largest_size, unfiltered.largest_size);
  EXPECT_GE(filtered.num_components, unfiltered.num_components);
}

TEST(Pipeline, CcOptOnAndOffAgree) {
  Fixture fixture(15, 250);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 3;  // multipass so the optimization actually engages
  cfg.cc_opt = true;
  const auto with_opt = run_metaprep(fixture.index, cfg);
  cfg.cc_opt = false;
  const auto without_opt = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(test::normalize_partition(with_opt.labels),
            test::normalize_partition(without_opt.labels));
}

TEST(Pipeline, AutoPassSelectionFromBudget) {
  Fixture fixture(15, 200);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_passes = 0;
  cfg.memory_budget_bytes = 1ULL << 30;  // plenty: expect 1 pass
  const auto r = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(r.passes_used, 1);
  // A budget barely above the fixed terms should force multiple passes.
  MemoryModelInput mm;
  mm.total_tuples = fixture.index.mer_hist.total();
  mm.total_reads = fixture.index.total_reads;
  mm.num_chunks = fixture.index.part.num_chunks();
  mm.max_chunk_bytes = fixture.index.max_chunk_bytes();
  mm.m = fixture.index.mer_hist.m;
  mm.num_passes = 1;
  const auto one_pass = estimate_memory(mm);
  cfg.memory_budget_bytes = one_pass.total - one_pass.kmer_out / 2;
  const auto r2 = run_metaprep(fixture.index, cfg);
  EXPECT_GT(r2.passes_used, 1);
  EXPECT_EQ(test::normalize_partition(r.labels), test::normalize_partition(r2.labels));
}

TEST(Pipeline, ImpossibleBudgetThrows) {
  Fixture fixture(15, 100);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_passes = 0;
  cfg.memory_budget_bytes = 10;
  EXPECT_THROW(run_metaprep(fixture.index, cfg), std::runtime_error);
}

TEST(Pipeline, MismatchedKThrows) {
  Fixture fixture(15, 100);
  auto cfg = base_config(21, fixture.dir.str());
  EXPECT_THROW(run_metaprep(fixture.index, cfg), metaprep::util::Error);
}

TEST(Pipeline, TopNBeyondSlotTableThrows) {
  // CC-I/O routes the top-N split through a 16-bit root -> slot table.
  Fixture fixture(15, 20);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.output_top_components = 0xFFFF;
  EXPECT_THROW(run_metaprep(fixture.index, cfg), metaprep::util::Error);
}

TEST(Pipeline, EmptyInputYieldsEmptyResultWithoutGhostFiles) {
  // R == 0 hardening: an index over an empty FASTQ must short-circuit to a
  // well-formed empty result in both pipeline modes — no throw, no sentinel
  // largest root, and no ghost ".other.fastq" (or bin) files on disk.
  Fixture fixture(15, 0);
  for (auto mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
    for (int bins : {0, 2}) {
      test::TempDir out;
      auto cfg = base_config(15, out.str());
      cfg.num_ranks = 2;
      cfg.threads_per_rank = 2;
      cfg.pipeline_mode = mode;
      cfg.write_output = true;
      cfg.output_bins = bins;
      const auto r = run_metaprep(fixture.index, cfg);
      EXPECT_EQ(r.num_reads, 0u);
      EXPECT_TRUE(r.labels.empty());
      EXPECT_EQ(r.num_components, 0u);
      EXPECT_EQ(r.largest_size, 0u);
      EXPECT_DOUBLE_EQ(r.largest_fraction, 0.0);
      EXPECT_TRUE(r.output_files.empty());
      EXPECT_TRUE(r.bin_manifest_path.empty());
      std::size_t on_disk = 0;
      for (const auto& e : std::filesystem::directory_iterator(out.str())) {
        (void)e;
        ++on_disk;
      }
      EXPECT_EQ(on_disk, 0u);
    }
  }
}

TEST(Pipeline, ComponentAccountingConsistent) {
  Fixture fixture(15, 300);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 4;
  cfg.threads_per_rank = 2;
  const auto r = run_metaprep(fixture.index, cfg);
  // Component sizes sum to R; largest matches the labels array.
  std::map<std::uint32_t, std::uint64_t> sizes;
  for (auto l : r.labels) ++sizes[l];
  EXPECT_EQ(sizes.size(), r.num_components);
  std::uint64_t largest = 0;
  for (const auto& [root, size] : sizes) largest = std::max(largest, size);
  EXPECT_EQ(largest, r.largest_size);
  EXPECT_EQ(sizes.at(r.largest_root), r.largest_size);
  EXPECT_DOUBLE_EQ(r.largest_fraction,
                   static_cast<double>(largest) / static_cast<double>(r.num_reads));
  ASSERT_FALSE(r.top_component_sizes.empty());
  EXPECT_EQ(r.top_component_sizes.front(), largest);
  EXPECT_TRUE(std::is_sorted(r.top_component_sizes.begin(), r.top_component_sizes.end(),
                             std::greater<>()));
}

TEST(Pipeline, OutputFastqIsLosslessSplit) {
  Fixture fixture(15, 200, 5, 7);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.write_output = true;
  const auto r = run_metaprep(fixture.index, cfg);
  ASSERT_FALSE(r.output_files.empty());

  // Gather all output records; id -> sequences seen.
  std::multiset<std::string> output_ids;
  std::uint64_t lc_records = 0;
  std::uint64_t other_records = 0;
  for (const auto& path : r.output_files) {
    const bool is_lc = path.find(".lc.") != std::string::npos;
    for (const auto& rec : test::read_all_fastq(path)) {
      output_ids.insert(rec.id);
      (is_lc ? lc_records : other_records) += 1;
    }
  }
  // Every input record appears exactly once in the output.
  std::multiset<std::string> input_ids;
  for (const auto& f : fixture.index.files) {
    for (const auto& rec : test::read_all_fastq(f)) input_ids.insert(rec.id);
  }
  EXPECT_EQ(output_ids, input_ids);
  // LC file record count = 2 * largest component (both mates).
  EXPECT_EQ(lc_records, 2 * r.largest_size);
  EXPECT_EQ(other_records, 2 * (r.num_reads - r.largest_size));
}

TEST(Pipeline, PairedEndsStayTogether) {
  Fixture fixture(15, 150, 5, 6);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.write_output = true;
  const auto r = run_metaprep(fixture.index, cfg);

  // Strip the /1 /2 suffix; each pair base name must land entirely in LC or
  // entirely in Other.
  std::map<std::string, std::set<bool>> pair_sides;
  for (const auto& path : r.output_files) {
    const bool is_lc = path.find(".lc.") != std::string::npos;
    for (const auto& rec : test::read_all_fastq(path)) {
      pair_sides[rec.id.substr(0, rec.id.size() - 2)].insert(is_lc);
    }
  }
  for (const auto& [base, sides] : pair_sides) {
    EXPECT_EQ(sides.size(), 1u) << "pair " << base << " split across partitions";
  }
}

class MergeStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeStrategyTest, ContractionMatchesPairwiseTree) {
  const int P = GetParam();
  static Fixture fixture(15, 220);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = P;
  cfg.threads_per_rank = 2;
  cfg.merge_strategy = MergeStrategy::kPairwiseTree;
  const auto tree = run_metaprep(fixture.index, cfg);
  cfg.merge_strategy = MergeStrategy::kContraction;
  const auto contraction = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(test::normalize_partition(tree.labels),
            test::normalize_partition(contraction.labels));
  if (P > 1) {
    // Tree rounds ship full 4R-byte arrays; contraction ships 8 bytes per
    // locally-merged vertex.  Each non-root rank sends exactly once in both
    // strategies, so the tree total is (P-1) * 4R and the contraction total
    // is bounded by (P-1) * 8R.
    EXPECT_EQ(tree.merge_comm_bytes,
              static_cast<std::uint64_t>(P - 1) * 4ull * tree.num_reads);
    EXPECT_LE(contraction.merge_comm_bytes,
              static_cast<std::uint64_t>(P - 1) * 8ull * tree.num_reads);
    EXPECT_GT(contraction.merge_comm_bytes, 0u);
  } else {
    EXPECT_EQ(contraction.merge_comm_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MergeStrategyTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(Pipeline, ContractionWinsBytesOnSparseGraphs) {
  // Sparse regime (the one the paper's future-work citation [16] targets):
  // an aggressive frequency band leaves almost no read-graph edges, so most
  // reads stay singletons and the contracted (vertex, root) pairs are far
  // smaller than the full component arrays.
  Fixture fixture(15, 300);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 4;
  cfg.filter.min_freq = 60;
  cfg.filter.max_freq = 70;  // ~3x coverage data: almost no k-mer this frequent
  cfg.merge_strategy = MergeStrategy::kPairwiseTree;
  const auto tree = run_metaprep(fixture.index, cfg);
  cfg.merge_strategy = MergeStrategy::kContraction;
  const auto contraction = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(test::normalize_partition(tree.labels),
            test::normalize_partition(contraction.labels));
  EXPECT_LT(contraction.merge_comm_bytes, tree.merge_comm_bytes / 2);
}

TEST(Pipeline, TopNComponentOutputIsLosslessSplit) {
  Fixture fixture(15, 250, 5, 7, 6);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.write_output = true;
  cfg.output_top_components = 3;
  const auto r = run_metaprep(fixture.index, cfg);

  // Records per suffix class.
  std::map<std::string, std::uint64_t> per_class;
  std::multiset<std::string> output_ids;
  for (const auto& path : r.output_files) {
    std::string cls = "other";
    for (int j = 0; j < 3; ++j) {
      if (path.find(".c" + std::to_string(j) + ".") != std::string::npos) {
        cls = "c" + std::to_string(j);
      }
    }
    for (const auto& rec : test::read_all_fastq(path)) {
      per_class[cls] += 1;
      output_ids.insert(rec.id);
    }
  }
  std::multiset<std::string> input_ids;
  for (const auto& f : fixture.index.files) {
    for (const auto& rec : test::read_all_fastq(f)) input_ids.insert(rec.id);
  }
  EXPECT_EQ(output_ids, input_ids);
  // c0 holds the largest component (2 records per read: both mates).
  EXPECT_EQ(per_class["c0"], 2 * r.largest_size);
  // Components are written in non-increasing size order.
  EXPECT_GE(per_class["c0"], per_class["c1"]);
  EXPECT_GE(per_class["c1"], per_class["c2"]);
  // Top-3 + other covers everything.
  std::uint64_t total = 0;
  for (const auto& [cls, n] : per_class) total += n;
  EXPECT_EQ(total, 2ull * r.num_reads);
}

TEST(Pipeline, TopNLargerThanComponentCountIsSafe) {
  Fixture fixture(15, 60, 5, 4, 2);
  TempDir out_dir;
  auto cfg = base_config(15, out_dir.str());
  cfg.write_output = true;
  cfg.output_top_components = 1000;  // far more than components exist
  const auto r = run_metaprep(fixture.index, cfg);
  std::uint64_t records = 0;
  for (const auto& path : r.output_files) records += test::read_all_fastq(path).size();
  EXPECT_EQ(records, 2ull * r.num_reads);
}

// ---------------------------------------------------------------------------
// Output-tail pin.  Every file CC-I/O leaves on disk at P=2 T=2, by name,
// FASTQ record count and FNV-1a content digest, for the top-N split and the
// binned output.  The bins.json row digests the manifest with the output
// directory stripped from its paths.  The recorded values pin file names,
// routing and the record order inside each file in both output modes.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One "<file> <records> <digest>" row per file in the output directory,
/// sorted by file name.
std::vector<std::string> output_tail(int top_n, int bins) {
  static Fixture fixture(15, 250, 5, 7, 6);
  TempDir out;
  auto cfg = base_config(15, out.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.write_output = true;
  cfg.output_top_components = top_n;
  cfg.output_bins = bins;
  const auto r = run_metaprep(fixture.index, cfg);

  std::set<std::string> listed;
  for (const auto& path : r.output_files) listed.insert(path);
  std::vector<std::string> rows;
  for (const auto& entry : std::filesystem::directory_iterator(out.str())) {
    const std::string path = entry.path().string();
    std::string text = slurp(path);
    std::string records = "-";
    if (entry.path().extension() == ".fastq") {
      EXPECT_TRUE(listed.erase(path)) << path << " written but not listed";
      records = std::to_string(std::count(text.begin(), text.end(), '\n') / 4);
    } else {
      EXPECT_EQ(path, r.bin_manifest_path);
      for (std::size_t at; (at = text.find(out.str() + "/")) != std::string::npos;)
        text.erase(at, out.str().size() + 1);
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    rows.push_back(entry.path().filename().string() + " " + records + " " + digest);
  }
  EXPECT_TRUE(listed.empty()) << "listed output file missing on disk";
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(OutputTailPin, TopOneSplit) {
  EXPECT_EQ(output_tail(1, 0), (std::vector<std::string>{
      "pipe.p0.t0.lc.fastq 95 4cec759dcf3e5667",
      "pipe.p0.t0.other.fastq 49 9a7a40ba73e114e9",
      "pipe.p0.t1.lc.fastq 75 61de0f12dc434af1",
      "pipe.p0.t1.other.fastq 31 98fc543d8bd563be",
      "pipe.p1.t0.lc.fastq 95 00f760d15f0dabf1",
      "pipe.p1.t0.other.fastq 49 c0a74b034942492f",
      "pipe.p1.t1.lc.fastq 75 e2473862c87a3012",
      "pipe.p1.t1.other.fastq 31 d9197b51fbb1cda2",
  }));
}

TEST(OutputTailPin, TopThreeSplit) {
  EXPECT_EQ(output_tail(3, 0), (std::vector<std::string>{
      "pipe.p0.t0.c0.fastq 95 4cec759dcf3e5667",
      "pipe.p0.t0.c1.fastq 7 c0c566d7bee221a8",
      "pipe.p0.t0.c2.fastq 4 1fd742e8c6054b92",
      "pipe.p0.t0.other.fastq 38 16552a33bfc9e1a9",
      "pipe.p0.t1.c0.fastq 75 61de0f12dc434af1",
      "pipe.p0.t1.c1.fastq 1 9ab25961ea23a36a",
      "pipe.p0.t1.c2.fastq 4 cb742759ecb04c8e",
      "pipe.p0.t1.other.fastq 26 fdf01cf2c42eb62e",
      "pipe.p1.t0.c0.fastq 95 00f760d15f0dabf1",
      "pipe.p1.t0.c1.fastq 7 14cc9b867dafcd78",
      "pipe.p1.t0.c2.fastq 4 90850dd9f6c151f1",
      "pipe.p1.t0.other.fastq 38 e2cbc9fb581d152c",
      "pipe.p1.t1.c0.fastq 75 e2473862c87a3012",
      "pipe.p1.t1.c1.fastq 1 cd8851f5bf278aa1",
      "pipe.p1.t1.c2.fastq 4 9246f67507d544f0",
      "pipe.p1.t1.other.fastq 26 6a8a75ab20252a1b",
  }));
}

TEST(OutputTailPin, TwoBins) {
  EXPECT_EQ(output_tail(1, 2), (std::vector<std::string>{
      "pipe.bins.json - cd542aa467f4b6b7",
      "pipe.p0.t0.b0.fastq 95 4cec759dcf3e5667",
      "pipe.p0.t0.b1.fastq 49 9a7a40ba73e114e9",
      "pipe.p0.t1.b0.fastq 75 61de0f12dc434af1",
      "pipe.p0.t1.b1.fastq 31 98fc543d8bd563be",
      "pipe.p1.t0.b0.fastq 95 00f760d15f0dabf1",
      "pipe.p1.t0.b1.fastq 49 c0a74b034942492f",
      "pipe.p1.t1.b0.fastq 75 e2473862c87a3012",
      "pipe.p1.t1.b1.fastq 31 d9197b51fbb1cda2",
  }));
}

TEST(OutputTailPin, EightBins) {
  EXPECT_EQ(output_tail(1, 8), (std::vector<std::string>{
      "pipe.bins.json - 3084e8fb6bd0c283",
      "pipe.p0.t0.b0.fastq 95 4cec759dcf3e5667",
      "pipe.p0.t0.b1.fastq 10 3c422612204540a6",
      "pipe.p0.t0.b2.fastq 7 f48b45429c2ff467",
      "pipe.p0.t0.b3.fastq 6 7358697f243e1a1b",
      "pipe.p0.t0.b4.fastq 6 45285b084579881b",
      "pipe.p0.t0.b5.fastq 6 099105e8f0c34314",
      "pipe.p0.t0.b6.fastq 8 8411e8dafb45ccd4",
      "pipe.p0.t0.b7.fastq 6 a9b97425fcae67e8",
      "pipe.p0.t1.b0.fastq 75 61de0f12dc434af1",
      "pipe.p0.t1.b1.fastq 2 4c84173439d529b8",
      "pipe.p0.t1.b2.fastq 5 7d4b7c66027bf1ae",
      "pipe.p0.t1.b3.fastq 6 4b704481659719cd",
      "pipe.p0.t1.b4.fastq 5 9eca522c115060a6",
      "pipe.p0.t1.b5.fastq 5 24525fcc02237540",
      "pipe.p0.t1.b6.fastq 3 d4a6d7632a74dc8c",
      "pipe.p0.t1.b7.fastq 5 389f16c931a7fe23",
      "pipe.p1.t0.b0.fastq 95 00f760d15f0dabf1",
      "pipe.p1.t0.b1.fastq 10 bbb83ff20741f55e",
      "pipe.p1.t0.b2.fastq 7 efd2c50abc558e5c",
      "pipe.p1.t0.b3.fastq 6 c368f195e0424fe1",
      "pipe.p1.t0.b4.fastq 6 2a3c7c3cea3b3ae5",
      "pipe.p1.t0.b5.fastq 6 a989a82d7c7b069d",
      "pipe.p1.t0.b6.fastq 8 8405c8fffa5ef724",
      "pipe.p1.t0.b7.fastq 6 54a96effee4a759a",
      "pipe.p1.t1.b0.fastq 75 e2473862c87a3012",
      "pipe.p1.t1.b1.fastq 2 cb241b0368d58ae3",
      "pipe.p1.t1.b2.fastq 5 72779050ffdfb103",
      "pipe.p1.t1.b3.fastq 6 2d361aa7625872f8",
      "pipe.p1.t1.b4.fastq 5 1c883a5b25dc3535",
      "pipe.p1.t1.b5.fastq 5 a30872995bad87ea",
      "pipe.p1.t1.b6.fastq 3 b6a0cee1b42e0a06",
      "pipe.p1.t1.b7.fastq 5 4f1ce98c544daf53",
  }));
}

TEST(Pipeline, EmptyInputExportsEveryArtifactOnce) {
  // The empty run goes through the same export as a full one: each
  // requested artifact is written, parses, and reports zero components,
  // while the output directory stays empty.
  Fixture fixture(15, 0);
  TempDir out;
  TempDir artifacts;
  auto cfg = base_config(15, out.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.write_output = true;
  cfg.metrics_out = artifacts.file("metrics.jsonl");
  cfg.trace_out = artifacts.file("trace.json");
  cfg.attr_out = artifacts.file("attr.json");
  cfg.comm_matrix_out = artifacts.file("comm.json");
  const auto r = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_TRUE(r.output_files.empty());
  EXPECT_TRUE(std::filesystem::is_empty(out.str()));

  std::set<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(artifacts.str()))
    written.insert(entry.path().filename().string());
  EXPECT_EQ(written,
            (std::set<std::string>{"metrics.jsonl", "trace.json", "attr.json", "comm.json"}));

  int components_rows = 0;
  for (const util::JsonValue& line : util::parse_jsonl_file(cfg.metrics_out)) {
    if (line.at("name").as_string() != "pipeline.components") continue;
    ++components_rows;
    EXPECT_EQ(line.at("value").as_number(), 0.0);
  }
  EXPECT_EQ(components_rows, 1);
  EXPECT_NO_THROW((void)util::parse_json_file(cfg.trace_out));
  const util::JsonValue attr = util::parse_json_file(cfg.attr_out);
  EXPECT_EQ(attr.at("ranks").as_int(), 2);
  EXPECT_EQ(attr.at("threads").as_int(), 2);
  const util::JsonValue comm = util::parse_json_file(cfg.comm_matrix_out);
  EXPECT_EQ(comm.at("ranks").as_int(), 2);
  EXPECT_EQ(comm.at("bytes").as_array().size(), 2u);
}

TEST(Pipeline, StepTimesPopulated) {
  Fixture fixture(15, 150);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  const auto r = run_metaprep(fixture.index, cfg);
  for (const char* step : {"KmerGen-I/O", "KmerGen", "KmerGen-Comm", "LocalSort", "LocalCC"}) {
    EXPECT_GT(r.step_times.map().count(step), 0u) << step;
  }
  // Multi-rank runs must include merge communication.
  EXPECT_GT(r.step_times.map().count("Merge-Comm"), 0u);
}

TEST(Pipeline, PartitionIndependentOfChunkCount) {
  // The logical chunking is an implementation detail; the decomposition
  // must not depend on it.
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "chunks";
  dcfg.genomes.num_species = 3;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 5000;
  dcfg.num_pairs = 200;
  const auto ds = sim::simulate_dataset(dcfg, dir.file("chunks"));

  std::vector<std::uint32_t> reference_labels;
  for (std::uint32_t chunks : {2, 5, 16, 64}) {
    IndexCreateOptions opt;
    opt.k = 15;
    opt.m = 5;
    opt.target_chunks = chunks;
    const auto index = create_index("chunks", ds.files, true, opt);
    auto cfg = base_config(15, dir.str());
    cfg.num_ranks = 3;
    cfg.threads_per_rank = 2;
    const auto r = run_metaprep(index, cfg);
    const auto normalized = test::normalize_partition(r.labels);
    if (reference_labels.empty()) {
      reference_labels = normalized;
    } else {
      EXPECT_EQ(normalized, reference_labels) << "chunks=" << chunks;
    }
  }
}

TEST(Pipeline, PartitionIndependentOfHistogramM) {
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "mval";
  dcfg.genomes.num_species = 3;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 5000;
  dcfg.num_pairs = 150;
  const auto ds = sim::simulate_dataset(dcfg, dir.file("mval"));

  std::vector<std::uint32_t> reference_labels;
  for (int m : {3, 5, 7}) {
    IndexCreateOptions opt;
    opt.k = 15;
    opt.m = m;
    opt.target_chunks = 8;
    const auto index = create_index("mval", ds.files, true, opt);
    auto cfg = base_config(15, dir.str());
    cfg.num_ranks = 2;
    cfg.threads_per_rank = 2;
    cfg.num_passes = 2;
    const auto r = run_metaprep(index, cfg);
    const auto normalized = test::normalize_partition(r.labels);
    if (reference_labels.empty()) {
      reference_labels = normalized;
    } else {
      EXPECT_EQ(normalized, reference_labels) << "m=" << m;
    }
  }
}

TEST(Pipeline, SingleEndDatasetEndToEnd) {
  TempDir dir;
  // Two single-end files: reads 0-1 overlap each other, 2-3 overlap each
  // other, and nothing crosses the groups.
  const auto genome = sim::random_genome(4000, 31);
  test::write_fastq(dir.file("a.fastq"),
                    {genome.substr(0, 60), genome.substr(30, 60)}, "a");
  test::write_fastq(dir.file("b.fastq"),
                    {genome.substr(2000, 60), genome.substr(2030, 60)}, "b");
  IndexCreateOptions opt;
  opt.k = 21;
  opt.m = 4;
  opt.target_chunks = 4;
  const auto index =
      create_index("se", {dir.file("a.fastq"), dir.file("b.fastq")}, false, opt);
  ASSERT_EQ(index.total_reads, 4u);

  auto cfg = base_config(21, dir.str());
  cfg.num_ranks = 2;
  cfg.write_output = true;
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(test::normalize_partition(r.labels),
            (std::vector<std::uint32_t>{0, 0, 2, 2}));
  // Output lossless for single-end too.
  std::uint64_t records = 0;
  for (const auto& f : r.output_files) records += test::read_all_fastq(f).size();
  EXPECT_EQ(records, 4u);
}

TEST(Pipeline, MultiLibraryPairedDataset) {
  // Two paired libraries (4 files); global read IDs must accumulate across
  // libraries and the partition must match the reference.
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "lib1";
  dcfg.genomes.num_species = 2;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 4000;
  dcfg.num_pairs = 80;
  const auto lib1 = sim::simulate_dataset(dcfg, dir.file("lib1"));
  dcfg.name = "lib2";
  dcfg.genomes.seed = 999;  // different community
  dcfg.reads.seed = 888;
  const auto lib2 = sim::simulate_dataset(dcfg, dir.file("lib2"));

  const std::vector<std::string> files{lib1.files[0], lib1.files[1], lib2.files[0],
                                       lib2.files[1]};
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 8;
  const auto index = create_index("multilib", files, true, opt);
  EXPECT_EQ(index.total_reads, 160u);

  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 3;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  const auto r = run_metaprep(index, cfg);
  const auto expected = reference_components(index, cfg.filter);
  EXPECT_EQ(test::normalize_partition(r.labels), test::normalize_partition(expected));
}

TEST(Pipeline, DeterministicAcrossRuns) {
  Fixture fixture(15, 200);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 3;
  cfg.threads_per_rank = 3;
  const auto a = run_metaprep(fixture.index, cfg);
  const auto b = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.total_tuples, b.total_tuples);
}

TEST(Pipeline, HandlesReadsShorterThanK) {
  // Reads shorter than k enumerate no k-mers: they must come out as
  // singletons, and the output must still be lossless.
  TempDir dir;
  const auto genome = sim::random_genome(2000, 41);
  test::write_fastq(dir.file("a.fastq"),
                    {genome.substr(0, 80), "ACGT", genome.substr(40, 80), "GG"});
  IndexCreateOptions opt;
  opt.k = 21;
  opt.m = 4;
  opt.target_chunks = 2;
  const auto index = create_index("short", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(21, dir.str());
  cfg.write_output = true;
  const auto r = run_metaprep(index, cfg);
  // Reads 0 and 2 overlap; 1 and 3 are k-mer-free singletons.
  EXPECT_EQ(r.num_components, 3u);
  std::uint64_t records = 0;
  for (const auto& f : r.output_files) records += test::read_all_fastq(f).size();
  EXPECT_EQ(records, 4u);
}

TEST(Pipeline, HandlesAllNReads) {
  TempDir dir;
  const auto genome = sim::random_genome(1000, 43);
  test::write_fastq(dir.file("a.fastq"),
                    {std::string(60, 'N'), genome.substr(0, 60), std::string(60, 'N')});
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  const auto index = create_index("ns", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(15, dir.str());
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 3u);  // every read isolated
}

TEST(Pipeline, EmptyFilterBandYieldsAllSingletons) {
  Fixture fixture(15, 100);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.filter.min_freq = 1'000'000;  // nothing is that frequent
  const auto r = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(r.num_components, static_cast<std::uint64_t>(r.num_reads));
  EXPECT_EQ(r.largest_size, 1u);
}

TEST(Pipeline, DuplicateReadsCollapseIntoOneComponent) {
  TempDir dir;
  const auto genome = sim::random_genome(500, 47);
  const std::string read = genome.substr(0, 80);
  test::write_fastq(dir.file("a.fastq"), {read, read, read, read});
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  const auto index = create_index("dup", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 2;
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.largest_size, 4u);
}

TEST(Pipeline, TinyDatasetWithManyRanksAndPasses) {
  // More ranks/threads/passes than there is work: everything must degrade
  // gracefully to empty ranges.
  TempDir dir;
  const auto genome = sim::random_genome(300, 53);
  test::write_fastq(dir.file("a.fastq"), {genome.substr(0, 60), genome.substr(30, 60)});
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 3;
  opt.target_chunks = 1;
  const auto index = create_index("tiny", {dir.file("a.fastq")}, false, opt);
  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 8;
  cfg.threads_per_rank = 4;
  cfg.num_passes = 6;
  cfg.write_output = true;
  const auto r = run_metaprep(index, cfg);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.num_reads, 2u);
}

TEST(Pipeline, CorruptFastqFailsLoudly) {
  // A file truncated after indexing: KmerGen's chunk read must throw, the
  // failure must poison the world, and the caller must see the exception.
  TempDir dir;
  const auto genome = sim::random_genome(2000, 59);
  std::vector<std::string> reads;
  for (std::size_t pos = 0; pos + 60 <= genome.size(); pos += 30) {
    reads.push_back(genome.substr(pos, 60));
  }
  test::write_fastq(dir.file("a.fastq"), reads);
  IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 4;
  opt.target_chunks = 4;
  const auto index = create_index("corrupt", {dir.file("a.fastq")}, false, opt);
  // Truncate the file after the index was built.
  std::filesystem::resize_file(dir.file("a.fastq"),
                               std::filesystem::file_size(dir.file("a.fastq")) / 2);
  auto cfg = base_config(15, dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  EXPECT_THROW(run_metaprep(index, cfg), std::runtime_error);
}

TEST(Pipeline, LongReadsMatchReference) {
  // 500 bp reads (PacBio-HiFi-ish length, error-free for simplicity).
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "long";
  dcfg.genomes.num_species = 3;
  dcfg.genomes.min_genome_len = 4000;
  dcfg.genomes.max_genome_len = 6000;
  dcfg.num_pairs = 60;
  dcfg.reads.read_len = 500;
  dcfg.reads.insert_mean = 1100;
  dcfg.reads.insert_sd = 50;
  const auto ds = sim::simulate_dataset(dcfg, dir.file("long"));
  IndexCreateOptions opt;
  opt.k = 27;
  opt.m = 5;
  opt.target_chunks = 6;
  const auto index = create_index("long", ds.files, true, opt);
  auto cfg = base_config(27, dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  const auto r = run_metaprep(index, cfg);
  const auto expected = reference_components(index, cfg.filter);
  EXPECT_EQ(test::normalize_partition(r.labels), test::normalize_partition(expected));
}

TEST(Pipeline, SimulatedCommTimeOnlyForMultiRank) {
  Fixture fixture(15, 150);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 1;
  const auto single = run_metaprep(fixture.index, cfg);
  EXPECT_DOUBLE_EQ(single.sim_comm_seconds, 0.0);
  cfg.num_ranks = 4;
  const auto multi = run_metaprep(fixture.index, cfg);
  EXPECT_GT(multi.sim_comm_seconds, 0.0);
}

TEST(Pipeline, SuperKmerStreamCountersShowAmortizedGrowth) {
  // The compressed exchange publishes its stream work to the run's metrics
  // JSONL.  Streams that grow geometrically move at most about their own
  // size when they regrow; one regrowth per record would move
  // O(records^2) bytes.
  Fixture fixture(15, 150);
  auto cfg = base_config(15, fixture.dir.str());
  cfg.num_ranks = 2;
  cfg.threads_per_rank = 2;
  cfg.num_passes = 2;
  cfg.comm_compress = CommCompress::kSuperKmer;
  cfg.metrics_out = fixture.dir.file("metrics.jsonl");
  const auto result = run_metaprep(fixture.index, cfg);
  EXPECT_EQ(test::normalize_partition(result.labels),
            test::normalize_partition(reference_components(fixture.index, cfg.filter)));

  std::map<std::string, double> counters;
  for (const util::JsonValue& line : util::parse_jsonl_file(cfg.metrics_out)) {
    if (line.string_or("type", "") == "counter")
      counters[line.at("name").as_string()] = line.at("value").as_number();
  }
  ASSERT_TRUE(counters.contains("comm.stream_grow_events"));
  ASSERT_TRUE(counters.contains("comm.stream_copied_bytes"));
  ASSERT_TRUE(counters.contains("comm.stream_bytes"));
  const double stream_bytes = counters["comm.stream_bytes"];
  EXPECT_GT(counters["comm.stream_grow_events"], 0.0);
  EXPECT_GT(stream_bytes, 0.0);
  EXPECT_LE(counters["comm.stream_copied_bytes"], 2.0 * stream_bytes);
  // Every shipped message is its streams plus a u64 length per dest thread.
  const double headers = 8.0 * cfg.threads_per_rank * cfg.num_ranks * cfg.num_ranks *
                         cfg.num_passes;
  EXPECT_LE(static_cast<double>(result.exchange_bytes), stream_bytes + headers);
}

TEST(Pipeline, KmerGenRecordsCountOneScanPerSweep) {
  // Each KmerGen sweep hands every record to the codec once, and a run
  // makes ceil(S/G) sweeps, so the counter exposes any codec that rescans.
  Fixture fixture(15, 150);
  std::uint64_t index_records = 0;
  for (const ChunkRecord& chunk : fixture.index.part.chunks) index_records += chunk.record_count;
  ASSERT_GT(index_records, 0u);
  constexpr int kPasses = 3;
  for (const CommCompress codec : {CommCompress::kNone, CommCompress::kSuperKmer}) {
    for (const PipelineMode mode : {PipelineMode::kBarrier, PipelineMode::kOverlap}) {
      for (const ReadStore store : {ReadStore::kText, ReadStore::kPacked}) {
        auto cfg = base_config(15, fixture.dir.str());
        cfg.num_ranks = 2;
        cfg.threads_per_rank = 2;
        cfg.num_passes = kPasses;
        cfg.comm_compress = codec;
        cfg.pipeline_mode = mode;
        cfg.read_store = store;
        cfg.parse_mode = io::ParseMode::kStrict;
        cfg.metrics_out = fixture.dir.file("metrics.jsonl");
        const int G = mode == PipelineMode::kOverlap ? 2 : 1;
        SCOPED_TRACE(std::string(codec == CommCompress::kNone ? "none" : "superkmer") +
                     " G" + std::to_string(G) +
                     (store == ReadStore::kText ? " text" : " packed"));
        (void)run_metaprep(fixture.index, cfg);
        double records = -1.0;
        for (const util::JsonValue& line : util::parse_jsonl_file(cfg.metrics_out)) {
          if (line.string_or("type", "") == "counter" &&
              line.at("name").as_string() == "pipeline.kmergen_records")
            records = line.at("value").as_number();
        }
        const std::uint64_t sweeps = (kPasses + G - 1) / G;
        EXPECT_EQ(records, static_cast<double>(sweeps * index_records));
      }
    }
  }
}

}  // namespace
}  // namespace metaprep::core
