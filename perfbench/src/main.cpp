// mpbench: the METAPREP benchmark harness (driven by perfbench/run.py).
//
//   mpbench prepare --workload W --seed N --dir D
//       Simulate the workload's XL-mini dataset into D and build the
//       reference partition (D/ref.bin).  Untimed by the benchmark.
//   mpbench setup --workload W --dir D
//       Repeated create_index + save_index + load_index, the set-up a CLI
//       user pays before `run`; leaves D/index.bin.
//   mpbench run --workload W --dir D [--threads T] [--trace 1]
//       load_index, then one timed run_metaprep checked against D/ref.bin.
//   mpbench replay --workload W --dir D
//       The per-layer replays on the same data, with spans.
//
// Every subcommand prints one JSON object on stdout.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/index_create.hpp"
#include "core/indices.hpp"
#include "core/memory_model.hpp"
#include "core/packed_ingest.hpp"
#include "core/pipeline.hpp"
#include "io/fastq.hpp"
#include "part/part.hpp"
#include "replay.hpp"
#include "sim/read_sim.hpp"
#include "spans.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace core = metaprep::core;
namespace io = metaprep::io;
namespace util = metaprep::util;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

struct Args {
  std::string cmd;
  std::map<std::string, std::string> opts;
  [[nodiscard]] std::string get(const std::string& key) const {
    auto it = opts.find(key);
    if (it == opts.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const {
    auto it = opts.find(key);
    return it == opts.end() ? fallback : std::stoll(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: mpbench prepare|setup|run|replay --workload W ...");
  }
  if (argc % 2 != 0) throw std::invalid_argument("options come in --key value pairs");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad option " + key);
    a.opts[key.substr(2)] = argv[i + 1];
  }
  return a;
}

std::vector<std::string> dataset_files(const std::string& dir) {
  return {dir + "/XL_1.fastq", dir + "/XL_2.fastq"};
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

int cmd_prepare(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const std::uint64_t seed = std::stoull(a.get("seed"));
  const metaprep::sim::SimulatedDataset ds =
      metaprep::sim::simulate_dataset(dataset_config(seed), dir + "/XL");
  const ParsedReads reads = read_pieces(whole_file_pieces(ds.files));
  Reference ref = build_reference(scan_tuples(reads, kK), static_cast<std::uint32_t>(ds.num_pairs),
                                  w.filter, kK);
  save_reference(ref, dir + "/ref.bin");

  std::printf("%s\n", JsonLine()
                          .num("bases", static_cast<double>(ds.total_bases))
                          .num("tuples", static_cast<double>(ref.tuples))
                          .num("components", static_cast<double>(ref.components))
                          .str()
                          .c_str());
  return 0;
}

int cmd_setup(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  // At least kMinRepeats set-ups, more while they take under kTargetS in
  // total, at most kMaxRepeats.  An m = 8 index sets up in ~0.1 s with
  // frequent 2x outliers, so its median needs many repeats; the 201 MB
  // m = 10 index of xl-lowmem-binned (~0.7 s each) gets the minimum.
  constexpr int kMinRepeats = 3;
  constexpr int kMaxRepeats = 30;
  constexpr double kTargetS = 1.5;
  const std::string path = dir + "/index.bin";
  std::vector<double> create_s, hist_s, save_s, load_s, total_s;
  std::uint64_t bytes = 0;
  util::WallTimer elapsed;
  for (int i = 0; i < kMaxRepeats && (i < kMinRepeats || elapsed.seconds() < kTargetS); ++i) {
    core::IndexCreateOptions opt;
    opt.k = kK;
    opt.m = w.index_m;
    opt.target_chunks = w.index_chunks;
    core::IndexCreateTiming timing;
    double c = 0, s = 0, l = 0;
    {
      util::WallTimer t;
      const core::DatasetIndex index =
          core::create_index("XL", dataset_files(dir), true, opt, &timing);
      c = t.seconds();
      t.reset();
      core::save_index(index, path);
      s = t.seconds();
    }
    {
      util::WallTimer t;
      const core::DatasetIndex index = core::load_index(path);
      l = t.seconds();
    }
    bytes = fs::file_size(path);
    create_s.push_back(c);
    hist_s.push_back(timing.histogram_seconds);
    save_s.push_back(s);
    load_s.push_back(l);
    total_s.push_back(c + s + l);
  }
  std::printf("%s\n", JsonLine()
                          .raw("create_s", json_array(create_s))
                          .raw("hist_s", json_array(hist_s))
                          .raw("save_s", json_array(save_s))
                          .raw("load_s", json_array(load_s))
                          .raw("total_s", json_array(total_s))
                          .num("index_bytes", static_cast<double>(bytes))
                          .str()
                          .c_str());
  return 0;
}

/// The rank whose step total is largest.  Its steps run one after another,
/// so unlike step_times (per-step maxima over ranks) they never overlap.
const util::StepTimes& slowest_rank(const core::PipelineResult& r) {
  return *std::max_element(
      r.rank_times.begin(), r.rank_times.end(),
      [](const util::StepTimes& x, const util::StepTimes& y) { return x.total() < y.total(); });
}

double rank_imbalance(const core::PipelineResult& r) {
  double sum = 0.0;
  for (const util::StepTimes& t : r.rank_times) sum += t.total();
  return sum > 0.0 ? slowest_rank(r).total() / (sum / static_cast<double>(r.rank_times.size()))
                   : 1.0;
}

std::string steps_json(const util::StepTimes& t) {
  JsonLine out;
  for (const auto& [name, seconds] : t.map()) out.num(name, seconds);
  return out.str();
}

int cmd_run(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const core::DatasetIndex index = core::load_index(dir + "/index.bin");
  const Reference ref = load_reference(dir + "/ref.bin");

  core::MetaprepConfig cfg = pipeline_config(w, dir + "/out");
  cfg.threads_per_rank = static_cast<int>(a.get_int("threads", w.threads));
  if (cfg.write_output) {
    fs::remove_all(cfg.output_dir);
    fs::create_directories(cfg.output_dir);
  }

  // Traced: one span around the call, kept in memory and printed at the
  // end.  Untraced: a bare wall timer.
  const bool traced = a.get_int("trace", 0) != 0;
  SpanRecorder spans;
  const int span = traced ? spans.begin("run_metaprep") : -1;
  util::WallTimer wall_timer;
  const core::PipelineResult r = core::run_metaprep(index, cfg);
  const double wall = traced ? spans.end(span) : wall_timer.seconds();

  const bool labels_ok =
      r.labels.size() == ref.canon.size() && canonical_labels(r.labels) == ref.canon;
  core::MemoryModelInput mm;
  mm.total_tuples = index.mer_hist.total();
  mm.total_reads = index.total_reads;
  mm.num_chunks = index.part.num_chunks();
  mm.max_chunk_bytes = index.max_chunk_bytes();
  mm.m = index.mer_hist.m;
  mm.num_ranks = cfg.num_ranks;
  mm.threads_per_rank = cfg.threads_per_rank;
  mm.num_passes = cfg.num_passes;
  const core::MemoryBreakdown est = core::estimate_memory(mm);

  std::printf("%s\n",
              JsonLine()
                  .num("wall_s", wall)
                  .boolean("labels_ok", labels_ok)
                  .boolean("tuples_ok", r.total_tuples == ref.tuples)
                  .num("components", static_cast<double>(r.num_components))
                  .num("tuples", static_cast<double>(r.total_tuples))
                  .num("exchange_bytes", static_cast<double>(r.exchange_bytes))
                  .num("superkmer_records", static_cast<double>(r.superkmer_records))
                  .num("superkmer_ratio", r.superkmer_ratio)
                  .num("messages", static_cast<double>(r.message_count))
                  .num("sim_comm_s", r.sim_comm_seconds)
                  .num("merge_comm_bytes", static_cast<double>(r.merge_comm_bytes))
                  .num("label_scatter_bytes", static_cast<double>(r.label_scatter_bytes))
                  .num("cc_iterations", r.cc_iterations_max)
                  .num("max_tuple_buffer_bytes", static_cast<double>(r.max_tuple_buffer_bytes))
                  .num("bin_skew", r.bin_skew)
                  .num("rank_imbalance", rank_imbalance(r))
                  .num("memmodel_bytes", static_cast<double>(est.total))
                  .raw("steps", steps_json(r.step_times))
                  .raw("slowest_rank_steps", steps_json(slowest_rank(r)))
                  .raw("spans", spans.to_json())
                  .str()
                  .c_str());
  return 0;
}

int cmd_replay(const Args& a) {
  const Workload& w = find_workload(a.get("workload"));
  const std::string dir = a.get("dir");
  const core::DatasetIndex index = core::load_index(dir + "/index.bin");
  const Reference ref = load_reference(dir + "/ref.bin");
  const int S = w.passes, P = w.ranks, T = w.threads;
  JsonLine m;
  bool ok = true;
  SpanRecorder spans;
  const int root = spans.begin("replay");

  // io/fastq read side: every index chunk read and parsed.
  int id = spans.begin("io.parse", root);
  const ParsedReads reads = read_pieces(chunk_pieces(index));
  spans.end(id);
  spans.count(id, "bytes", static_cast<double>(reads.bytes));
  spans.count(id, "records", static_cast<double>(reads.recs.size()));
  m.num("io.parse_mb_per_s", static_cast<double>(reads.bytes) / 1e6 / reads.parse_seconds);

  // kmer/scanner over the dataset.
  id = spans.begin("kmer.scan", root);
  Cells cells;
  {
    const Tuples tuples = scan_tuples(reads, kK);
    const double scan_s = spans.end(id);
    spans.count(id, "kmers", static_cast<double>(tuples.keys.size()));
    m.num("kmer.kmers", static_cast<double>(tuples.keys.size()));
    m.num("kmer.scan_mkmers_per_s", static_cast<double>(tuples.keys.size()) / 1e6 / scan_s);
    ok = ok && tuples.keys.size() == ref.tuples;
    id = spans.begin("sort.partition", root);
    cells = partition_cells(tuples, index, S, P, T, kK);
    spans.end(id);
  }

  // sort: radix_sort_kv64 per (pass, rank, thread) cell.
  std::uint64_t widest_rank = 0;
  for (int s = 0; s < S; ++s) {
    for (int p = 0; p < P; ++p) widest_rank = std::max(widest_rank, cells.rank_tuples(s, p));
  }
  id = spans.begin("sort.radix", root);
  const double sort_s = sort_cells(cells, kK);
  spans.end(id);
  spans.count(id, "tuples", static_cast<double>(cells.keys.size()));
  m.num("sort.tuples", static_cast<double>(cells.keys.size()));
  m.num("sort.array_mb", static_cast<double>(widest_rank) * 12.0 / 1e6);
  m.num("sort.mtuples_per_s", static_cast<double>(cells.keys.size()) / 1e6 / sort_s);

  // dsu: AtomicDSU unions over the accepted runs.
  id = spans.begin("dsu.unions", root);
  const DsuReplay d = union_cells(cells, ref.reads, w.filter);
  spans.end(id);
  spans.count(id, "unions", static_cast<double>(d.unions));
  m.num("dsu.munions_per_s", static_cast<double>(d.unions) / 1e6 / d.seconds);
  const bool dsu_ok = d.canon == ref.canon;
  ok = ok && dsu_ok;

  // kmer/superkmer encode + decode, then mpsim alltoallv_staged of the
  // workload's own wire format.
  ExchangeReplay ex;
  if (w.compress == core::CommCompress::kSuperKmer) {
    id = spans.begin("kmer.superkmer", root);
    const core::MetaprepConfig cfg = pipeline_config(w, dir);
    const SuperKmerReplay sk =
        superkmer_roundtrip(reads, index, S, P, T, kK, cfg.superkmer_minimizer_len);
    spans.end(id);
    spans.count(id, "records", static_cast<double>(sk.records));
    spans.count(id, "grow_events", static_cast<double>(sk.grow_events));
    spans.count(id, "copied_bytes", static_cast<double>(sk.copied_bytes));
    m.num("kmer.sk_records", static_cast<double>(sk.records));
    m.num("kmer.sk_encode_mb_per_s",
          static_cast<double>(sk.stream_bytes) / 1e6 / sk.encode_seconds);
    m.num("kmer.sk_decode_mkmers_per_s",
          static_cast<double>(sk.decoded_kmers) / 1e6 / sk.decode_seconds);
    m.num("kmer.stream_grow_events", static_cast<double>(sk.grow_events));
    m.num("kmer.stream_copied_mb", static_cast<double>(sk.copied_bytes) / 1e6);
    m.num("kmer.stream_mb", static_cast<double>(sk.stream_bytes) / 1e6);
    m.num("kmer.stream_waste",
          static_cast<double>(sk.copied_bytes) / static_cast<double>(sk.stream_bytes));
    m.num("sk_shipped_bytes", static_cast<double>(sk.shipped_bytes));
    ok = ok && sk.kmers == ref.tuples && sk.decoded_kmers == ref.tuples;
    id = spans.begin("mpsim.alltoallv", root);
    ex = exchange_messages(sk);
  } else {
    id = spans.begin("mpsim.alltoallv", root);
    ex = exchange_tuples(cells);
  }
  spans.end(id);
  spans.count(id, "bytes", static_cast<double>(ex.bytes));
  m.num("mpsim.alltoallv_mb_per_s", static_cast<double>(ex.bytes) / 1e6 / ex.seconds);

  // part + io/fastq write side: bin the reference components, write them.
  if (w.output_bins > 0) {
    std::vector<std::uint64_t> size(ref.reads, 0);
    for (std::uint32_t l : ref.canon) ++size[l];
    std::vector<metaprep::part::Component> comps;
    for (std::uint32_t r = 0; r < ref.reads; ++r) {
      if (size[r] == 0) continue;
      comps.push_back({r, size[r], size[r] * index.total_bases / ref.reads});
    }
    id = spans.begin("part.binpack", root);
    const metaprep::part::BinPlan plan = metaprep::part::greedy_bin_pack(comps, w.output_bins);
    m.num("part.binpack_s", spans.end(id));
    const metaprep::part::RootSlotTable table = metaprep::part::make_root_slot_table(comps, plan);

    const std::string out_dir = dir + "/replay_out";
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);
    id = spans.begin("io.write", root);
    std::uint64_t written = 0;
    {
      std::vector<std::unique_ptr<io::FastqWriter>> writers;
      for (int b = 0; b < w.output_bins; ++b) {
        writers.push_back(
            std::make_unique<io::FastqWriter>(out_dir + "/b" + std::to_string(b) + ".fastq"));
      }
      for (const ParsedReads::Rec& rec : reads.recs)
        writers[table.slot_of(ref.canon[rec.read_id])]->write(rec.id, rec.seq, rec.qual);
      for (auto& wr : writers) {
        wr->close();
        written += wr->bytes_written();
      }
    }
    const double write_s = spans.end(id);
    spans.count(id, "bytes", static_cast<double>(written));
    m.num("io.write_mb_per_s", static_cast<double>(written) / 1e6 / write_s);
    fs::remove_all(out_dir);
  }

  // core/packed_ingest + io/packed_store.
  if (w.store == core::ReadStore::kPacked) {
    id = spans.begin("ingest.packed", root);
    io::PackedStoreStats st;
    core::build_packed_store_in_memory(index, io::ParseMode::kStrict, P * T, &st);
    const double ingest_s = spans.end(id);
    spans.count(id, "bases", static_cast<double>(st.bases));
    m.num("ingest.s", ingest_s);
    m.num("ingest.mbp_per_s", static_cast<double>(st.bases) / 1e6 / ingest_s);
    m.num("ingest.store_mb", static_cast<double>(st.file_bytes) / 1e6);
  }
  spans.end(root);

  m.boolean("ok", ok).boolean("dsu_ok", dsu_ok).raw("spans", spans.to_json());
  std::printf("%s\n", m.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    if (a.cmd == "prepare") return perfbench::cmd_prepare(a);
    if (a.cmd == "setup") return perfbench::cmd_setup(a);
    if (a.cmd == "run") return perfbench::cmd_run(a);
    if (a.cmd == "replay") return perfbench::cmd_replay(a);
    throw std::invalid_argument("unknown subcommand " + a.cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpbench: %s\n", e.what());
    return 1;
  }
}
