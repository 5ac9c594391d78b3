#include "workloads.hpp"

#include <stdexcept>

#include "sim/presets.hpp"

namespace perfbench {

namespace core = metaprep::core;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    // Fig. 5 shape: one process, four threads, everything in one pass.
    Workload one;
    one.name = "xl-1rank";
    one.ranks = 1;
    one.threads = 4;
    one.passes = 1;
    v.push_back(one);

    // Fig. 6/9 shape: four ranks exchanging super-k-mer records.
    Workload sk;
    sk.name = "xl-4rank-superkmer";
    sk.ranks = 4;
    sk.threads = 1;
    sk.passes = 2;
    sk.store = core::ReadStore::kPacked;
    sk.compress = core::CommCompress::kSuperKmer;
    v.push_back(sk);

    // Tab. 3 shape: multi-pass, overlap schedule, filtered, binned output,
    // the CLI-default m = 10.  The index keeps 48 chunks: at the CLI
    // default of 384 its per-chunk m-mer histograms take 1.61 GB on disk
    // and in every run process, too much for a small shared host.
    Workload low;
    low.name = "xl-lowmem-binned";
    low.ranks = 2;
    low.threads = 2;
    low.passes = 4;
    low.mode = core::PipelineMode::kOverlap;
    low.filter.min_freq = 2;
    low.filter.max_freq = 30;
    low.output_bins = 8;
    low.index_m = 10;
    low.index_chunks = 48;
    v.push_back(low);
    return v;
  }();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

metaprep::sim::DatasetConfig dataset_config(std::uint64_t seed) {
  metaprep::sim::DatasetConfig c = metaprep::sim::preset_config(metaprep::sim::Preset::XL, 1.0);
  c.genomes.seed += seed - kDefaultSeed;
  c.reads.seed += seed - kDefaultSeed;
  return c;
}

core::MetaprepConfig pipeline_config(const Workload& w, const std::string& out_dir) {
  core::MetaprepConfig cfg;
  cfg.k = kK;
  cfg.num_ranks = w.ranks;
  cfg.threads_per_rank = w.threads;
  cfg.num_passes = w.passes;
  cfg.pipeline_mode = w.mode;
  cfg.read_store = w.store;
  cfg.comm_compress = w.compress;
  cfg.filter = w.filter;
  cfg.write_output = w.output_bins > 0;
  cfg.output_bins = w.output_bins;
  cfg.output_dir = out_dir;
  return cfg;
}

}  // namespace perfbench
