// The benchmark's workloads: XL-mini (sim preset XL at scale 1.0, k = 27)
// run in three shapes that stress different layers.  See
// perfbench/README.md for why each one exists and which metrics it moves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/read_sim.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  int ranks = 1;    ///< P
  int threads = 1;  ///< T
  int passes = 1;   ///< S (fixed, never derived from a budget)
  metaprep::core::PipelineMode mode = metaprep::core::PipelineMode::kBarrier;
  metaprep::core::ReadStore store = metaprep::core::ReadStore::kText;
  metaprep::core::CommCompress compress = metaprep::core::CommCompress::kNone;
  metaprep::core::KmerFreqFilter filter;
  int output_bins = 0;  ///< 0: no output written
  int index_m = 8;
  std::uint32_t index_chunks = 48;
};

inline constexpr int kK = 27;
inline constexpr std::uint64_t kDefaultSeed = 1;

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// sim::preset_config(XL, 1.0) with its genome and read seeds shifted by
/// (seed - kDefaultSeed): the default seed reproduces the preset exactly.
metaprep::sim::DatasetConfig dataset_config(std::uint64_t seed);

/// The run_metaprep configuration of @p w; outputs (if any) go to @p out_dir.
metaprep::core::MetaprepConfig pipeline_config(const Workload& w, const std::string& out_dir);

}  // namespace perfbench
