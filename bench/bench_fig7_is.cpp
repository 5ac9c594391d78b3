// Figure 7: multi-node execution time for the Iowa Continuous Corn soil
// dataset — 16 nodes with 8 passes vs 64 nodes with 2 passes.
//
// Paper: 3.25x speedup from 16 to 64 nodes (4x ranks AND 4x fewer passes);
// KmerGen dominates both runs (unlike the single-node case where LocalSort
// dominates), because FASTQ files are redundantly read on every pass.
#include "bench_common.hpp"

int main() {
  using namespace metaprep;
  bench::print_title("Figure 7: IS dataset, 16 nodes/8 passes vs 64 nodes/2 passes");

  bench::ScratchDir dir("fig7");
  // T=2 keeps total thread count sane (64 ranks x T threads on one host).
  const auto ds = bench::make_dataset(sim::Preset::IS, dir.str(), 27, 8, 128);

  struct Case {
    int nodes;
    int passes;
  };
  util::TablePrinter table(bench::step_headers({"Nodes", "Passes", "Sim-comm (ms)"}));
  std::vector<double> walls;
  for (const auto& c : std::vector<Case>{{16, 8}, {64, 2}}) {
    core::MetaprepConfig cfg;
    cfg.k = 27;
    cfg.num_ranks = c.nodes;
    cfg.threads_per_rank = 2;
    cfg.num_passes = c.passes;
    cfg.write_output = true;
    cfg.output_dir = dir.str();
    util::WallTimer timer;
    const auto result = core::run_metaprep(ds.index, cfg);
    walls.push_back(timer.seconds());
    auto cells = bench::step_time_cells(result.step_times);
    cells.insert(cells.begin(),
                 util::TablePrinter::fmt(result.sim_comm_seconds * 1e3, 3));
    cells.insert(cells.begin(), std::to_string(c.passes));
    cells.insert(cells.begin(), std::to_string(c.nodes));
    table.add_row(cells);
  }
  table.print();
  std::printf("Wall: 16N/8S %.0f ms, 64N/2S %.0f ms (ratio %.2fx; paper: 3.25x on real\n"
              "hardware — here ranks share one host, so the ratio mostly reflects the\n"
              "4x reduction in redundant I/O passes, visible in KmerGen-I/O+KmerGen).\n",
              walls[0] * 1e3, walls[1] * 1e3, walls[0] / walls[1]);
  return 0;
}
