// Figure 6: multi-node execution times and relative speedup (HG, LL, MM).
//
// Paper: P in {1,2,4,8,16} nodes, 24 threads each; HG uses 1 I/O pass, LL 2,
// MM 4.  Relative speedup on 16 nodes: 3.23x (HG) to 7.5x (MM); the gap to
// ideal is attributed to inter-node communication, the merge step, and
// KmerGen-I/O not scaling.  All simulated ranks share one host, so
// wall-clock speedup is bounded by its core count; we report measured
// per-step times plus the modeled interconnect seconds from the Edison cost
// model (8 GB/s links), which is where the multi-node *shape* (comm growing
// with P) shows up.
#include "bench_common.hpp"

int main() {
  using namespace metaprep;
  bench::maybe_enable_metrics();
  bench::print_title("Figure 6: multi-node scaling (simulated ranks), k=27, T=4");
  bench::BenchJsonWriter json("fig6_multinode");

  struct Case {
    sim::Preset preset;
    int passes;
  };
  const std::vector<Case> cases{{sim::Preset::HG, 1}, {sim::Preset::LL, 2},
                                {sim::Preset::MM, 4}};
  const std::vector<int> node_counts{1, 2, 4, 8, 16};

  for (const auto& c : cases) {
    bench::ScratchDir dir("fig6");
    const auto ds = bench::make_dataset(c.preset, dir.str());
    bench::print_title(ds.index.name + " (" + std::to_string(c.passes) + " pass(es))");
    util::TablePrinter table(
        bench::step_headers({"Nodes", "Sim-comm (ms)", "Tuples"}));
    double t1 = 0.0;
    std::vector<double> walls;
    for (int p : node_counts) {
      core::MetaprepConfig cfg;
      cfg.k = 27;
      cfg.num_ranks = p;
      cfg.threads_per_rank = 4;
      cfg.num_passes = c.passes;
      cfg.write_output = true;
      cfg.output_dir = dir.str();
      const auto run = bench::timed_run(ds.index, cfg);
      walls.push_back(run.wall_seconds);
      if (p == 1) t1 = run.wall_seconds;
      (void)t1;
      auto cells = bench::step_time_cells(run.result.step_times);
      cells.insert(cells.begin(), std::to_string(run.result.total_tuples));
      cells.insert(cells.begin(),
                   util::TablePrinter::fmt(run.result.sim_comm_seconds * 1e3, 3));
      cells.insert(cells.begin(), std::to_string(p));
      table.add_row(cells);
      json.add_row()
          .str("dataset", ds.index.name)
          .num("nodes", p)
          .num("wall_s", run.wall_seconds)
          .num("sim_comm_s", run.result.sim_comm_seconds)
          .num("tuples", run.result.total_tuples);
    }
    table.print();
    bench::print_relative_speedup("Relative speedup (wall, bounded by host cores)", node_counts, walls);
  }
  json.emit();
  std::printf("\nPaper: 16-node relative speedup HG 3.23x, LL ~5x, MM 7.5x; MM (11.1 Gbp)\n"
              "processed in 22 s on 16 nodes.  Expect here: Merge-Comm/MergeCC and\n"
              "sim-comm growing with node count, per-rank tuple counts shrinking.\n");
  return 0;
}
