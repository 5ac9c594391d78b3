// Performance-attribution layer tests: the Fig. 8 imbalance statistic,
// PhaseAccountant span/flow analysis on a hand-built trace, the golden
// metaprep-report rendering of a canned report, attr.json round-tripping
// through the offline loader, and — over a real pipeline grid — the
// invariant that the extracted critical path never exceeds the measured
// wall clock.
#include "obs/attr.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/index_create.hpp"
#include "core/pipeline.hpp"
#include "report.hpp"
#include "sim/read_sim.hpp"
#include "test_support.hpp"
#include "util/timer.hpp"

namespace metaprep::obs {
namespace {

using test::TempDir;

TEST(ImbalanceFactor, EdgeCases) {
  EXPECT_DOUBLE_EQ(PhaseAccountant::imbalance_factor({}), 0.0);       // empty phase
  EXPECT_DOUBLE_EQ(PhaseAccountant::imbalance_factor({0.7}), 1.0);    // single rank
  EXPECT_DOUBLE_EQ(PhaseAccountant::imbalance_factor({0.0, 0.0}), 0.0);  // all idle
  EXPECT_DOUBLE_EQ(PhaseAccountant::imbalance_factor({1.0, 3.0}), 1.5);
  EXPECT_DOUBLE_EQ(PhaseAccountant::imbalance_factor({2.0, 2.0, 2.0}), 1.0);
}

TEST(CommMatrixSkew, EdgeCases) {
  EXPECT_DOUBLE_EQ(comm_matrix_skew({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(comm_matrix_skew({42}, 1), 0.0);        // no off-diagonal
  EXPECT_DOUBLE_EQ(comm_matrix_skew({1, 2, 3}, 2), 0.0);   // undersized matrix
  EXPECT_DOUBLE_EQ(comm_matrix_skew({9, 0, 0, 9}, 2), 0.0);  // diagonal only
  // Off-diagonal {100, 300}: mean 200, max 300 -> 1.5.
  EXPECT_DOUBLE_EQ(comm_matrix_skew({0, 100, 300, 0}, 2), 1.5);
}

TEST(PhaseAccountant, EmptyTraceYieldsEmptyReport) {
  const AttrReport r = PhaseAccountant::analyze({});
  EXPECT_TRUE(r.phases.empty());
  EXPECT_TRUE(r.critical_path.steps.empty());
  EXPECT_DOUBLE_EQ(r.wall_s, 0.0);
}

/// Hand-built two-rank trace with one message edge:
///   rank 0: KmerGen [0, 2000us], KmerGen-Comm [2000, 2400us], send @2400
///   rank 1: KmerGen [0, 1600us], recv @2400, LocalSort [2400, 3400us]
/// The longest chain crosses the flow edge: 2000 + 400 + 1000 = 3400us,
/// beating rank 1's serial 1600 + 1000 = 2600us.
std::vector<TraceEvent> canned_trace() {
  std::vector<TraceEvent> ev;
  ev.push_back({"KmerGen", 0.0, 2000.0, 0, 0, 0, 0});
  ev.push_back({"KmerGen-Comm", 2000.0, 400.0, 0, 0, 0, 0});
  ev.push_back({"send", 2400.0, -1.0, 0, 0, 7, TraceEvent::kFlowSend});
  ev.push_back({"KmerGen", 0.0, 1600.0, 1, 0, 0, 0});
  ev.push_back({"recv", 2400.0, -1.0, 1, 0, 7, TraceEvent::kFlowRecv});
  ev.push_back({"LocalSort", 2400.0, 1000.0, 1, 0, 0, 0});
  return ev;
}

TEST(PhaseAccountant, CannedTracePhasesAndCriticalPath) {
  const AttrReport r = PhaseAccountant::analyze(canned_trace(), /*wall_us=*/4000.0);
  EXPECT_DOUBLE_EQ(r.wall_s, 0.004);
  EXPECT_DOUBLE_EQ(r.trace_span_s, 0.0034);
  EXPECT_EQ(r.ranks, 2);

  ASSERT_EQ(r.phases.size(), 3u);  // sorted by max_rank_s descending
  EXPECT_EQ(r.phases[0].name, "KmerGen");
  EXPECT_DOUBLE_EQ(r.phases[0].self_s, 0.0036);
  EXPECT_DOUBLE_EQ(r.phases[0].max_rank_s, 0.002);
  EXPECT_DOUBLE_EQ(r.phases[0].mean_rank_s, 0.0018);
  EXPECT_NEAR(r.phases[0].imbalance, 2.0 / 1.8, 1e-12);
  EXPECT_DOUBLE_EQ(r.phases[0].wall_frac, 0.5);
  EXPECT_EQ(r.phases[1].name, "LocalSort");
  EXPECT_DOUBLE_EQ(r.phases[1].imbalance, 1.0);  // single rank
  EXPECT_EQ(r.phases[2].name, "KmerGen-Comm");

  const CriticalPath& cp = r.critical_path;
  EXPECT_NEAR(cp.length_s, 0.0034, 1e-12);
  EXPECT_NEAR(cp.wait_s, 0.0004, 1e-12);
  EXPECT_NEAR(cp.compute_s, 0.003, 1e-12);
  ASSERT_EQ(cp.steps.size(), 3u);
  EXPECT_EQ(cp.steps[0].name, "KmerGen");
  EXPECT_EQ(cp.steps[0].pid, 0);
  EXPECT_EQ(cp.steps[1].name, "KmerGen-Comm");
  EXPECT_TRUE(cp.steps[1].wait);
  EXPECT_EQ(cp.steps[2].name, "LocalSort");
  EXPECT_EQ(cp.steps[2].pid, 1);
  EXPECT_TRUE(cp.steps[2].via_flow);  // entered through the message edge
}

TEST(PhaseAccountant, RankWallIsUnionOfOverlappingThreads) {
  // Rank 0 runs KmerGen on three threads: t0 [0, 1000us], t1 [500, 1500us]
  // and t2 [200, 400us] inside t0.  Its phase wall is the union, 1500us,
  // not the 2200us of thread-seconds; rank 1 runs one thread [0, 800us].
  std::vector<TraceEvent> ev;
  ev.push_back({"KmerGen", 0.0, 1000.0, 0, 0, 0, 0});
  ev.push_back({"KmerGen", 500.0, 1000.0, 0, 1, 0, 0});
  ev.push_back({"KmerGen", 200.0, 200.0, 0, 2, 0, 0});
  ev.push_back({"KmerGen", 0.0, 800.0, 1, 0, 0, 0});
  const AttrReport r = PhaseAccountant::analyze(ev, /*wall_us=*/2000.0);

  ASSERT_EQ(r.phases.size(), 1u);
  const PhaseStat& p = r.phases[0];
  EXPECT_DOUBLE_EQ(p.rank_wall_s.at(0), 0.0015);
  EXPECT_DOUBLE_EQ(p.rank_wall_s.at(1), 0.0008);
  EXPECT_DOUBLE_EQ(p.max_rank_s, 0.0015);
  EXPECT_DOUBLE_EQ(p.mean_rank_s, 0.00115);
  EXPECT_DOUBLE_EQ(p.max_rank_thread_s, 0.0022);
  EXPECT_DOUBLE_EQ(p.self_s, 0.003);
  EXPECT_NEAR(p.imbalance, 0.0015 / 0.00115, 1e-12);
  EXPECT_DOUBLE_EQ(p.wall_frac, 0.75);  // thread-seconds would claim 110%
}

/// The canned report used by the golden-rendering and round-trip tests:
/// analysis of canned_trace() plus the comm/memory sections the pipeline
/// would fill.
AttrReport canned_report() {
  AttrReport r = PhaseAccountant::analyze(canned_trace(), 4000.0);
  r.threads = 1;
  r.passes = 1;
  r.comm_ranks = 2;
  r.comm_bytes = {0, 100, 300, 0};
  r.comm_msgs = {0, 1, 1, 0};
  r.comm_skew = comm_matrix_skew(r.comm_bytes, 2);
  r.memory.push_back({"dsu", 1024, 2048});
  r.memory.push_back({"tuples", 3 << 20, 2 << 20});
  r.mem_predicted_total = 4 << 20;
  r.peak_rss_bytes = 64 << 20;
  r.rss_samples.push_back({"KmerGen", 60 << 20});
  r.rss_samples.push_back({"LocalSort", 64 << 20});
  return r;
}

TEST(FormatReport, GoldenCannedReport) {
  const std::string got = format_report(canned_report());
  const std::string want =
      "METAPREP performance attribution\n"
      "  wall 0.004 s (trace span 0.003 s, ranks=2 threads=1 passes=1)\n"
      "\n"
      "  phase walls (per rank: union of its threads' self-time; thread-s = most\n"
      "  thread-seconds on one rank; imbalance = max/mean over ranks, Fig. 8)\n"
      "  phase            max-rank (s) mean-rank(s) thread-s (s)  imbalance   wall%\n"
      "  KmerGen                0.0020       0.0018       0.0020      1.111   50.0%\n"
      "  LocalSort              0.0010       0.0010       0.0010      1.000   25.0%\n"
      "  KmerGen-Comm           0.0004       0.0004       0.0004      1.000   10.0%\n"
      "\n"
      "  critical path: 0.003 s (85.0% of wall; wait 0.000 s, compute 0.003 s)\n"
      "    [r0/t0]       KmerGen              0.0020 s\n"
      "    [r0/t0]       KmerGen-Comm         0.0004 s  (wait)\n"
      "    [r1/t0] <-msg LocalSort            0.0010 s\n"
      "\n"
      "  comm matrix: skew 1.500 (max/mean off-diagonal bytes)\n"
      "    src\\dst            0            1\n"
      "          0            0          100\n"
      "          1          300            0\n"
      "\n"
      "  memory high-water by subsystem (measured vs memory_model)\n"
      "    dsu            1.00 KiB   predicted     2.00 KiB  (-50.0%)\n"
      "    tuples         3.00 MiB   predicted     2.00 MiB  (+50.0%)\n"
      "    model total 4.00 MiB; peak RSS 64.00 MiB\n"
      "      after KmerGen          peak RSS    60.00 MiB\n"
      "      after LocalSort        peak RSS    64.00 MiB\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

TEST(AttrJson, RoundTripsThroughOfflineLoader) {
  const AttrReport orig = canned_report();
  TempDir dir;
  orig.write_json(dir.file("attr.json"));
  const AttrReport back = report::load_attr(dir.file("attr.json"));

  EXPECT_DOUBLE_EQ(back.wall_s, orig.wall_s);
  EXPECT_DOUBLE_EQ(back.trace_span_s, orig.trace_span_s);
  EXPECT_EQ(back.ranks, orig.ranks);
  EXPECT_EQ(back.threads, orig.threads);
  EXPECT_EQ(back.passes, orig.passes);
  ASSERT_EQ(back.phases.size(), orig.phases.size());
  for (std::size_t i = 0; i < orig.phases.size(); ++i) {
    EXPECT_EQ(back.phases[i].name, orig.phases[i].name);
    EXPECT_DOUBLE_EQ(back.phases[i].self_s, orig.phases[i].self_s);
    EXPECT_DOUBLE_EQ(back.phases[i].imbalance, orig.phases[i].imbalance);
    EXPECT_DOUBLE_EQ(back.phases[i].max_rank_thread_s, orig.phases[i].max_rank_thread_s);
    EXPECT_EQ(back.phases[i].rank_wall_s, orig.phases[i].rank_wall_s);
  }
  ASSERT_EQ(back.critical_path.steps.size(), orig.critical_path.steps.size());
  EXPECT_DOUBLE_EQ(back.critical_path.length_s, orig.critical_path.length_s);
  EXPECT_DOUBLE_EQ(back.critical_path.wait_s, orig.critical_path.wait_s);
  EXPECT_EQ(back.critical_path.steps[2].via_flow, true);
  EXPECT_EQ(back.comm_bytes, orig.comm_bytes);
  EXPECT_EQ(back.comm_msgs, orig.comm_msgs);
  EXPECT_DOUBLE_EQ(back.comm_skew, orig.comm_skew);
  ASSERT_EQ(back.memory.size(), orig.memory.size());
  EXPECT_EQ(back.memory[1].name, "tuples");
  EXPECT_EQ(back.memory[1].high_water_bytes, orig.memory[1].high_water_bytes);
  EXPECT_EQ(back.memory[1].predicted_bytes, orig.memory[1].predicted_bytes);
  EXPECT_EQ(back.mem_predicted_total, orig.mem_predicted_total);
  EXPECT_EQ(back.peak_rss_bytes, orig.peak_rss_bytes);
  ASSERT_EQ(back.rss_samples.size(), 2u);
  EXPECT_EQ(back.rss_samples[0].phase, "KmerGen");

  // The rendered table must be byte-identical after the round trip.
  EXPECT_EQ(format_report(back), format_report(orig));
}

TEST(ChromeTraceLoader, ParsesSpansFlowsAndInstants) {
  TempDir dir;
  const std::string path = dir.file("trace.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char* body =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"rank 0\"}},"
        "{\"name\":\"outer\",\"ph\":\"B\",\"ts\":0.0,\"pid\":0,\"tid\":0},"
        "{\"name\":\"inner\",\"ph\":\"B\",\"ts\":10.0,\"pid\":0,\"tid\":0},"
        "{\"name\":\"inner\",\"ph\":\"E\",\"ts\":30.0,\"pid\":0,\"tid\":0},"
        "{\"name\":\"mark\",\"ph\":\"i\",\"ts\":40.0,\"pid\":0,\"tid\":0,\"s\":\"t\"},"
        "{\"name\":\"outer\",\"ph\":\"E\",\"ts\":50.0,\"pid\":0,\"tid\":0},"
        "{\"name\":\"msg\",\"cat\":\"comm\",\"ph\":\"s\",\"id\":9,\"ts\":50.0,"
        "\"pid\":0,\"tid\":0},"
        "{\"name\":\"msg\",\"cat\":\"comm\",\"ph\":\"f\",\"id\":9,\"ts\":60.0,"
        "\"pid\":1,\"tid\":0,\"bp\":\"e\"}]}";
    std::fputs(body, f);
    std::fclose(f);
  }
  const auto events = report::load_chrome_trace(path);
  ASSERT_EQ(events.size(), 5u);  // inner, instant, outer, send, recv
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_DOUBLE_EQ(events[0].ts_us, 10.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 20.0);
  EXPECT_EQ(events[1].name, "mark");
  EXPECT_LT(events[1].dur_us, 0.0);
  EXPECT_EQ(events[1].flow_dir, 0);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_DOUBLE_EQ(events[2].dur_us, 50.0);
  EXPECT_EQ(events[3].flow_dir, TraceEvent::kFlowSend);
  EXPECT_EQ(events[3].flow, 9u);
  EXPECT_EQ(events[4].flow_dir, TraceEvent::kFlowRecv);
  EXPECT_EQ(events[4].pid, 1);
}

TEST(MetricsMerge, FillsGapsWithoutOverwriting) {
  TempDir dir;
  const std::string path = dir.file("metrics.jsonl");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"name\":\"proc.peak_rss_bytes\",\"type\":\"gauge\",\"value\":12345678}\n"
        "{\"name\":\"mem.sort.high_water\",\"type\":\"gauge\",\"value\":4096}\n"
        "{\"name\":\"mem.tuples.high_water\",\"type\":\"gauge\",\"value\":999}\n"
        "{\"name\":\"mpsim.comm_matrix_skew\",\"type\":\"gauge\",\"value\":2.5}\n"
        "{\"name\":\"sort.keys_sorted\",\"type\":\"counter\",\"value\":7}\n",
        f);
    std::fclose(f);
  }
  AttrReport r;
  r.memory.push_back({"tuples", 3 << 20, 2 << 20});
  r.comm_skew = 1.5;
  report::merge_metrics(r, report::load_metrics(path));
  EXPECT_EQ(r.peak_rss_bytes, 12345678u);      // filled from the gauge
  EXPECT_DOUBLE_EQ(r.comm_skew, 1.5);          // existing value wins
  ASSERT_EQ(r.memory.size(), 2u);              // sorted by name
  EXPECT_EQ(r.memory[0].name, "sort");         // new subsystem added
  EXPECT_EQ(r.memory[0].high_water_bytes, 4096u);
  EXPECT_EQ(r.memory[1].name, "tuples");
  EXPECT_EQ(r.memory[1].high_water_bytes, 3u << 20);  // not overwritten by 999
}

/// Differential grid over schedules, rank counts, and pass counts: the
/// critical path extracted from a real traced run can never exceed the
/// measured wall clock, and wait + compute must account for every step.
TEST(AttrGrid, CriticalPathNeverExceedsMeasuredWall) {
  TempDir dir;
  sim::DatasetConfig dcfg;
  dcfg.name = "attrgrid";
  dcfg.genomes.num_species = 4;
  dcfg.genomes.min_genome_len = 3000;
  dcfg.genomes.max_genome_len = 6000;
  dcfg.num_pairs = 250;
  dcfg.reads.seed = 77;
  const auto dataset = sim::simulate_dataset(dcfg, dir.file("attrgrid"));
  core::IndexCreateOptions opt;
  opt.k = 15;
  opt.m = 5;
  opt.target_chunks = 9;
  const auto index = core::create_index("attrgrid", dataset.files, true, opt);

  for (const auto mode : {core::PipelineMode::kBarrier, core::PipelineMode::kOverlap}) {
    for (const int P : {1, 4}) {
      for (const int S : {1, 2}) {
        core::MetaprepConfig cfg;
        cfg.k = 15;
        cfg.num_ranks = P;
        cfg.threads_per_rank = 2;
        cfg.num_passes = S;
        cfg.write_output = false;
        cfg.output_dir = dir.str();
        cfg.pipeline_mode = mode;
        cfg.attr_out = dir.file("attr_grid.json");
        util::WallTimer timer;
        const auto result = core::run_metaprep(index, cfg);
        const double outer_wall = timer.seconds();
        SCOPED_TRACE(testing::Message()
                     << "mode=" << (mode == core::PipelineMode::kOverlap ? "overlap" : "barrier")
                     << " P=" << P << " S=" << S);
        ASSERT_TRUE(result.has_attr);
        const AttrReport& a = result.attr;
        EXPECT_FALSE(a.phases.empty());
        EXPECT_FALSE(a.critical_path.steps.empty());
        EXPECT_GT(a.critical_path.length_s, 0.0);
        // Path <= run wall (recorded inside run_metaprep) <= our outer wall.
        EXPECT_LE(a.critical_path.length_s, a.wall_s + 1e-6);
        EXPECT_LE(a.critical_path.length_s, outer_wall + 1e-6);
        EXPECT_NEAR(a.critical_path.wait_s + a.critical_path.compute_s,
                    a.critical_path.length_s, 1e-6);
        for (const PhaseStat& p : a.phases) {
          if (p.self_s > 0.0) {
            EXPECT_GE(p.imbalance, 1.0);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace metaprep::obs
