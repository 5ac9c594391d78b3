// Performance attribution: phase accounting, imbalance, critical path.
//
// The paper's evaluation is built on attribution, not raw timings: Figure 8
// is per-rank load imbalance, Table 5 is memory per structure, and the
// scaling discussion hinges on which phase sits on the critical path.  This
// layer turns a TraceSession snapshot into that analysis:
//
//  - PhaseAccountant::analyze aggregates spans per (rank, thread, phase)
//    into *self-time* (span minus children, attributed to the innermost
//    span), computes per-phase wall fraction and the Fig. 8 imbalance
//    factor max/mean over ranks, and extracts the longest dependency chain
//    through the span DAG — serial edges within each (pid, tid) track plus
//    cross-thread send->recv edges from mpsim flow markers — with a
//    per-step wait vs. compute split, so "overlap mode hides N ms of comm"
//    becomes a printed number.
//
//  - AttrReport is the structured result: phases, critical path, the
//    per-(src,dst) comm matrix with skew, and per-subsystem memory
//    high-water marks reconciled against core/memory_model predictions.
//    to_json() serializes it as the `attr.json` artifact; format_report()
//    renders the human-readable table `tools/metaprep-report` prints.
//
// Everything here runs at quiescent points (after World::run) on data the
// tracer already collected — the hot path keeps the tracer's
// one-relaxed-load discipline and this file adds zero per-span cost.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace metaprep::obs {

/// Per-phase self-time aggregate across ranks and threads.  A rank's phase
/// wall is the union of its threads' self-time intervals, so T threads busy
/// at once count once; thread-seconds (their sum) are kept beside it.
struct PhaseStat {
  std::string name;
  double self_s = 0.0;       // thread-seconds summed over every (rank, thread)
  double max_rank_s = 0.0;   // slowest rank's phase wall
  double mean_rank_s = 0.0;  // mean phase wall over ranks that appear in the trace
  double max_rank_thread_s = 0.0;  // most thread-seconds any one rank spent
  double imbalance = 0.0;    // max/mean wall over ranks (Fig. 8); 1.0 single rank, 0 empty
  double wall_frac = 0.0;    // max_rank_s / wall_s
  std::map<int, double> rank_wall_s;  // rank -> phase wall seconds
};

/// One hop of the critical path (a maximal same-phase run of segments).
struct CritStep {
  std::string name;
  int pid = 0;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  bool wait = false;      // comm-wait time (phase name contains "Comm")
  bool via_flow = false;  // entered from the previous step through a message edge
};

/// Longest dependency chain through the span DAG.
struct CriticalPath {
  double length_s = 0.0;
  double wait_s = 0.0;     // time on the path spent in comm phases
  double compute_s = 0.0;  // length_s - wait_s
  std::vector<CritStep> steps;  // chronological order
};

/// Measured vs. predicted bytes for one subsystem.
struct MemSubsystem {
  std::string name;
  std::uint64_t high_water_bytes = 0;
  std::uint64_t predicted_bytes = 0;  // 0 = no memory_model mapping
};

/// peak RSS sampled at one phase boundary (satellite: per-phase RSS growth).
struct RssSample {
  std::string phase;
  std::uint64_t peak_rss_bytes = 0;
};

/// The structured attribution artifact (`attr.json`).
struct AttrReport {
  double wall_s = 0.0;        // measured run wall; trace extent when unset
  double trace_span_s = 0.0;  // [first span begin, last span end]
  int ranks = 0;
  int threads = 0;
  int passes = 0;

  std::vector<PhaseStat> phases;  // sorted by max_rank_s descending
  CriticalPath critical_path;

  int comm_ranks = 0;                    // matrix dimension (0 = not captured)
  std::vector<std::uint64_t> comm_bytes;  // P*P row-major (src, dst)
  std::vector<std::uint64_t> comm_msgs;   // P*P row-major (src, dst)
  double comm_skew = 0.0;  // max/mean over off-diagonal byte cells; 0 = no traffic

  std::vector<MemSubsystem> memory;        // sorted by name
  std::uint64_t mem_predicted_total = 0;   // memory_model total (all ranks)
  std::uint64_t peak_rss_bytes = 0;        // process VmHWM at run end
  std::vector<RssSample> rss_samples;      // phase-boundary peaks, run order

  [[nodiscard]] std::string to_json() const;
  /// Write to_json() to @p path (truncates).  Throws on I/O failure.
  void write_json(const std::string& path) const;
};

class PhaseAccountant {
 public:
  /// Build phase stats + critical path from a trace snapshot.  @p wall_us
  /// is the measured run wall (<= 0 uses the trace extent); it scales
  /// wall_frac and clamps the critical-path length.  comm/memory/RSS
  /// sections are left empty — the pipeline fills them from its own state.
  static AttrReport analyze(const std::vector<TraceEvent>& events, double wall_us = 0.0);

  /// Fig. 8 statistic: max/mean.  Empty input -> 0; one value -> 1;
  /// all-zero values -> 0.
  static double imbalance_factor(const std::vector<double>& per_rank);
};

/// Render the human-readable table (phase walls, imbalance, critical path,
/// comm skew, memory by subsystem) that `metaprep-report` prints.
std::string format_report(const AttrReport& r);

/// max/mean over the off-diagonal cells of a ranks x ranks row-major byte
/// matrix (AttrReport::comm_skew).  0 when ranks <= 1 or no traffic.
double comm_matrix_skew(const std::vector<std::uint64_t>& matrix, int ranks);

}  // namespace metaprep::obs
