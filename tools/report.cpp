#include "report.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>

#include "util/error.hpp"

namespace metaprep::report {

namespace {

using util::JsonValue;

std::vector<std::uint64_t> read_matrix(const JsonValue& rows, int ranks) {
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<std::uint64_t> flat(n * n, 0);
  const auto& arr = rows.as_array();
  if (arr.size() != n) throw util::parse_error("attr: comm matrix row count != ranks");
  for (std::size_t r = 0; r < n; ++r) {
    const auto& row = arr[r].as_array();
    if (row.size() != n) throw util::parse_error("attr: comm matrix column count != ranks");
    for (std::size_t c = 0; c < n; ++c) flat[r * n + c] = row[c].as_uint();
  }
  return flat;
}

}  // namespace

obs::AttrReport attr_from_json(const JsonValue& doc) {
  obs::AttrReport r;
  r.wall_s = doc.number_or("wall_s", 0.0);
  r.trace_span_s = doc.number_or("trace_span_s", 0.0);
  r.ranks = static_cast<int>(doc.number_or("ranks", 0.0));
  r.threads = static_cast<int>(doc.number_or("threads", 0.0));
  r.passes = static_cast<int>(doc.number_or("passes", 0.0));

  if (const JsonValue* phases = doc.find("phases")) {
    for (const JsonValue& pv : phases->as_array()) {
      obs::PhaseStat ps;
      ps.name = pv.at("name").as_string();
      ps.self_s = pv.number_or("self_s", 0.0);
      ps.max_rank_s = pv.number_or("max_rank_s", 0.0);
      ps.mean_rank_s = pv.number_or("mean_rank_s", 0.0);
      ps.max_rank_thread_s = pv.number_or("max_rank_thread_s", 0.0);
      ps.imbalance = pv.number_or("imbalance", 0.0);
      ps.wall_frac = pv.number_or("wall_frac", 0.0);
      if (const JsonValue* per_rank = pv.find("per_rank")) {
        for (const auto& [rank_str, sec] : per_rank->as_object())
          ps.rank_wall_s[std::atoi(rank_str.c_str())] = sec.as_number();
      }
      r.phases.push_back(std::move(ps));
    }
  }

  if (const JsonValue* cp = doc.find("critical_path")) {
    r.critical_path.length_s = cp->number_or("length_s", 0.0);
    r.critical_path.wait_s = cp->number_or("wait_s", 0.0);
    r.critical_path.compute_s = cp->number_or("compute_s", 0.0);
    if (const JsonValue* steps = cp->find("steps")) {
      for (const JsonValue& sv : steps->as_array()) {
        obs::CritStep st;
        st.name = sv.at("name").as_string();
        st.pid = static_cast<int>(sv.number_or("pid", 0.0));
        st.tid = static_cast<int>(sv.number_or("tid", 0.0));
        st.start_us = sv.number_or("start_us", 0.0);
        st.dur_us = sv.number_or("dur_us", 0.0);
        if (const JsonValue* w = sv.find("wait")) st.wait = w->as_bool();
        if (const JsonValue* f = sv.find("via_flow")) st.via_flow = f->as_bool();
        r.critical_path.steps.push_back(std::move(st));
      }
    }
  }

  if (const JsonValue* comm = doc.find("comm")) {
    r.comm_ranks = static_cast<int>(comm->number_or("ranks", 0.0));
    r.comm_skew = comm->number_or("skew", 0.0);
    if (r.comm_ranks > 0) {
      r.comm_bytes = read_matrix(comm->at("bytes"), r.comm_ranks);
      r.comm_msgs = read_matrix(comm->at("msgs"), r.comm_ranks);
    }
  }

  if (const JsonValue* mem = doc.find("memory")) {
    if (const JsonValue* subs = mem->find("subsystems")) {
      for (const JsonValue& mv : subs->as_array()) {
        obs::MemSubsystem ms;
        ms.name = mv.at("name").as_string();
        ms.high_water_bytes = mv.at("high_water_bytes").as_uint();
        ms.predicted_bytes =
            static_cast<std::uint64_t>(std::max(0.0, mv.number_or("predicted_bytes", 0.0)));
        r.memory.push_back(std::move(ms));
      }
    }
    r.mem_predicted_total =
        static_cast<std::uint64_t>(std::max(0.0, mem->number_or("predicted_total_bytes", 0.0)));
    r.peak_rss_bytes =
        static_cast<std::uint64_t>(std::max(0.0, mem->number_or("peak_rss_bytes", 0.0)));
    if (const JsonValue* samples = mem->find("rss_samples")) {
      for (const JsonValue& sv : samples->as_array()) {
        obs::RssSample rs;
        rs.phase = sv.at("phase").as_string();
        rs.peak_rss_bytes = sv.at("peak_rss_bytes").as_uint();
        r.rss_samples.push_back(std::move(rs));
      }
    }
  }
  return r;
}

obs::AttrReport load_attr(const std::string& path) {
  return attr_from_json(util::parse_json_file(path));
}

std::vector<obs::TraceEvent> load_chrome_trace(const std::string& path) {
  const JsonValue doc = util::parse_json_file(path);
  const auto& trace_events = doc.at("traceEvents").as_array();

  std::vector<obs::TraceEvent> out;
  // Per-track stack of open "B" events; "E" closes the innermost one.
  struct Open {
    std::string name;
    double ts = 0.0;
  };
  std::map<std::pair<int, int>, std::vector<Open>> open;

  for (const JsonValue& ev : trace_events) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "M") continue;  // process metadata
    const int pid = static_cast<int>(ev.number_or("pid", 0.0));
    const int tid = static_cast<int>(ev.number_or("tid", 0.0));
    const double ts = ev.number_or("ts", 0.0);
    const std::string name = ev.string_or("name", "");
    if (ph == "B") {
      open[{pid, tid}].push_back(Open{name, ts});
    } else if (ph == "E") {
      auto& stack = open[{pid, tid}];
      if (stack.empty())
        throw util::parse_error("trace: \"E\" event with no open span on pid " +
                                std::to_string(pid) + " tid " + std::to_string(tid));
      obs::TraceEvent span;
      span.name = stack.back().name;
      span.ts_us = stack.back().ts;
      span.dur_us = std::max(0.0, ts - stack.back().ts);
      span.pid = pid;
      span.tid = tid;
      stack.pop_back();
      out.push_back(std::move(span));
    } else if (ph == "s" || ph == "f") {
      obs::TraceEvent marker;
      marker.name = name;
      marker.ts_us = ts;
      marker.dur_us = -1.0;
      marker.pid = pid;
      marker.tid = tid;
      marker.flow = static_cast<std::uint64_t>(std::max(0.0, ev.number_or("id", 0.0)));
      marker.flow_dir =
          ph == "s" ? obs::TraceEvent::kFlowSend : obs::TraceEvent::kFlowRecv;
      out.push_back(std::move(marker));
    } else if (ph == "i") {
      obs::TraceEvent inst;
      inst.name = name;
      inst.ts_us = ts;
      inst.dur_us = -1.0;
      inst.pid = pid;
      inst.tid = tid;
      out.push_back(std::move(inst));
    }
    // "X" complete events are not emitted by our exporter; ignore unknowns.
  }
  return out;  // unclosed "B" spans (truncated trace) are intentionally dropped
}

std::vector<MetricSample> load_metrics(const std::string& path) {
  std::vector<MetricSample> out;
  for (const JsonValue& line : util::parse_jsonl_file(path)) {
    MetricSample s;
    s.name = line.at("name").as_string();
    s.type = line.string_or("type", "gauge");
    if (s.type == "histogram") {
      s.value = line.number_or("sum", 0.0);
      s.count = static_cast<std::uint64_t>(std::max(0.0, line.number_or("count", 0.0)));
    } else {
      s.value = line.number_or("value", 0.0);
    }
    out.push_back(std::move(s));
  }
  return out;
}

void merge_metrics(obs::AttrReport& r, const std::vector<MetricSample>& metrics) {
  constexpr std::string_view kMemPrefix = "mem.";
  constexpr std::string_view kMemSuffix = ".high_water";
  for (const MetricSample& s : metrics) {
    if (s.name == "proc.peak_rss_bytes") {
      if (r.peak_rss_bytes == 0 && s.value > 0.0)
        r.peak_rss_bytes = static_cast<std::uint64_t>(s.value);
    } else if (s.name == "mpsim.comm_matrix_skew") {
      if (r.comm_skew == 0.0) r.comm_skew = s.value;
    } else if (s.name.size() > kMemPrefix.size() + kMemSuffix.size() &&
               s.name.compare(0, kMemPrefix.size(), kMemPrefix) == 0 &&
               s.name.compare(s.name.size() - kMemSuffix.size(), kMemSuffix.size(),
                              kMemSuffix) == 0) {
      const std::string subsystem = s.name.substr(
          kMemPrefix.size(), s.name.size() - kMemPrefix.size() - kMemSuffix.size());
      const bool known =
          std::any_of(r.memory.begin(), r.memory.end(),
                      [&](const obs::MemSubsystem& m) { return m.name == subsystem; });
      if (!known && s.value > 0.0) {
        obs::MemSubsystem ms;
        ms.name = subsystem;
        ms.high_water_bytes = static_cast<std::uint64_t>(s.value);
        r.memory.push_back(std::move(ms));
      }
    }
  }
  std::sort(r.memory.begin(), r.memory.end(),
            [](const obs::MemSubsystem& a, const obs::MemSubsystem& b) {
              return a.name < b.name;
            });
}

}  // namespace metaprep::report
