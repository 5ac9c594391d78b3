// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only around calls the harness makes into the library
// (run_metaprep, and each layer replay), never inside it.  Each span has a
// name, a parent (the span that caused it, -1 for a root), start and end
// seconds since the recorder was created, and the work counts measured at
// that boundary.  Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
    std::vector<std::pair<std::string, double>> counts;
    [[nodiscard]] double seconds() const { return t1 - t0; }
  };

  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, now(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span @p id and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now();
    return s.seconds();
  }
  void count(int id, const std::string& key, double value) {
    spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
  }
  [[nodiscard]] const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Self time: the span's duration minus the time its children cover
  /// (children of one parent never overlap here: the harness is serial).
  [[nodiscard]] double self_seconds(int id) const {
    double child = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) child += s.seconds();
    }
    return span(id).seconds() - child;
  }

  /// JSON array of {"name","id","parent","t0","t1","self","counts"}.
  [[nodiscard]] std::string to_json() const {
    std::string out = "[";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "{\"name\":\"" + s.name + "\"";
      std::snprintf(buf, sizeof(buf),
                    ",\"id\":%zu,\"parent\":%d,\"t0\":%.9f,\"t1\":%.9f,\"self\":%.9f", i,
                    s.parent, s.t0, s.t1, self_seconds(static_cast<int>(i)));
      out += buf;
      out += ",\"counts\":{";
      for (std::size_t j = 0; j < s.counts.size(); ++j) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", j > 0 ? "," : "",
                      s.counts[j].first.c_str(), s.counts[j].second);
        out += buf;
      }
      out += "}}";
    }
    return out + "]";
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Flat JSON object builder for the harness's one-line outputs.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
