#include "dsu/dsu.hpp"

#include <numeric>

#include "check/invariants.hpp"
#include "obs/metrics.hpp"

namespace metaprep::dsu {

namespace {

/// Hot-path metric handles, resolved once per process.  With metrics
/// disabled each probe is a relaxed atomic load and a branch.
obs::Histogram& find_path_histogram() {
  static thread_local obs::HistogramHandle h;
  return h.of(obs::metrics(), "dsu.find_path_length");
}

obs::Counter& unions_counter() {
  static thread_local obs::CounterHandle c;
  return c.of(obs::metrics(), "dsu.unions_total");
}

}  // namespace

SerialDSU::SerialDSU(std::uint32_t n)
    : parent_(n), mem_charged_(static_cast<std::uint64_t>(n) * sizeof(std::uint32_t)) {
  std::iota(parent_.begin(), parent_.end(), 0U);
  obs::mem_charge("dsu", mem_charged_);
}

std::uint32_t SerialDSU::find(std::uint32_t x) {
  while (parent_[x] != x) {
    const std::uint32_t grandparent = parent_[parent_[x]];
    parent_[x] = grandparent;  // path splitting
    x = grandparent;
  }
  return x;
}

bool SerialDSU::unite(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t ra = find(a);
  const std::uint32_t rb = find(b);
  if (ra == rb) return false;
  // Union-by-index: lower-index root points at higher-index root.
  if (ra < rb) {
    parent_[ra] = rb;
  } else {
    parent_[rb] = ra;
  }
  return true;
}

std::vector<std::uint32_t> SerialDSU::labels() {
  std::vector<std::uint32_t> out(parent_.size());
  for (std::uint32_t i = 0; i < parent_.size(); ++i) out[i] = find(i);
  return out;
}

void SerialDSU::verify_forest(const char* what) const {
  check::verify_parent_forest(parent_, what);
}

std::uint32_t SerialDSU::component_count() {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < parent_.size(); ++i) {
    if (find(i) == i) ++n;
  }
  return n;
}

AtomicDSU::AtomicDSU(std::uint32_t n)
    : parent_(n), mem_charged_(static_cast<std::uint64_t>(n) * sizeof(std::uint32_t)) {
  reset();
  obs::mem_charge("dsu", mem_charged_);
}

AtomicDSU::AtomicDSU(std::span<const std::uint32_t> parents)
    : parent_(parents.size()), mem_charged_(parents.size_bytes()) {
  for (std::size_t i = 0; i < parents.size(); ++i) {
    parent_[i].store(parents[i], std::memory_order_relaxed);
  }
  obs::mem_charge("dsu", mem_charged_);
}

void AtomicDSU::reset() {
  for (std::uint32_t i = 0; i < parent_.size(); ++i) {
    parent_[i].store(i, std::memory_order_relaxed);
  }
}

std::uint32_t AtomicDSU::find(std::uint32_t x) {
  std::uint64_t steps = 0;
  for (;;) {
    const std::uint32_t p = parent_[x].load(std::memory_order_relaxed);
    if (p == x) break;
    ++steps;
    const std::uint32_t gp = parent_[p].load(std::memory_order_relaxed);
    if (p == gp) {
      x = p;
      break;
    }
    // Path splitting: re-point x at its grandparent.  A racing update may
    // have changed parent_[x]; a failed CAS is harmless (pure optimization).
    std::uint32_t expected = p;
    parent_[x].compare_exchange_weak(expected, gp, std::memory_order_relaxed);
    x = gp;
  }
  find_path_histogram().record(steps);
  return x;
}

bool AtomicDSU::unite(std::uint32_t a, std::uint32_t b) {
  for (;;) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return false;
    if (ra > rb) std::swap(ra, rb);  // ra < rb: ra's parent becomes rb
    std::uint32_t expected = ra;
    if (parent_[ra].compare_exchange_strong(expected, rb, std::memory_order_relaxed)) {
      unions_counter().add(1);
      return true;
    }
    // Lost a race: ra is no longer a root; retry from the new roots.
    a = ra;
    b = rb;
  }
}

bool AtomicDSU::unite_once(std::uint32_t a, std::uint32_t b) {
  std::uint32_t ra = find(a);
  std::uint32_t rb = find(b);
  if (ra == rb) return false;
  if (ra > rb) std::swap(ra, rb);
  std::uint32_t expected = ra;
  const bool merged =
      parent_[ra].compare_exchange_strong(expected, rb, std::memory_order_relaxed);
  if (merged) unions_counter().add(1);
  return merged;
}

std::vector<std::uint32_t> AtomicDSU::parents() const {
  std::vector<std::uint32_t> out(parent_.size());
  for (std::uint32_t i = 0; i < parent_.size(); ++i) {
    out[i] = parent_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<std::uint32_t> AtomicDSU::labels() {
  std::vector<std::uint32_t> out(parent_.size());
  for (std::uint32_t i = 0; i < parent_.size(); ++i) out[i] = find(i);
  return out;
}

std::uint32_t AtomicDSU::component_count() {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < parent_.size(); ++i) {
    if (find(i) == i) ++n;
  }
  return n;
}

void AtomicDSU::verify_forest(const char* what) const {
  check::verify_parent_forest(parents(), what);
}

int process_edges_algorithm1(AtomicDSU& dsu,
                             std::span<const std::pair<std::uint32_t, std::uint32_t>> edges,
                             std::uint64_t* links) {
  // Algorithm 1: E_in starts as all edges; every edge that performed a Union
  // (or whose single-try union was contended) goes into E_out for the next
  // iteration, where it is re-verified with fresh Finds.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> in(edges.begin(), edges.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  int iterations = 0;
  while (!in.empty()) {
    ++iterations;
    out.clear();
    for (const auto& [u, v] : in) {
      const std::uint32_t ru = dsu.find(u);
      const std::uint32_t rv = dsu.find(v);
      if (ru != rv) {
        if (dsu.unite_once(ru, rv) && links != nullptr) ++*links;
        out.emplace_back(u, v);  // re-verify next iteration (race condition)
      }
    }
    in.swap(out);
  }
  return iterations;
}

}  // namespace metaprep::dsu
