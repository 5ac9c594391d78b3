// Disjoint-set (Union-Find) structures for connected components.
//
// LocalCC (paper §3.5) runs a shared-memory parallel Union-Find combining
// ideas from Cybenko et al. and Patwary et al.:
//  * Find uses the *path splitting* optimization (Tarjan & van Leeuwen);
//  * Union uses *union-by-index* — "the parent pointer of the root element
//    with lower index is set to the root element with higher index" — which
//    cannot create cycles even under concurrent updates;
//  * threads process edges without synchronization, buffering the edges that
//    caused a Union and re-verifying them in a next iteration (Algorithm 1).
//
// The paper's plain concurrent stores are a data race (UB in C++), so parent
// entries here are relaxed atomics and the root update is a single CAS; a
// failed CAS leaves the edge "possibly unmerged", which is exactly the state
// Algorithm 1's re-verification loop repairs.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "obs/mem.hpp"

namespace metaprep::dsu {

/// Sequential Union-Find with path splitting and union-by-index.  Reference
/// implementation for tests and the single-threaded code paths.
class SerialDSU {
 public:
  explicit SerialDSU(std::uint32_t n);

  /// Adopt an existing parent-pointer forest (e.g. a component array
  /// received from another rank during MergeCC).  Every entry must be a
  /// valid index.
  explicit SerialDSU(std::vector<std::uint32_t> parents)
      : parent_(std::move(parents)), mem_charged_(parent_.size() * sizeof(std::uint32_t)) {
    obs::mem_charge("dsu", mem_charged_);
  }

  // The "dsu" memory charge follows the parent array's ownership, so copies
  // are disallowed and moves transfer the charge.
  SerialDSU(const SerialDSU&) = delete;
  SerialDSU& operator=(const SerialDSU&) = delete;
  SerialDSU(SerialDSU&& other) noexcept
      : parent_(std::move(other.parent_)),
        mem_charged_(std::exchange(other.mem_charged_, 0)) {}
  SerialDSU& operator=(SerialDSU&& other) noexcept {
    if (this != &other) {
      obs::mem_credit("dsu", mem_charged_);
      parent_ = std::move(other.parent_);
      mem_charged_ = std::exchange(other.mem_charged_, 0);
    }
    return *this;
  }
  ~SerialDSU() { obs::mem_credit("dsu", mem_charged_); }

  /// Move the parent array back out (ends this object's usefulness).
  [[nodiscard]] std::vector<std::uint32_t> take_parents() {
    obs::mem_credit("dsu", mem_charged_);
    mem_charged_ = 0;
    return std::move(parent_);
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(parent_.size());
  }

  std::uint32_t find(std::uint32_t x);

  /// Returns true if a and b were in different components (now merged).
  bool unite(std::uint32_t a, std::uint32_t b);

  /// Component label (root) per element; also usable as an edge list
  /// (i -> label[i]) for the MergeCC step.
  [[nodiscard]] std::vector<std::uint32_t> labels();

  /// Number of distinct components.
  std::uint32_t component_count();

  /// Assert the parent array is a valid forest (bounds + acyclicity);
  /// throws check::CheckError naming the offending node otherwise.  @p what
  /// labels the structure in the report.
  void verify_forest(const char* what = "SerialDSU") const;

#if METAPREP_CHECKED
  /// Test hook: corrupt the forest directly (e.g. inject a parent cycle) to
  /// prove verify_forest catches it.  Compiled out with METAPREP_CHECKED=0.
  void debug_set_parent(std::uint32_t x, std::uint32_t p) { parent_[x] = p; }
#endif

 private:
  std::vector<std::uint32_t> parent_;
  std::uint64_t mem_charged_ = 0;  ///< bytes charged to the "dsu" subsystem
};

/// Concurrent Union-Find used by LocalCC.  All methods are safe to call from
/// multiple threads simultaneously.
class AtomicDSU {
 public:
  explicit AtomicDSU(std::uint32_t n);

  /// Adopt an existing parent-pointer forest (e.g. the merged global forest
  /// on rank 0, so the final flatten can run find() from many threads).
  /// Every entry must be a valid index.
  explicit AtomicDSU(std::span<const std::uint32_t> parents);

  AtomicDSU(const AtomicDSU&) = delete;
  AtomicDSU& operator=(const AtomicDSU&) = delete;
  ~AtomicDSU() { obs::mem_credit("dsu", mem_charged_); }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(parent_.size());
  }

  /// Find with path splitting (each node on the path is re-pointed at its
  /// grandparent); wait-free in practice under concurrent unions.
  std::uint32_t find(std::uint32_t x);

  /// Linearizable union (CAS retry loop).  Returns true if this call merged
  /// two distinct components.
  bool unite(std::uint32_t a, std::uint32_t b);

  /// Single-attempt union used by Algorithm 1: one CAS try, no retry.
  /// Returns true iff this call linked two distinct roots; false means the
  /// roots were already equal or the CAS was contended (re-verify later).
  bool unite_once(std::uint32_t a, std::uint32_t b);

  /// Snapshot of parent pointers (quiescent use only).
  [[nodiscard]] std::vector<std::uint32_t> parents() const;

  /// Fully-compressed component label per element (quiescent use only).
  std::vector<std::uint32_t> labels();

  std::uint32_t component_count();

  /// Reset to singleton components.
  void reset();

  /// Assert the (quiescent) parent snapshot is a valid forest; throws
  /// check::CheckError naming the offending node otherwise.
  void verify_forest(const char* what = "AtomicDSU") const;

#if METAPREP_CHECKED
  /// Test hook: corrupt the forest directly (see SerialDSU::debug_set_parent).
  void debug_set_parent(std::uint32_t x, std::uint32_t p) {
    parent_[x].store(p, std::memory_order_relaxed);
  }
#endif

 private:
  std::vector<std::atomic<std::uint32_t>> parent_;
  std::uint64_t mem_charged_ = 0;  ///< bytes charged to the "dsu" subsystem
};

/// Algorithm 1 of the paper, for one thread's share of the edges: process
/// all edges; edges whose union succeeded are buffered and re-verified in
/// subsequent iterations until no verification produces further work.
/// Returns the number of iterations executed (the paper observes the total
/// time is dominated by the first).  Adds the unions that linked two
/// distinct roots to @p links when it is non-null.
int process_edges_algorithm1(AtomicDSU& dsu,
                             std::span<const std::pair<std::uint32_t, std::uint32_t>> edges,
                             std::uint64_t* links = nullptr);

}  // namespace metaprep::dsu
