// §4.2.2: LocalSort performance comparison, plus the digit-width ablation.
//
// Paper: METAPREP's serial 8-bit-digit LSD radix sort reaches 154 M
// tuples/s vs 196 M tuples/s for the NUMA-aware sort of Polychroniou &
// Ross (78%); the NUMA-aware code requires 64-bit key AND payload, which we
// model with the kv64x64 variant.  The paper also reports that 8-bit digits
// beat 16-bit digits ("accessing bucket counts of 256 buckets repeatedly has
// better temporal locality"), which the digit-width sweep reproduces — for
// the LSD and for the two-level sort LocalSort runs, whose in-bin digit is
// the same parameter (LocalSort fixes it at 8).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "sort/radix.hpp"
#include "util/rng.hpp"

namespace {

using namespace metaprep;

struct Data {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals32;
  std::vector<std::uint64_t> vals64;
};

Data make_data(std::size_t n) {
  util::Xoshiro256 rng(4242);
  Data d;
  d.keys.resize(n);
  d.vals32.resize(n);
  d.vals64.resize(n);
  // 54-bit keys: 2k bits for the paper's k=27 tuples.
  for (std::size_t i = 0; i < n; ++i) {
    d.keys[i] = rng.next() & ((1ULL << 54) - 1);
    d.vals32[i] = static_cast<std::uint32_t>(rng.next());
    d.vals64[i] = rng.next();
  }
  return d;
}

void BM_RadixKv64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int digit_bits = static_cast<int>(state.range(1));
  const Data base = make_data(n);
  std::vector<std::uint64_t> keys(n), tk(n);
  std::vector<std::uint32_t> vals(n), tv(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = base.keys;
    vals = base.vals32;
    state.ResumeTiming();
    sort::radix_sort_kv64(keys, vals, tk, tv, 54, digit_bits);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("metaprep LocalSort tuple layout (12B), digit=" +
                 std::to_string(digit_bits));
}
BENCHMARK(BM_RadixKv64)
    ->Args({1 << 18, 4})
    ->Args({1 << 18, 8})    // the paper's configuration
    ->Args({1 << 18, 11})
    ->Args({1 << 18, 16})   // the rejected wide-digit variant
    ->Args({1 << 20, 8})
    ->Args({1 << 20, 16})
    ->Unit(benchmark::kMillisecond);

// LocalSort's two-level sort on the same tuples: one bin scatter, then the
// digit width applies to the in-bin MSD digit and in-cache LSD passes.
void BM_TwoLevelKv64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int digit_bits = static_cast<int>(state.range(1));
  const Data base = make_data(n);
  std::vector<std::uint64_t> keys(n), tk(n);
  std::vector<std::uint32_t> vals(n), tv(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = base.keys;
    vals = base.vals32;
    state.ResumeTiming();
    sort::two_level_sort_kv64(keys, vals, tk, tv, digit_bits);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("two-level bin sort (12B tuples), in-bin digit=" +
                 std::to_string(digit_bits));
}
BENCHMARK(BM_TwoLevelKv64)
    ->Args({1 << 18, 4})
    ->Args({1 << 18, 8})
    ->Args({1 << 18, 11})
    ->Args({1 << 18, 16})
    ->Args({1 << 20, 8})
    ->Args({1 << 20, 16})
    ->Unit(benchmark::kMillisecond);

void BM_RadixKv64x64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data base = make_data(n);
  std::vector<std::uint64_t> keys(n), vals(n), tk(n), tv(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = base.keys;
    vals = base.vals64;
    state.ResumeTiming();
    sort::radix_sort_kv64x64(keys, vals, tk, tv, 54, 8);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("NUMA-aware-baseline layout (64-bit key + 64-bit payload)");
}
BENCHMARK(BM_RadixKv64x64)->Arg(1 << 18)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

void BM_StdSortPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Data base = make_data(n);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs(n);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < n; ++i) pairs[i] = {base.keys[i], base.vals32[i]};
    state.ResumeTiming();
    std::sort(pairs.begin(), pairs.end());
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.SetLabel("std::sort comparison baseline");
}
BENCHMARK(BM_StdSortPairs)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
