// Radix sorts for (k-mer, read-ID) tuples.
//
// LocalSort (paper §3.4) sorts each thread's k-mer sub-range with a *serial*
// sort — parallelism comes from the range partitioning step, not from the
// sort itself.  The paper's sort is an out-of-place LSD radix sort over all
// 2k key bits, 8 bits per pass (256 buckets), having found that the better
// temporal locality of 256 bucket counters beats the fewer passes of 16-bit
// digits.  radix_sort_kv64 is that sort; it stays as the ap_lb baseline's
// sort and the §4.2.2 ablation.
//
// two_level_sort_kv64 is what LocalSort runs for k <= 32.  Every LSD pass
// over a region streams the whole region out of cache, so 54 key bits cost
// 7 memory-bound passes.  The two-level sort makes one: it scatters the
// region once by its top varying bits into bins of ~128-255 tuples (for
// fixed tuples, the m-mer bins), then finishes each bin in cache.  It is
// stable, so its output is byte-identical to the LSD's.
//
// Tuples are stored SoA (separate key and payload arrays): same 12 bytes per
// tuple as the paper's packed layout, but radix passes stream each array
// linearly.
//
// Metrics (published once per call):
//   sort.keys_sorted          tuples sorted;
//   sort.radix_passes         scatter passes over a whole array: one per
//                             digit for the LSD sorts, one (the bin
//                             scatter) per two-level call that scatters;
//   sort.buckets              two-level bins;
//   sort.max_bucket_tuples    gauge, largest two-level bin;
//   sort.rescattered_tuples   tuples in bins (or sub-bins) above the
//                             in-cache cap, counted once per rescatter.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace metaprep::sort {

/// Serial LSD radix sort of (key, value) pairs by key.
/// @p keys / @p vals are sorted in place; @p tmp_keys / @p tmp_vals must be
/// the same size and are used as the out-of-place buffer ("We reuse the send
/// buffer of KmerGen-Comm step for storing the sorted tuples").
/// @p key_bits limits the passes to the low key_bits bits (2k for k-mers);
/// @p digit_bits selects the bucket count (8 -> 256 buckets).
void radix_sort_kv64(std::span<std::uint64_t> keys, std::span<std::uint32_t> vals,
                     std::span<std::uint64_t> tmp_keys, std::span<std::uint32_t> tmp_vals,
                     int key_bits = 64, int digit_bits = 8);

/// Two-level stable sort of (key, value) pairs by the full 64-bit key; same
/// buffers and result as radix_sort_kv64 on keys that fit its key_bits.
///  1. One pass ORs key ^ keys[0] to find the highest varying bit.
///  2. One count pass and one stable scatter into @p tmp_keys / @p tmp_vals
///     on the top B varying bits, B <= 16 chosen for a mean bin of 128-255
///     tuples.
///  3. Each bin sorts stably from the scratch back to the same offsets of
///     @p keys / @p vals: one MSD digit of @p digit_bits on its own varying
///     bits, then insertion sort for sub-bins of <= 32 tuples and an
///     in-cache LSD (skipping digits constant across the sub-bin) above.
/// A bin above an L2-sized cap is scattered again, through the same two
/// buffers, so time stays linear and memory bounded on skewed input.
void two_level_sort_kv64(std::span<std::uint64_t> keys, std::span<std::uint32_t> vals,
                         std::span<std::uint64_t> tmp_keys, std::span<std::uint32_t> tmp_vals,
                         int digit_bits = 8);

/// Convenience wrapper that allocates scratch internally.
void radix_sort_kv64(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& vals,
                     int key_bits = 64, int digit_bits = 8);

/// 128-bit-key variant for 32 < k <= 63 (keys split into hi/lo words; the
/// paper's 63-mer runs use 16 radix passes).  Sorts by (hi, lo) numeric
/// order.
void radix_sort_kv128(std::span<std::uint64_t> keys_hi, std::span<std::uint64_t> keys_lo,
                      std::span<std::uint32_t> vals, std::span<std::uint64_t> tmp_hi,
                      std::span<std::uint64_t> tmp_lo, std::span<std::uint32_t> tmp_vals,
                      int key_bits = 128, int digit_bits = 8);

/// Baseline for the §4.2.2 comparison: LSD radix sort with 64-bit key AND
/// 64-bit payload (the NUMA-aware implementation of Polychroniou & Ross
/// "requires that both the key and payload be 64 bits").
void radix_sort_kv64x64(std::span<std::uint64_t> keys, std::span<std::uint64_t> vals,
                        std::span<std::uint64_t> tmp_keys, std::span<std::uint64_t> tmp_vals,
                        int key_bits = 64, int digit_bits = 8);

/// Check that keys are non-decreasing (test/bench helper).
bool is_sorted_keys(std::span<const std::uint64_t> keys);

}  // namespace metaprep::sort
