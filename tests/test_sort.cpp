// Tests for the LSD radix sorts (64-bit, 128-bit, 64x64 baseline) and the
// two-level LocalSort.
#include "sort/radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace metaprep::sort {
namespace {

struct KV {
  std::uint64_t k;
  std::uint32_t v;
};

void make_random(std::size_t n, int key_bits, std::vector<std::uint64_t>& keys,
                 std::vector<std::uint32_t>& vals, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  keys.resize(n);
  vals.resize(n);
  const std::uint64_t mask = key_bits >= 64 ? ~0ULL : (1ULL << key_bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next() & mask;
    vals[i] = static_cast<std::uint32_t>(rng.next());
  }
}

/// Reference: stable sort of (key, original index) pairs.
void reference_sort(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& vals) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  std::vector<std::uint64_t> k2(keys.size());
  std::vector<std::uint32_t> v2(vals.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    k2[i] = keys[order[i]];
    v2[i] = vals[order[i]];
  }
  keys.swap(k2);
  vals.swap(v2);
}

TEST(RadixSort64, EmptyAndSingle) {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  radix_sort_kv64(keys, vals);
  EXPECT_TRUE(keys.empty());
  keys = {42};
  vals = {7};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys[0], 42u);
  EXPECT_EQ(vals[0], 7u);
}

TEST(RadixSort64, AlreadySortedAndReversed) {
  std::vector<std::uint64_t> keys{1, 2, 3, 4, 5};
  std::vector<std::uint32_t> vals{10, 20, 30, 40, 50};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(vals, (std::vector<std::uint32_t>{10, 20, 30, 40, 50}));

  keys = {5, 4, 3, 2, 1};
  vals = {50, 40, 30, 20, 10};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(vals, (std::vector<std::uint32_t>{10, 20, 30, 40, 50}));
}

TEST(RadixSort64, StableForEqualKeys) {
  std::vector<std::uint64_t> keys{7, 7, 7, 3, 3};
  std::vector<std::uint32_t> vals{1, 2, 3, 4, 5};
  radix_sort_kv64(keys, vals);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{3, 3, 7, 7, 7}));
  EXPECT_EQ(vals, (std::vector<std::uint32_t>{4, 5, 1, 2, 3}));
}

struct SortParams {
  std::size_t n;
  int key_bits;
  int digit_bits;
};

class RadixSortPropertyTest : public ::testing::TestWithParam<SortParams> {};

TEST_P(RadixSortPropertyTest, MatchesStableReference) {
  const auto [n, key_bits, digit_bits] = GetParam();
  std::vector<std::uint64_t> keys, ref_keys;
  std::vector<std::uint32_t> vals, ref_vals;
  make_random(n, key_bits, keys, vals, 1234 + n + static_cast<std::uint64_t>(key_bits));
  ref_keys = keys;
  ref_vals = vals;
  reference_sort(ref_keys, ref_vals);

  std::vector<std::uint64_t> tk(n);
  std::vector<std::uint32_t> tv(n);
  radix_sort_kv64(keys, vals, tk, tv, key_bits, digit_bits);
  EXPECT_EQ(keys, ref_keys);
  EXPECT_EQ(vals, ref_vals);
  EXPECT_TRUE(is_sorted_keys(keys));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortPropertyTest,
    ::testing::Values(SortParams{100, 64, 8}, SortParams{1000, 64, 8},
                      SortParams{1000, 54, 8},   // 2k bits for k=27
                      SortParams{1000, 64, 11},  // wider digits
                      SortParams{1000, 64, 16},  // the paper's rejected 16-bit variant
                      SortParams{1000, 16, 8},   // short keys
                      SortParams{777, 64, 7},    // odd digit width, odd pass count
                      SortParams{2048, 32, 4}));

TEST(RadixSort64, OddPassCountEndsInInputBuffer) {
  // 54 key bits at 9 bits/digit = 6 passes (even); at 11 = 5 passes (odd).
  std::vector<std::uint64_t> keys, ref;
  std::vector<std::uint32_t> vals;
  make_random(500, 54, keys, vals, 777);
  ref = keys;
  std::sort(ref.begin(), ref.end());
  radix_sort_kv64(keys, vals, 54, 11);
  EXPECT_EQ(keys, ref);
}

TEST(RadixSort64, ThrowsOnBufferMismatch) {
  std::vector<std::uint64_t> keys(10);
  std::vector<std::uint32_t> vals(9);
  std::vector<std::uint64_t> tk(10);
  std::vector<std::uint32_t> tv(10);
  EXPECT_THROW(radix_sort_kv64(keys, vals, tk, tv), std::invalid_argument);
}

TEST(RadixSort64, ThrowsOnBadDigitBits) {
  std::vector<std::uint64_t> keys(4);
  std::vector<std::uint32_t> vals(4);
  std::vector<std::uint64_t> tk(4);
  std::vector<std::uint32_t> tv(4);
  EXPECT_THROW(radix_sort_kv64(keys, vals, tk, tv, 64, 0), std::invalid_argument);
  EXPECT_THROW(radix_sort_kv64(keys, vals, tk, tv, 64, 17), std::invalid_argument);
}

TEST(RadixSort64x64, MatchesReference) {
  util::Xoshiro256 rng(555);
  const std::size_t n = 2000;
  std::vector<std::uint64_t> keys(n), vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next();
    vals[i] = rng.next();
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {keys[i], vals[i]};
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::uint64_t> tk(n), tv(n);
  radix_sort_kv64x64(keys, vals, tk, tv);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(keys[i], ref[i].first);
    EXPECT_EQ(vals[i], ref[i].second);
  }
}

class RadixSort128Test : public ::testing::TestWithParam<int> {};

TEST_P(RadixSort128Test, MatchesReferenceFor128BitKeys) {
  const int key_bits = GetParam();
  util::Xoshiro256 rng(600 + static_cast<std::uint64_t>(key_bits));
  const std::size_t n = 1500;
  std::vector<std::uint64_t> hi(n), lo(n);
  std::vector<std::uint32_t> vals(n);
  const int hi_bits = key_bits > 64 ? key_bits - 64 : 0;
  const std::uint64_t hi_mask = hi_bits == 0 ? 0 : (hi_bits >= 64 ? ~0ULL : (1ULL << hi_bits) - 1);
  for (std::size_t i = 0; i < n; ++i) {
    hi[i] = rng.next() & hi_mask;
    lo[i] = rng.next();
    vals[i] = static_cast<std::uint32_t>(rng.next());
  }
  struct Rec {
    std::uint64_t hi, lo;
    std::uint32_t v;
  };
  std::vector<Rec> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {hi[i], lo[i], vals[i]};
  std::stable_sort(ref.begin(), ref.end(), [](const Rec& a, const Rec& b) {
    return std::tie(a.hi, a.lo) < std::tie(b.hi, b.lo);
  });

  std::vector<std::uint64_t> th(n), tl(n);
  std::vector<std::uint32_t> tv(n);
  radix_sort_kv128(hi, lo, vals, th, tl, tv, key_bits, 8);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hi[i], ref[i].hi);
    EXPECT_EQ(lo[i], ref[i].lo);
    EXPECT_EQ(vals[i], ref[i].v);
  }
}

// 2k bits for k = 63 is 126; also test boundary and small widths.
INSTANTIATE_TEST_SUITE_P(KeyWidths, RadixSort128Test, ::testing::Values(126, 128, 66, 70, 64));

// ---------------------------------------------------------------------------
// Two-level sort: keys *and* values bit-identical to the stable LSD.

enum class KeyShape { kRandom, kDuplicated, kAllEqual, kSkewedBin };

const char* shape_name(KeyShape s) {
  switch (s) {
    case KeyShape::kRandom: return "Random";
    case KeyShape::kDuplicated: return "Dup20";
    case KeyShape::kAllEqual: return "AllEqual";
    case KeyShape::kSkewedBin: return "SkewedBin";
  }
  return "?";
}

/// n keys of @p key_bits bits: uniform; each of n/20 distinct keys repeated
/// ~20x in random order; one key repeated n times; or 90% of the keys with
/// their top half of bits clear, so one top-level bin holds most of the
/// array (above the in-cache cap at the largest n).
void make_shaped(std::size_t n, int key_bits, KeyShape shape, std::vector<std::uint64_t>& keys,
                 std::vector<std::uint32_t>& vals, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::uint64_t mask = key_bits >= 64 ? ~0ULL : (1ULL << key_bits) - 1;
  const std::uint64_t low_half = (1ULL << (key_bits / 2)) - 1;
  std::vector<std::uint64_t> distinct(std::max<std::size_t>(1, n / 20));
  for (auto& d : distinct) d = rng.next() & mask;
  keys.resize(n);
  vals.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case KeyShape::kRandom: keys[i] = rng.next() & mask; break;
      case KeyShape::kDuplicated: keys[i] = distinct[rng.next() % distinct.size()]; break;
      case KeyShape::kAllEqual: keys[i] = distinct[0]; break;
      case KeyShape::kSkewedBin:
        keys[i] = rng.next() % 10 == 0 ? rng.next() & mask : rng.next() & low_half;
        break;
    }
    vals[i] = static_cast<std::uint32_t>(rng.next());
  }
}

class TwoLevelSortTest
    : public ::testing::TestWithParam<std::tuple<KeyShape, int, int>> {};

TEST_P(TwoLevelSortTest, BitIdenticalToStableLsd) {
  const auto [shape, key_bits, digit_bits] = GetParam();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{24}, std::size_t{25},
                              std::size_t{33}, (std::size_t{1} << 17) + 1}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::uint64_t> keys, ref_keys;
    std::vector<std::uint32_t> vals, ref_vals;
    make_shaped(n, key_bits, shape, keys, vals, 99 + n + static_cast<std::uint64_t>(key_bits));
    ref_keys = keys;
    ref_vals = vals;
    std::vector<std::uint64_t> tk(n);
    std::vector<std::uint32_t> tv(n);
    radix_sort_kv64(ref_keys, ref_vals, tk, tv, key_bits, digit_bits);
    two_level_sort_kv64(keys, vals, tk, tv, digit_bits);
    ASSERT_EQ(keys, ref_keys);
    ASSERT_EQ(vals, ref_vals);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TwoLevelSortTest,
    ::testing::Combine(::testing::Values(KeyShape::kRandom, KeyShape::kDuplicated,
                                         KeyShape::kAllEqual, KeyShape::kSkewedBin),
                       ::testing::Values(2, 16, 38, 54, 64), ::testing::Values(4, 8, 11, 16)),
    [](const ::testing::TestParamInfo<std::tuple<KeyShape, int, int>>& info) {
      return std::string(shape_name(std::get<0>(info.param))) + "Key" +
             std::to_string(std::get<1>(info.param)) + "Digit" +
             std::to_string(std::get<2>(info.param));
    });

TEST(TwoLevelSort, ThrowsOnBadArguments) {
  std::vector<std::uint64_t> keys(4), tk(4);
  std::vector<std::uint32_t> vals(4), tv(4), short_vals(3);
  EXPECT_THROW(two_level_sort_kv64(keys, short_vals, tk, tv), std::invalid_argument);
  EXPECT_THROW(two_level_sort_kv64(keys, vals, tk, tv, 0), std::invalid_argument);
  EXPECT_THROW(two_level_sort_kv64(keys, vals, tk, tv, 17), std::invalid_argument);
}

// 4 M tuples that share their top 32 bits and have distinct low 22 bits, in
// scrambled order, plus one tuple whose top bit differs: the top-level
// scatter then splits on the outlier's bit and puts every other tuple into
// one bin.  An in-bin sort without the cap (an insertion sort over that bin)
// would be quadratic here; the bin must be rescattered instead.
TEST(TwoLevelSort, SkewedBinIsRescatteredInLinearTime) {
  constexpr std::size_t kLow = std::size_t{1} << 22;
  constexpr std::uint64_t kTop = 0x2AAAAAULL << 32;
  std::vector<std::uint64_t> keys(kLow + 1), tk(kLow + 1);
  std::vector<std::uint32_t> vals(kLow + 1), tv(kLow + 1);
  for (std::size_t i = 0; i < kLow; ++i) {
    keys[i] = kTop | ((i * 2654435761ULL) & (kLow - 1));  // odd multiplier: a permutation
    vals[i] = static_cast<std::uint32_t>(i);
  }
  keys[kLow] = 1ULL << 63;
  vals[kLow] = static_cast<std::uint32_t>(kLow);

  obs::metrics().set_enabled(true);
  obs::Counter& rescattered = obs::metrics().counter("sort.rescattered_tuples");
  const std::uint64_t before = rescattered.value();
  two_level_sort_kv64(keys, vals, tk, tv, 8);
  EXPECT_GE(rescattered.value() - before, kLow);
  EXPECT_GE(obs::metrics().gauge("sort.max_bucket_tuples").value(), static_cast<double>(kLow));
  obs::metrics().set_enabled(false);

  for (std::size_t i = 0; i < kLow; ++i) {
    ASSERT_EQ(keys[i], kTop | i) << i;
    ASSERT_EQ(keys[i], kTop | ((vals[i] * 2654435761ULL) & (kLow - 1))) << i;
  }
  EXPECT_EQ(keys[kLow], 1ULL << 63);
}

}  // namespace
}  // namespace metaprep::sort
