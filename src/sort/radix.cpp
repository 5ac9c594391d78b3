#include "sort/radix.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace metaprep::sort {

namespace {

void count_sort_metrics(std::size_t keys, int passes) {
  static thread_local obs::CounterHandle m_keys;
  static thread_local obs::CounterHandle m_passes;
  obs::MetricsRegistry& reg = obs::metrics();
  m_keys.of(reg, "sort.keys_sorted").add(keys);
  m_passes.of(reg, "sort.radix_passes").add(static_cast<std::uint64_t>(passes));
}

void check_buffers(std::size_t keys, std::size_t vals, std::size_t tmp_keys,
                   std::size_t tmp_vals) {
  if (keys != vals || tmp_keys < keys || tmp_vals < vals)
    throw std::invalid_argument("radix: buffer size mismatch");
}

void check_digit_bits(int digit_bits) {
  if (digit_bits < 1 || digit_bits > 16) throw std::invalid_argument("radix: digit_bits in [1,16]");
}

/// One SoA tuple array (region or scratch).
template <typename Val>
struct Kv {
  std::uint64_t* k;
  Val* v;
};

template <typename Val>
void copy_range(Kv<Val> from, Kv<Val> to, std::size_t lo, std::size_t n) {
  std::memcpy(to.k + lo, from.k + lo, n * sizeof(std::uint64_t));
  std::memcpy(to.v + lo, from.v + lo, n * sizeof(Val));
}

/// Stable counting scatter of src[lo, lo + n) into dst[lo, lo + n) by the
/// digit (key >> shift) & (nb - 1).  Leaves off[d] = the end of digit d's
/// range relative to lo, so digit d occupies [off[d - 1], off[d]).
template <typename Val, typename Off>
void counting_scatter(Kv<Val> src, Kv<Val> dst, std::size_t lo, std::size_t n, int shift,
                      std::size_t nb, Off* off) {
  const std::uint64_t mask = nb - 1;
  std::fill(off, off + nb, Off{0});
  for (std::size_t i = lo; i < lo + n; ++i) ++off[(src.k[i] >> shift) & mask];
  Off acc = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const Off c = off[b];
    off[b] = acc;
    acc += c;
  }
  for (std::size_t i = lo; i < lo + n; ++i) {
    const std::size_t d = lo + off[(src.k[i] >> shift) & mask]++;
    dst.k[d] = src.k[i];
    dst.v[d] = src.v[i];
  }
}

template <typename Val>
void radix_sort_impl(std::span<std::uint64_t> keys, std::span<Val> vals,
                     std::span<std::uint64_t> tmp_keys, std::span<Val> tmp_vals, int key_bits,
                     int digit_bits) {
  check_buffers(keys.size(), vals.size(), tmp_keys.size(), tmp_vals.size());
  check_digit_bits(digit_bits);
  if (key_bits < 1) throw std::invalid_argument("radix: key_bits >= 1");
  const std::size_t n = keys.size();
  if (n <= 1) return;
  key_bits = std::min(key_bits, 64);
  const int passes = (key_bits + digit_bits - 1) / digit_bits;
  std::vector<std::size_t> count(std::size_t{1} << digit_bits);
  const obs::MemCharge count_mem("sort", count.size() * sizeof(std::size_t));
  const Kv<Val> input{keys.data(), vals.data()};
  Kv<Val> src = input;
  Kv<Val> dst{tmp_keys.data(), tmp_vals.data()};
  for (int pass = 0; pass < passes; ++pass) {
    counting_scatter(src, dst, 0, n, pass * digit_bits, count.size(), count.data());
    std::swap(src, dst);
  }
  // After an odd number of passes the sorted data lives in the scratch.
  if (passes % 2 == 1) copy_range(src, input, 0, n);
  count_sort_metrics(n, passes);
}

// ---------------------------------------------------------------------------
// Two-level sort.

using Kv32 = Kv<std::uint32_t>;

/// Bins of at most this many tuples finish with a stable insertion sort.
constexpr std::size_t kInsertionMax = 32;
/// A bin above this many tuples (384 KiB of keys and values) is scattered
/// again rather than sorted in cache.
constexpr std::size_t kBinCap = std::size_t{1} << 15;

/// Number of low key bits that differ somewhere in keys[0, n) (0: all equal).
int varying_bits(const std::uint64_t* keys, std::size_t n) {
  std::uint64_t diff = 0;
  for (std::size_t i = 1; i < n; ++i) diff |= keys[i] ^ keys[0];
  return std::bit_width(diff);
}

/// Scatter bits for n tuples with vb >= 1 varying bits: a mean bin of
/// 128-255 tuples, at most 16 bits.
int bin_bits(std::size_t n, int vb) {
  return std::clamp(static_cast<int>(std::bit_width(n)) - 8, 1, std::min(16, vb));
}

/// Stable insertion sort of a[lo, lo + n).
void insertion_sort(Kv32 a, std::size_t lo, std::size_t n) {
  for (std::size_t i = lo + 1; i < lo + n; ++i) {
    const std::uint64_t key = a.k[i];
    const std::uint32_t val = a.v[i];
    std::size_t j = i;
    for (; j > lo && a.k[j - 1] > key; --j) {
      a.k[j] = a.k[j - 1];
      a.v[j] = a.v[j - 1];
    }
    a.k[j] = key;
    a.v[j] = val;
  }
}

/// Per-call state of the in-bin sorts: digit counters sized once, and the
/// rescatter tally.
class BinSorter {
 public:
  explicit BinSorter(int digit_bits)
      : digit_bits_(digit_bits),
        msd_off_(std::size_t{1} << digit_bits),
        lsd_off_(std::size_t{1} << digit_bits) {}

  std::uint64_t bytes() const {
    return (msd_off_.size() + lsd_off_.size()) * sizeof(std::uint32_t);
  }
  std::uint64_t rescattered() const { return rescattered_; }

  /// Sort from[lo, lo + n) stably into to[lo, lo + n); from[lo, lo + n)
  /// is scratch afterwards.
  void sort_bin(Kv32 from, Kv32 to, std::size_t lo, std::size_t n) {
    if (n <= kInsertionMax) {
      copy_range(from, to, lo, n);
      insertion_sort(to, lo, n);
      return;
    }
    const int vb = varying_bits(from.k + lo, n);
    if (vb == 0) {
      copy_range(from, to, lo, n);
      return;
    }
    if (n > kBinCap) {
      rescatter(from, to, lo, n, vb);
      return;
    }
    // One MSD digit on the bin's own top varying bits, then each sub-bin
    // in place in `to`, with from[lo, lo + n) as the LSD's second buffer.
    const int d = std::min(digit_bits_, vb);
    const std::size_t nb = std::size_t{1} << d;
    counting_scatter(from, to, lo, n, vb - d, nb, msd_off_.data());
    if (d == vb) return;
    std::uint32_t begin = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::uint32_t end = msd_off_[b];
      const std::size_t m = end - begin;
      if (m > kInsertionMax) {
        lsd(to, from, lo + begin, m);
      } else if (m > 1) {
        insertion_sort(to, lo + begin, m);
      }
      begin = end;
    }
  }

 private:
  /// A bin too large for cache: scatter it again by its top varying bits
  /// and sort each sub-bin back through `from`.
  void rescatter(Kv32 from, Kv32 to, std::size_t lo, std::size_t n, int vb) {
    rescattered_ += n;
    const int bits = bin_bits(n, vb);
    std::vector<std::size_t> off(std::size_t{1} << bits);
    const obs::MemCharge off_mem("sort", off.size() * sizeof(std::size_t));
    counting_scatter(from, to, lo, n, vb - bits, off.size(), off.data());
    std::size_t begin = 0;
    for (const std::size_t end : off) {
      sort_bin(to, from, lo + begin, end - begin);
      copy_range(from, to, lo + begin, end - begin);
      begin = end;
    }
  }

  /// In-cache LSD of buf[lo, lo + n), tmp[lo, lo + n) as the second
  /// buffer; digits constant across the range are skipped.
  void lsd(Kv32 buf, Kv32 tmp, std::size_t lo, std::size_t n) {
    std::uint64_t diff = 0;
    for (std::size_t i = lo + 1; i < lo + n; ++i) diff |= buf.k[i] ^ buf.k[lo];
    const std::size_t nb = lsd_off_.size();
    Kv32 src = buf;
    Kv32 dst = tmp;
    for (int shift = 0; shift < 64 && (diff >> shift) != 0; shift += digit_bits_) {
      if (((diff >> shift) & (nb - 1)) == 0) continue;
      counting_scatter(src, dst, lo, n, shift, nb, lsd_off_.data());
      std::swap(src, dst);
    }
    if (src.k != buf.k) copy_range(src, buf, lo, n);
  }

  int digit_bits_;
  std::vector<std::uint32_t> msd_off_;
  std::vector<std::uint32_t> lsd_off_;
  std::uint64_t rescattered_ = 0;
};

void count_two_level_metrics(std::size_t keys, int passes, std::uint64_t bins,
                             std::uint64_t max_bin, std::uint64_t rescattered) {
  static thread_local obs::CounterHandle m_bins;
  static thread_local obs::CounterHandle m_rescattered;
  static thread_local obs::GaugeHandle m_max_bin;
  obs::MetricsRegistry& reg = obs::metrics();
  count_sort_metrics(keys, passes);
  m_bins.of(reg, "sort.buckets").add(bins);
  m_rescattered.of(reg, "sort.rescattered_tuples").add(rescattered);
  m_max_bin.of(reg, "sort.max_bucket_tuples").set_max(static_cast<double>(max_bin));
}

}  // namespace

void two_level_sort_kv64(std::span<std::uint64_t> keys, std::span<std::uint32_t> vals,
                         std::span<std::uint64_t> tmp_keys, std::span<std::uint32_t> tmp_vals,
                         int digit_bits) {
  check_buffers(keys.size(), vals.size(), tmp_keys.size(), tmp_vals.size());
  check_digit_bits(digit_bits);
  const std::size_t n = keys.size();
  const Kv32 region{keys.data(), vals.data()};
  const Kv32 scratch{tmp_keys.data(), tmp_vals.data()};
  const int vb = n > 1 ? varying_bits(region.k, n) : 0;
  if (vb == 0 || n <= kInsertionMax) {
    if (vb > 0) insertion_sort(region, 0, n);
    count_two_level_metrics(n, 0, n > 0 ? 1 : 0, n, 0);
    return;
  }
  const int bits = bin_bits(n, vb);
  std::vector<std::size_t> off(std::size_t{1} << bits);
  BinSorter in_bin(digit_bits);
  const obs::MemCharge mem("sort", off.size() * sizeof(std::size_t) + in_bin.bytes());
  counting_scatter(region, scratch, 0, n, vb - bits, off.size(), off.data());
  std::size_t begin = 0;
  std::size_t max_bin = 0;
  for (const std::size_t end : off) {
    max_bin = std::max(max_bin, end - begin);
    in_bin.sort_bin(scratch, region, begin, end - begin);
    begin = end;
  }
  count_two_level_metrics(n, 1, off.size(), max_bin, in_bin.rescattered());
}

void radix_sort_kv64(std::span<std::uint64_t> keys, std::span<std::uint32_t> vals,
                     std::span<std::uint64_t> tmp_keys, std::span<std::uint32_t> tmp_vals,
                     int key_bits, int digit_bits) {
  radix_sort_impl<std::uint32_t>(keys, vals, tmp_keys, tmp_vals, key_bits, digit_bits);
}

void radix_sort_kv64(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& vals,
                     int key_bits, int digit_bits) {
  std::vector<std::uint64_t> tk(keys.size());
  std::vector<std::uint32_t> tv(vals.size());
  const obs::MemCharge scratch_mem("sort", tk.size() * sizeof(std::uint64_t) +
                                               tv.size() * sizeof(std::uint32_t));
  radix_sort_kv64(keys, vals, tk, tv, key_bits, digit_bits);
}

void radix_sort_kv64x64(std::span<std::uint64_t> keys, std::span<std::uint64_t> vals,
                        std::span<std::uint64_t> tmp_keys, std::span<std::uint64_t> tmp_vals,
                        int key_bits, int digit_bits) {
  radix_sort_impl<std::uint64_t>(keys, vals, tmp_keys, tmp_vals, key_bits, digit_bits);
}

void radix_sort_kv128(std::span<std::uint64_t> keys_hi, std::span<std::uint64_t> keys_lo,
                      std::span<std::uint32_t> vals, std::span<std::uint64_t> tmp_hi,
                      std::span<std::uint64_t> tmp_lo, std::span<std::uint32_t> tmp_vals,
                      int key_bits, int digit_bits) {
  const std::size_t n = keys_hi.size();
  if (keys_lo.size() != n || vals.size() != n || tmp_hi.size() < n || tmp_lo.size() < n ||
      tmp_vals.size() < n)
    throw std::invalid_argument("radix128: buffer size mismatch");
  if (n <= 1) return;

  // LSD across the full 128-bit key: low-word digits first, then high-word
  // digits.  Each pass permutes all three arrays together.
  const int lo_bits = std::min(key_bits, 64);
  const int hi_bits = key_bits > 64 ? key_bits - 64 : 0;
  const std::uint64_t digit_mask = (std::uint64_t{1} << digit_bits) - 1;

  std::span<std::uint64_t> sh = keys_hi, sl = keys_lo;
  std::span<std::uint32_t> sv = vals;
  std::span<std::uint64_t> dh = tmp_hi.subspan(0, n), dl = tmp_lo.subspan(0, n);
  std::span<std::uint32_t> dv = tmp_vals.subspan(0, n);

  int total_passes = 0;
  auto do_passes = [&](bool use_lo, int bits) {
    const int passes = bits == 0 ? 0 : (bits + digit_bits - 1) / digit_bits;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * digit_bits;
      const std::size_t nbuckets = std::size_t{1} << digit_bits;
      std::vector<std::size_t> count(nbuckets, 0);
      const obs::MemCharge count_mem("sort", nbuckets * sizeof(std::size_t));
      auto digit_of = [&](std::size_t i) {
        const std::uint64_t w = use_lo ? sl[i] : sh[i];
        return static_cast<std::size_t>((w >> shift) & digit_mask);
      };
      for (std::size_t i = 0; i < n; ++i) ++count[digit_of(i)];
      std::size_t acc = 0;
      for (std::size_t b = 0; b < nbuckets; ++b) {
        const std::size_t c = count[b];
        count[b] = acc;
        acc += c;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t dst = count[digit_of(i)]++;
        dh[dst] = sh[i];
        dl[dst] = sl[i];
        dv[dst] = sv[i];
      }
      std::swap(sh, dh);
      std::swap(sl, dl);
      std::swap(sv, dv);
      ++total_passes;
    }
  };
  do_passes(/*use_lo=*/true, lo_bits);
  do_passes(/*use_lo=*/false, hi_bits);

  if (total_passes % 2 == 1) {
    std::memcpy(keys_hi.data(), sh.data(), n * sizeof(std::uint64_t));
    std::memcpy(keys_lo.data(), sl.data(), n * sizeof(std::uint64_t));
    std::memcpy(vals.data(), sv.data(), n * sizeof(std::uint32_t));
  }
  count_sort_metrics(n, total_passes);
}

bool is_sorted_keys(std::span<const std::uint64_t> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

}  // namespace metaprep::sort
