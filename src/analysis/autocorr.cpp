#include "analysis/autocorr.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace v6t::analysis {

namespace {

constexpr std::int64_t kBinMillis = sim::hours(1).millis();
/// Longest series (in bins) the binned test examines; ~120 years of hours.
constexpr std::size_t kMaxBins = std::size_t{1} << 20;

/// Wide enough for every term below: with n <= 2^20 bins and N < 2^32
/// starts, |10·num_k| and 3·den stay under 10·n²·N² < 2^108.
using Wide = __int128;

/// The binned test over ascending start times: the first lag k in
/// [2, n/2) whose autocorrelation is at least 3/10 and a local maximum,
/// in bins, or 0 when there is none.
///
/// With x_i the starts in hourly bin i of n and N = Σx_i, the textbook
/// centered ACF is r_k = Σ_{i<n-k} (x_i - N/n)(x_{i+k} - N/n) / Σ (x_i -
/// N/n)². Scaled by n², both sums are integers:
///
///   num_k = n²·S_k - n·N·(A_k + B_k) + (n - k)·N²
///   den   = n·(n·Q - N²)
///
/// where S_k = Σ x_i·x_{i+k} counts the start pairs exactly k bins apart,
/// Q = Σ x_i², A_k the starts in bins [0, n-k) and B_k those in [k, n).
/// The cost is one step per start pair at most n/2 bins apart plus one
/// pass over the n/2 pair counters, not the n²/2 multiply-adds of a dense
/// sweep, and every comparison is exact: ties (r_k = 3/10, r_k = r_{k±1})
/// qualify.
std::size_t peakLag(std::span<const sim::SimTime> sorted) {
  const std::int64_t start = sorted.front().millis();
  const auto bins =
      static_cast<std::size_t>((sorted.back().millis() - start) / kBinMillis) +
      1;
  if (bins > kMaxBins) return 0;
  const std::size_t lags = bins / 2; // r_1..r_lags; candidates 2..lags-1
  if (lags < 3) return 0;

  std::vector<std::uint32_t> bin;
  bin.reserve(sorted.size());
  for (sim::SimTime t : sorted) {
    bin.push_back(
        static_cast<std::uint32_t>((t.millis() - start) / kBinMillis));
  }
  // pairs[k] = S_k; pairs[0] counts the pairs sharing a bin, which is
  // what Q adds over N.
  std::vector<std::uint64_t> pairs(lags + 1, 0);
  for (std::size_t i = 0; i < bin.size(); ++i) {
    for (std::size_t j = i + 1; j < bin.size() && bin[j] - bin[i] <= lags;
         ++j) {
      ++pairs[bin[j] - bin[i]];
    }
  }

  const Wide n = static_cast<Wide>(bins);
  const Wide total = static_cast<Wide>(bin.size());
  const Wide q = total + 2 * static_cast<Wide>(pairs[0]);
  const Wide den = n * (n * q - total * total);
  if (den <= 0) return 0; // every bin holds the same count: no ACF

  const auto startsBelow = [&](std::size_t b) {
    return static_cast<Wide>(std::lower_bound(bin.begin(), bin.end(), b) -
                             bin.begin());
  };
  const auto num = [&](std::size_t k) {
    const Wide ab = startsBelow(bins - k) + total - startsBelow(k); // A_k+B_k
    return n * n * static_cast<Wide>(pairs[k]) - n * total * ab +
           (n - static_cast<Wide>(k)) * total * total;
  };
  for (std::size_t k = 2; k < lags; ++k) {
    // Without a pair k bins apart, num_k <= -k·N² < 0: for k <= n/2 the
    // two ranges of A_k and B_k cover every bin, so A_k + B_k >= N.
    if (pairs[k] == 0) continue;
    const Wide here = num(k);
    if (10 * here >= 3 * den && here >= num(k - 1) && here >= num(k + 1)) {
      return k;
    }
  }
  return 0;
}

} // namespace

std::optional<sim::Duration> detectPeriod(
    std::span<const sim::SimTime> events) {
  if (events.size() < 3) return std::nullopt;

  // The dominant caller serves CaptureIndex::sessionStartsOf, whose
  // per-source runs are already start-ordered — take the span directly and
  // skip the copy + O(n log n) sort; only genuinely unsorted input pays.
  std::vector<sim::SimTime> copy;
  std::span<const sim::SimTime> sorted = events;
  if (!std::is_sorted(events.begin(), events.end())) {
    copy.assign(events.begin(), events.end());
    std::sort(copy.begin(), copy.end());
    sorted = copy;
  }
  assert(std::is_sorted(sorted.begin(), sorted.end()));

  // Fast path that mirrors how the paper's scanners behave: if consecutive
  // gaps are tightly concentrated around their median, that is the period.
  std::vector<std::int64_t> gaps;
  gaps.reserve(sorted.size() - 1);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    gaps.push_back((sorted[i] - sorted[i - 1]).millis());
  }
  std::vector<std::int64_t> byValue = gaps;
  std::sort(byValue.begin(), byValue.end());
  const std::int64_t median = byValue[byValue.size() / 2];
  // At least three gaps: two coincidentally similar gaps must not turn a
  // Poisson scanner into a periodic one. Each gap within 30 % of the
  // median, compared exactly.
  if (median > 0 && gaps.size() >= 3 &&
      std::all_of(gaps.begin(), gaps.end(), [&](std::int64_t g) {
        return 10 * std::abs(g - median) <= 3 * median;
      })) {
    return sim::Duration{median};
  }

  if (const std::size_t lag = peakLag(sorted)) {
    return sim::Duration{static_cast<std::int64_t>(lag) * kBinMillis};
  }
  return std::nullopt;
}

} // namespace v6t::analysis
