// Statistics of the serving benchmark: percentiles and the tail rule, SLO
// attainment over requests sent, and stage busy/bubble shares from spans.
// Header-only and free of gllm types so stats_test.cpp can check it alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Coefficient of variation (population stddev over mean); 0 if undefined.
inline double cv(const std::vector<double>& v) {
  const double m = mean(v);
  if (v.empty() || m == 0.0) return 0.0;
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(v.size())) / m;
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  return n - std::min(rank, n);
}

/// The tail rule: the highest of p99, p95 and p90 that still has at least
/// ten samples beyond it; 0 when even p90 does not.
inline double tail_percentile(std::size_t n) {
  for (double p : {99.0, 95.0, 90.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

/// One request as the SLO sees it. A request that failed or was refused has
/// completed == false and misses both limits whatever its timings say.
struct RequestOutcome {
  bool completed = false;
  double ttft_s = 0.0;
  double mean_tpot_s = 0.0;  ///< mean gap after the first token (0 for one token)
};

/// Share of requests sent that completed within both the TTFT limit and the
/// mean-TPOT limit. The denominator is every request sent.
inline double slo_attainment(const std::vector<RequestOutcome>& sent, double ttft_limit_s,
                             double tpot_limit_s) {
  if (sent.empty()) return 0.0;
  std::size_t met = 0;
  for (const RequestOutcome& r : sent)
    if (r.completed && r.ttft_s <= ttft_limit_s && r.mean_tpot_s <= tpot_limit_s) ++met;
  return static_cast<double>(met) / static_cast<double>(sent.size());
}

/// A closed time interval [begin, end] in seconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Intervals clipped to `window`; those falling outside it are dropped.
inline std::vector<Interval> clip(const std::vector<Interval>& spans, Interval window) {
  std::vector<Interval> out;
  for (const Interval& s : spans) {
    const double b = std::max(s.begin, window.begin);
    const double e = std::min(s.end, window.end);
    if (e > b) out.push_back({b, e});
  }
  return out;
}

inline double total_length(const std::vector<Interval>& spans) {
  double t = 0.0;
  for (const Interval& s : spans) t += s.end - s.begin;
  return t;
}

/// Length of the union of possibly overlapping intervals.
inline double union_length(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0.0;
  double cur_b = 0.0;
  double cur_e = -1.0;
  bool open = false;
  for (const Interval& s : spans) {
    if (open && s.begin <= cur_e) {
      cur_e = std::max(cur_e, s.end);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = s.begin;
    cur_e = s.end;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

/// Share of `window` that the spans of one stage cover.
inline double busy_share(const std::vector<Interval>& spans, Interval window) {
  const double w = window.end - window.begin;
  return w > 0.0 ? total_length(clip(spans, window)) / w : 0.0;
}

/// Pipeline bubble share (the paper's Fig. 4 on live spans): of the time at
/// least one stage is computing, the share of stage-time spent idle, i.e.
/// 1 - sum(busy_i) / (stages * |union of all busy spans|).
inline double bubble_share(const std::vector<std::vector<Interval>>& per_stage,
                           Interval window) {
  std::vector<Interval> all;
  double busy = 0.0;
  for (const auto& spans : per_stage) {
    const auto clipped = clip(spans, window);
    busy += total_length(clipped);
    all.insert(all.end(), clipped.begin(), clipped.end());
  }
  const double active = union_length(all);
  if (per_stage.empty() || active <= 0.0) return 0.0;
  return 1.0 - busy / (static_cast<double>(per_stage.size()) * active);
}

/// One begin or end edge of a span on a track.
struct Edge {
  bool begin = false;
  double ts = 0.0;
};

/// Pair time-ordered begin/end edges of one span name on one track into
/// intervals. Spans of one name never nest on a track; an end without a
/// begin (the ring dropped it) or a trailing begin is skipped.
inline std::vector<Interval> pair_edges(const std::vector<Edge>& edges) {
  std::vector<Interval> out;
  bool open = false;
  double start = 0.0;
  for (const Edge& e : edges) {
    if (e.begin) {
      open = true;
      start = e.ts;
    } else if (open) {
      out.push_back({start, e.ts});
      open = false;
    }
  }
  return out;
}

}  // namespace perfbench
