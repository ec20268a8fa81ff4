// Arithmetic of the survey benchmark: host-clock spans and their self time,
// the tail-percentile rule, medians, the sentinel correction, ratios with a
// named base, and failure counting. Everything here is pure and is checked by RunSelfTests()
// (survey_bench --self-test), which run.py runs before every measurement.
#ifndef SURVEYBENCH_BENCH_MATH_H_
#define SURVEYBENCH_BENCH_MATH_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace surveybench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans ---------------------------------------------------------------

// One timed interval of host time. |parent| is the index + 1 of the span
// that caused it (0 for roots); spans of one site share |site|.
struct Span {
  uint32_t parent = 0;
  uint32_t site = 0;
  uint16_t name = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Keeps spans in memory; the benchmark writes them out when it ends. Begin
// parents the new span under the innermost open one, so spans opened inside
// a callback nest under whatever the callback interrupted.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<std::string> names) : names_(std::move(names)) {}

  uint32_t Begin(uint16_t name, uint32_t site) {
    spans_.push_back(Span{open_, site, name, NowNs(), 0});
    open_ = static_cast<uint32_t>(spans_.size());
    return open_;
  }
  void End(uint32_t id) {
    Span& span = spans_[id - 1];
    span.end_ns = NowNs();
    open_ = span.parent;
  }

  const std::vector<Span>& Spans() const { return spans_; }
  const std::vector<std::string>& Names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  uint32_t open_ = 0;
};

// RAII span; a null recorder makes it free of any clock read.
class Scope {
 public:
  Scope(SpanRecorder* recorder, uint16_t name, uint32_t site)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->Begin(name, site) : 0) {}
  ~Scope() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t id_;
};

// Per-name inclusive and self time over a span list. A span's self time is
// its duration minus the part of its interval that its direct children cover
// (overlapping children are counted once; parts of a child outside the
// parent are ignored).
struct SpanTotals {
  std::vector<int64_t> inclusive_ns;
  std::vector<int64_t> self_ns;
  std::vector<uint64_t> count;
};

inline SpanTotals TotalSpans(const std::vector<Span>& spans, size_t name_count) {
  SpanTotals totals;
  totals.inclusive_ns.assign(name_count, 0);
  totals.self_ns.assign(name_count, 0);
  totals.count.assign(name_count, 0);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;  // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    int64_t duration = span.end_ns - span.start_ns;
    totals.inclusive_ns[span.name] += duration;
    totals.self_ns[span.name] += duration - covered;
    ++totals.count[span.name];
  }
  return totals;
}

// ---- order statistics ----------------------------------------------------

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The highest percentile that still has at least |beyond| samples above it:
// with n sorted samples it is the value at nearest rank n - beyond, i.e.
// percentile 100 * (n - beyond) / n. Fewer than beyond + 1 samples have no
// such tail; |valid| is false then.
struct Tail {
  bool valid = false;
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};

inline Tail TailPercentile(std::vector<double> values, size_t beyond = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.size() <= beyond) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  size_t rank = values.size() - beyond;  // 1-based nearest rank
  tail.valid = true;
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(values.size());
  tail.value = values[rank - 1];
  return tail;
}

// Interference correction for a shared host. Co-tenants load its CPUs
// unevenly and the load moves within seconds: the same work can take 1.6x
// longer on one CPU than on another at the same moment. Each chunk of
// distinct work therefore runs between two probes that time a fixed sentinel
// unit of the same code on every CPU; the chunk runs on the CPU that was
// fastest, and the probes' times on that CPU bracket it. Episodes of minutes
// also slow every CPU for a whole run; after each probe a speed kernel of
// the benchmark's own, which no change to the program moves, times that
// CPU's speed against a fixed reference.
struct SentinelLog {
  std::vector<double> chunk;   // host seconds of each chunk
  std::vector<double> before;  // sentinel on the chunk's CPU just before it
  std::vector<double> after;   // sentinel on the chunk's CPU just after it
  std::vector<double> best;    // fastest sentinel of every probe
  std::vector<double> kernel;  // speed kernel on the fastest CPU of every probe
  std::vector<double> setup;   // one set-up on the chunk's CPU just before it
};

// The 10th-percentile value (0 for none): a run's fast speed, which one
// lucky probe does not set.
inline double Floor(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 10];
}

// The run's fast speed: the 10th-percentile best sentinel (0 without one).
inline double SentinelFloor(const SentinelLog& log) { return Floor(log.best); }

// Whether every chunk has both sentinels and the run has both floors.
inline bool Bracketed(const SentinelLog& log) {
  return !log.chunk.empty() && log.before.size() == log.chunk.size() &&
         log.after.size() == log.chunk.size() && !log.best.empty() && !log.kernel.empty();
}

// The factor that takes chunk |k| to the reference speed: the floor over
// the mean of the two sentinels beside it takes it to the run's fast speed
// (a change that speeds the program up speeds the sentinel up too, so that
// part stays put), and the reference kernel time over the run's kernel
// floor takes the run's fast speed to the reference speed.
inline double ChunkScale(const SentinelLog& log, size_t k, double reference_kernel_s) {
  return SentinelFloor(log) / (0.5 * (log.before[k] + log.after[k])) * reference_kernel_s /
         Floor(log.kernel);
}

// The chunks' total time at the reference speed.
inline double CorrectedTime(const SentinelLog& log, double reference_kernel_s) {
  if (!Bracketed(log)) {
    return 0.0;
  }
  double total = 0.0;
  for (size_t k = 0; k < log.chunk.size(); ++k) {
    total += log.chunk[k] * ChunkScale(log, k, reference_kernel_s);
  }
  return total;
}

// The median set-up time at the reference speed: each set-up is scaled like
// the chunk it ran before (0 unless every chunk has one).
inline double CorrectedSetup(const SentinelLog& log, double reference_kernel_s) {
  if (!Bracketed(log) || log.setup.size() != log.chunk.size()) {
    return 0.0;
  }
  std::vector<double> scaled;
  for (size_t k = 0; k < log.chunk.size(); ++k) {
    scaled.push_back(log.setup[k] * ChunkScale(log, k, reference_kernel_s));
  }
  return Median(scaled);
}

// ---- ratios and failures -------------------------------------------------

// numerator / base, 0 when the base is 0 (the layer did no work).
inline double Ratio(double numerator, double base) {
  return base == 0.0 ? 0.0 : numerator / base;
}

// Survey outcome counts: a site fails to profile when its experiment was
// aborted (too few clients registered) or it had no object for the stage.
// Only aborts are operation failures; a stage-less site is a property of
// the site, but both leave the site unprofiled.
struct SurveyOutcomes {
  size_t attempted = 0;
  size_t aborted = 0;
  size_t stageless = 0;

  double FailedFrac() const {
    return Ratio(static_cast<double>(aborted + stageless), static_cast<double>(attempted));
  }
  double CompletedFrac() const { return attempted == 0 ? 0.0 : 1.0 - FailedFrac(); }
};

// FNV-1a 64 over a byte string, chained through |hash| so a digest can
// cover many strings in order.
inline uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Runs the arithmetic self-tests; returns the number of failed checks and
// prints each failure to stderr.
int RunSelfTests();

}  // namespace surveybench

#endif  // SURVEYBENCH_BENCH_MATH_H_
