// Observability layer: a process-wide metrics registry (counters, gauges,
// histograms with fixed bucket layouts) plus trace spans stamped on the
// *simulated* clock.
//
// Design constraints, in priority order:
//   1. Off by default, zero-cost when disabled.  Every producer guards its
//      instrumentation with `if (sq::obs::enabled())` — one relaxed atomic
//      load and a predictable branch — and the simulator's span producer is
//      gated on a nullable TraceSink pointer, so disabled runs execute the
//      exact same arithmetic as before the layer existed.
//   2. Recording must never feed back into results: planner plans and
//      engine ServeStats are bit-identical with metrics on vs off
//      (asserted by tests/obs_test.cpp).
//   3. Aggregates are order-independent so totals are identical across
//      thread counts: counters are integer sums, gauge high-water marks
//      are maxima, histogram bucket counts are integer sums, and the
//      histogram value sum accumulates in 2^-20 fixed point (integer
//      addition commutes; float addition does not).  Spans are ordered and
//      therefore only ever recorded from sequential code paths (the
//      engine's serve loop), stamped on the deterministic simulated clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace sq::obs {

/// Monotonic integer counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value with a running high-water mark.  `set` is safe to
/// call concurrently; `last` is then whichever set landed last (the
/// high-water mark stays order-independent).
class Gauge {
 public:
  Gauge();

  void set(double v);
  double last() const;
  double max() const;
  std::uint64_t sets() const { return sets_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<std::uint64_t> last_bits_;
  std::atomic<std::uint64_t> max_bits_;
  std::atomic<std::uint64_t> sets_{0};
  std::atomic<bool> seen_{false};
};

/// The registry's fixed bucket layouts.  Fixing the layouts (instead of
/// letting call sites pick bounds) keeps the exported schema stable across
/// code changes.
enum class BucketLayout {
  kTimeUs,   ///< 1 us .. 1e9 us, decade steps with 1-2-5 subdivision.
  kSeconds,  ///< 1 ms .. 1e4 s, decade steps.
  kPow2,     ///< 1 .. 2^20, powers of two (sizes, batch counts).
  kRatio,    ///< 0 .. 1 in 0.05 steps (utilizations, hit rates).
};

/// Bucket upper bounds of a layout (last bucket is the overflow bucket,
/// bounds.size() + 1 counts in total).
const std::vector<double>& layout_bounds(BucketLayout layout);

/// Printable layout name (schema field).
const char* layout_name(BucketLayout layout);

/// Histogram over one fixed layout.  Bucket counts and the fixed-point
/// value sum are order-independent; min/max are maintained with CAS loops.
class Histogram {
 public:
  explicit Histogram(BucketLayout layout);

  void observe(double v);

  BucketLayout layout() const { return layout_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Exact sum of observations rounded to 2^-20: fixed-point accumulation
  /// makes the sum independent of observation order.
  double sum() const;
  double min() const;
  double max() const;
  std::vector<std::uint64_t> counts() const;
  void reset();

 private:
  BucketLayout layout_;
  const std::vector<double>& bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_fp_{0};  ///< Units of 2^-20.
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
  std::atomic<bool> seen_{false};
};

/// One trace span on the simulated clock (microseconds).  Attributes are
/// numeric; the exporter renders them hexfloat-exact and key-sorted.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// Sequential span collector.  The simulator appends spans relative to its
/// own 0-based batch clock; the owner advances `base_us` between waves so
/// the collected trace forms one global simulated timeline.  Not
/// thread-safe by design: traces are ordered, so producers must be
/// sequential (the engine's serve loop is; the planner's parallel
/// validation fan-out therefore never passes a sink).
class TraceSink {
 public:
  double base_us = 0.0;

  void add(Span s) {
    s.start_us += base_us;
    s.end_us += base_us;
    spans_.push_back(std::move(s));
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
};

// ---- Snapshot (exporter input) ----------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double last = 0.0;
  double max = 0.0;
  std::uint64_t sets = 0;
};

struct HistogramSample {
  std::string name;
  BucketLayout layout = BucketLayout::kTimeUs;
  std::vector<std::uint64_t> counts;  ///< layout bounds + overflow bucket.
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Name-sorted copy of every instrument plus the recorded spans.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<Span> spans;
};

// ---- Registry ----------------------------------------------------------

/// The process-wide registry.  Instruments are created on first use and
/// live for the process lifetime (handles stay valid across reset()).
class Registry {
 public:
  static Registry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The layout of an existing histogram must match; mismatches are a
  /// programming error and throw.
  Histogram& histogram(std::string_view name, BucketLayout layout);

  /// Append spans (in order) to the registry's trace.  No-op when
  /// disabled.  Serialized by a mutex so stray concurrent use is safe, but
  /// deterministic ordering is only guaranteed for sequential producers.
  void record_spans(std::vector<Span> spans);

  Snapshot snapshot() const;

  /// Zero every instrument and drop the trace (handles stay valid).
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<Span> spans_;
};

// ---- Convenience free functions (the producer-facing API) --------------

/// One relaxed load: the guard producers place in front of instrumentation.
inline bool enabled() { return Registry::global().enabled(); }

inline void set_enabled(bool on) { Registry::global().set_enabled(on); }

inline Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::global().gauge(name);
}
inline Histogram& histogram(std::string_view name, BucketLayout layout) {
  return Registry::global().histogram(name, layout);
}

/// An instrument looked up by name on its first write and held after that
/// (handles stay valid across Registry::reset()).  A hot loop writes
/// through it without taking the registry mutex, and only instruments that
/// are actually written get registered.  `name` must outlive the handle
/// (callers pass string literals).
template <class Metric>
class LazyMetric {
 public:
  explicit LazyMetric(std::string_view name,
                      BucketLayout layout = BucketLayout::kPow2)
      : name_(name), layout_(layout) {}

  Metric* operator->() {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<Metric, Histogram>) {
        metric_ = &histogram(name_, layout_);
      } else if constexpr (std::is_same_v<Metric, Gauge>) {
        metric_ = &gauge(name_);
      } else {
        metric_ = &counter(name_);
      }
    }
    return metric_;
  }

 private:
  std::string_view name_;
  BucketLayout layout_;
  Metric* metric_ = nullptr;
};

}  // namespace sq::obs
