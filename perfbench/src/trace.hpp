#pragma once

// Span recorder of the benchmark's traced runs. Spans are opened only in
// the benchmark's own files, around calls into the program's public
// functions, so the program itself carries no benchmark instrumentation.
// Each span keeps its name, start, end, parent span and the id of the
// iteration or request it belongs to; spans stay in memory until the run
// ends and are then analysed (self time) and written out as JSON.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the clock every benchmark timing uses).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< unique, nonzero
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< iteration or request id
  std::uint32_t thread = 0;
};

/// Process-wide span store. Recording is switched by one global flag;
/// while it is off, a ScopedSpan costs one relaxed load.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Every span recorded so far, from every thread. Call once the threads
  /// that record have been joined.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

  /// Bytes held by recorded spans (the tracer's memory cost).
  [[nodiscard]] std::size_t bytes() const;

  /// Writes the spans as a JSON array. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

  struct ThreadBuffer;  ///< one thread's spans and open-span stack

 private:
  friend class OpScope;
  friend class ScopedSpan;
  Tracer() = default;
  ThreadBuffer& buffer();
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
};

/// Marks the iteration/request id that spans opened on this thread belong
/// to, for the lifetime of the scope.
class OpScope {
 public:
  explicit OpScope(std::uint64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::uint64_t saved_ = 0;
};

/// RAII span: records [construction, destruction) under `name` (a string
/// literal), parented to the innermost open span of this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Per-name aggregates of a span list: every duration, and self time
/// (duration minus the part of it that child spans cover).
struct SpanSummary {
  std::vector<double> dur_ms;  ///< one entry per span, recording order
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] std::map<std::string, SpanSummary> summarize_spans(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
