#pragma once

// Input preparation and the timed cold start shared by every workload, plus
// the per-run reporting every workload shares (set-up layers, thread-pool
// window, span self-time shares, tracing overhead).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "io/design_io.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace insta;  // NOLINT: the benchmark speaks the program's names

/// A generated design file, removed when the object goes out of scope.
class DesignFile {
 public:
  /// Generates the fig7-shaped design, tunes its clock so 8 % of the
  /// endpoints violate, and saves it under args.work_dir. Input
  /// preparation: never timed.
  explicit DesignFile(const Args& args);
  ~DesignFile();
  DesignFile(const DesignFile&) = delete;
  DesignFile& operator=(const DesignFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// What `insta_cli serve` loads before it can answer: design file, timing
/// graph, delays, and the golden reference with default (unpruned) options.
struct World {
  io::LoadedDesign loaded;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;
};

/// Seconds spent in each layer by one set-up.
struct SetupTimes {
  double load_s = 0.0;
  double graph_s = 0.0;
  double delay_calc_s = 0.0;
  double golden_s = 0.0;
  double engine_init_s = 0.0;
  double first_forward_s = 0.0;
  double serve_start_s = 0.0;
  double replica_bootstrap_s = 0.0;
  double total_s = 0.0;
  bool traced = false;
};

/// Runs `fn` inside span `name` and adds its wall time to `acc` (seconds).
template <typename F>
void timed(const char* name, double& acc, F&& fn) {
  const ScopedSpan span(name);
  const std::int64_t t0 = now_ns();
  fn();
  acc += static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Loads `path` the way `insta_cli serve`'s World does, timing each layer.
std::unique_ptr<World> load_world(const std::string& path, SetupTimes& t);

void report_setups(const Args& args, Report& rep,
                   const std::vector<SetupTimes>& times);
void release_freed_memory();

/// Runs kSetupReps set-ups through `one` (which returns that set-up's
/// times, keeping its state) and reports setup_s and the set-up layers. In a
/// traced run the middle set-up records spans and the tracing overhead is
/// that set-up minus the median of the others.
template <typename F>
void run_setups(const Args& args, Report& rep, F&& one) {
  std::vector<SetupTimes> times;
  for (int r = 0; r < kSetupReps; ++r) {
    // Hand the previous set-up's freed memory back to the system, so the
    // run's peak RSS is one set-up's and not the allocator's leftovers.
    release_freed_memory();
    const bool traced = args.trace && r == 1;
    Tracer::global().set_enabled(traced);
    SetupTimes t = one();
    t.traced = traced;
    times.push_back(t);
  }
  Tracer::global().set_enabled(false);
  report_setups(args, rep, times);
}

/// Thread-pool utilisation over a measurement window.
class PoolWindow {
 public:
  PoolWindow() : start_(util::ThreadPool::global().stats()) {}
  /// busy / (busy + idle) across workers since construction, in percent.
  [[nodiscard]] double utilization_pct() const;

 private:
  util::ThreadPool::PoolStats start_;
};

/// Per-layer metrics every traced run reports from its window spans
/// (spans with a nonzero op id): self-time share per layer.
void report_self_shares(Report& rep, const std::vector<SpanRecord>& spans);

/// Untraced and traced samples of one run's main operation.
struct OpSamples {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double untraced_sec = 0.0;  ///< wall time spent in untraced stretches
  double traced_sec = 0.0;
};

/// The workload's own names for its main-operation metrics.
struct OpNames {
  const char* ops_per_s;
  const char* p50_ms;
  const char* tail_ms;
  double tail_q;  ///< the tail quantile (0.9 or 0.99)
};

/// Reports ops_per_s / op_p50_ms / op_tail_ms from the untraced samples
/// (also under the workload's own names) and, in a traced run, the tracing
/// overhead (traced minus untraced) of each end-to-end metric.
void report_ops(const Args& args, Report& rep, const OpSamples& s,
                const OpNames& names);

/// Writes the run's spans under args.work_dir (traced runs only).
void dump_spans(const Args& args);

/// Span durations of `name`, in milliseconds (empty when never recorded).
[[nodiscard]] std::vector<double> span_ms(
    const std::map<std::string, SpanSummary>& sums, const char* name);

}  // namespace perfbench
