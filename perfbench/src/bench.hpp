#pragma once

// Shared pieces of the benchmark driver: command-line arguments, the
// result report (end-to-end and per-layer metrics, attempt/failure counts,
// correctness gates) and small statistics helpers.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full": the fig7 block shape at half size; "smoke": at 1/40 size, for
  /// the benchmark's own smoke test.
  std::string size = "full";
  /// Flip one value of every gate's reference, to show the gates fire.
  bool corrupt_reference = false;
  /// Scratch directory for the design file, socket and span dump.
  std::string work_dir = ".bench_build/perfbench";
};

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupReps = 3;

/// Linear-interpolated quantile q in [0, 1] of `v` (NaN when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Bitwise comparison of two float spans; returns the mismatch count.
inline std::size_t bitwise_mismatches(std::span<const float> a,
                                      std::span<const float> b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++bad;
  }
  return bad;
}

/// Flips the lowest mantissa bit of the first finite value (the corrupted
/// reference of --corrupt-reference).
inline void corrupt_one(std::vector<float>& v) {
  for (float& x : v) {
    if (x == x && x - x == 0.0f) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &x, sizeof(bits));
      bits ^= 1u;
      std::memcpy(&x, &bits, sizeof(bits));
      return;
    }
  }
}

struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (the JSON of an untraced
/// run; BENCHMARK.json lists the same names). Each workload maps its main
/// operation onto ops/p50/tail: place_dense and eco_sizing iterations,
/// serve_mixed what-if requests.
inline constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},    {"op_tail_ms", "ms"},
};

/// The per-layer metrics of a traced run, in report order. A workload that
/// does not exercise a layer reports 0 for its metrics.
inline constexpr Metric kPerLayer[] = {
    // Set-up, every workload (moves setup_s / peak_rss_mb).
    {"io.load_s", "s"},
    {"timing.graph_s", "s"},
    {"timing.delay_calc_s", "s"},
    {"ref.golden_update_s", "s"},
    {"ref.golden_share_pct", "%"},
    {"core.engine_init_s", "s"},
    {"core.first_forward_s", "s"},
    {"serve.start_s", "s"},
    {"replica.bootstrap_s", "s"},
    {"core.memory_mb", "MB"},
    // place_dense (moves its ops/p50/tail).
    {"core.annotate_bulk_ms", "ms"},
    {"core.annotate_bulk_pct", "%"},
    {"core.forward_dense_ms", "ms"},
    {"core.forward_dense_pct", "%"},
    {"core.backward_ms", "ms"},
    {"core.backward_pct", "%"},
    {"core.merged_summary_ms", "ms"},
    {"core.merged_summary_pct", "%"},
    {"core.merge_ops_per_iter", "count"},
    {"core.prune_ratio", "ratio"},
    {"core.cppr_lookups_per_iter", "count"},
    {"util.pool.chunk_imbalance_pct", "%"},
    // eco_sizing.
    {"timing.estimate_eco_ms", "ms"},
    {"core.txn_annotate_ms", "ms"},
    {"core.forward_sparse_ms", "ms"},
    {"core.forward_sparse_p99_ms", "ms"},
    {"core.commit_ms", "ms"},
    {"core.rollback_ms", "ms"},
    {"timing.update_for_resize_ms", "ms"},
    {"core.backward_sparse_ms", "ms"},
    {"core.frontier_pins_per_pass", "count"},
    {"core.early_term_ratio", "ratio"},
    {"core.endpoints_evaluated_per_pass", "count"},
    {"core.weight_reuse_ratio", "ratio"},
    {"eco.accept_ratio", "ratio"},
    // serve_mixed.
    {"serve.wire_us", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.batch_us_p99", "us"},
    {"serve.eval_us", "us"},
    {"serve.batch_occupancy", "count"},
    {"core.scenario_frontier_pins", "count"},
    {"core.scenario_overlay_kb", "KB"},
    {"serve.serialize_us.whatif", "us"},
    {"serve.serialize_us.summary", "us"},
    {"serve.serialize_us.endpoints", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.commit_us", "us"},
    {"replica.delta_stream_us", "us"},
    {"replica.decode_us", "us"},
    {"replica.apply_us", "us"},
    {"replica.delta_bytes", "bytes"},
    {"replica.full_sync_s", "s"},
    {"replica.sync_rtt_s", "s"},
    {"serve.shed", "count"},
    {"serve.editor_lateness_ms", "ms"},
    {"serve.read_p99_ms", "ms"},
    {"serve.commit_p50_ms", "ms"},
    {"replica.lag_p50_ms", "ms"},
    // Every workload.
    {"util.pool.utilization_pct", "%"},
    {"core.self_pct", "%"},
    {"timing.self_pct", "%"},
    {"serve.self_pct", "%"},
    {"replica.self_pct", "%"},
    {"bench.self_pct", "%"},
    {"trace_overhead.setup_s", "s"},
    {"trace_overhead.peak_rss_mb", "MB"},
    {"trace_overhead.ops_per_s", "1/s"},
    {"trace_overhead.op_p50_ms", "ms"},
    {"trace_overhead.op_tail_ms", "ms"},
};

/// Everything one run reports. Human-readable lines go to stdout as they
/// are added; main() prints the final JSON line.
class Report {
 public:
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// An end-to-end metric (a name of kEndToEnd).
  void end_to_end(const std::string& name, double value, std::size_t samples) {
    set(e2e_, kEndToEnd, "end_to_end", name, value, samples);
  }
  /// A per-layer metric (a name of kPerLayer).
  void per_layer(const std::string& name, double value, std::size_t samples) {
    set(layer_, kPerLayer, "per_layer", name, value, samples);
  }
  /// A workload-specific end-to-end figure, printed under its own name;
  /// the JSON carries it under its generic end-to-end name.
  void named(const std::string& name, double value, const std::string& unit,
             std::size_t samples) {
    print("metric", name, value, unit.c_str(), samples);
  }
  /// One correctness gate: counts one attempt, and one failure when !ok.
  void gate(const std::string& what, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) {
      ++failed;
      gates_ok_ = false;
    }
    std::printf("gate       %-36s %s %s\n", what.c_str(), ok ? "PASS" : "FAIL",
                detail.c_str());
    std::fflush(stdout);
  }
  [[nodiscard]] bool gates_ok() const { return gates_ok_; }
  /// name -> value of the metrics set so far.
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& e2e() const {
    return e2e_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& layer()
      const {
    return layer_;
  }

 private:
  template <std::size_t N>
  static void set(std::vector<std::pair<std::string, double>>& dst,
                  const Metric (&table)[N], const char* kind,
                  const std::string& name, double value, std::size_t samples) {
    const auto it = std::find_if(std::begin(table), std::end(table),
                                 [&](const Metric& m) { return name == m.name; });
    if (it == std::end(table)) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      std::abort();
    }
    print(kind, name, value, it->unit, samples);
    dst.emplace_back(name, value);
  }
  static void print(const char* kind, const std::string& name, double value,
                    const char* unit, std::size_t samples) {
    std::printf("%-10s %-36s %.6g %s (n=%zu)\n", kind, name.c_str(), value,
                unit, samples);
    std::fflush(stdout);
  }
  bool gates_ok_ = true;
  std::vector<std::pair<std::string, double>> e2e_;
  std::vector<std::pair<std::string, double>> layer_;
};

/// Workload entry points (one translation unit each).
void run_place_dense(const Args& args, Report& rep);
void run_eco_sizing(const Args& args, Report& rep);
void run_serve_mixed(const Args& args, Report& rep);

}  // namespace perfbench
