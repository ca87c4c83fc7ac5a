// The repository benchmark driver. One run = one workload on one seeded
// design:
//
//   insta_perfbench --workload place_dense|eco_sizing|serve_mixed
//                   --seed N --seconds S --trace 0|1
//                   [--size full|smoke] [--corrupt-reference 1]
//                   [--work-dir DIR]
//
// Prints one line per metric and gate, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced run.
// Exits 1 when any operation or gate failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/memory.hpp"

namespace {

using perfbench::Args;

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      a.size = v;
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", k.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.size == "full" || a.size == "smoke");
}

/// Ends the process without a result if the run overstays its budget (a
/// hung request counts as a failed run, not a slow one).
class Watchdog {
 public:
  explicit Watchdog(double limit_sec)
      : thread_([this, limit_sec] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, std::chrono::duration<double>(limit_sec),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %.0f s, aborting\n",
                         limit_sec);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

void append_metric(std::string& out, const char* name, double value,
                   const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: insta_perfbench --workload "
                 "place_dense|eco_sizing|serve_mixed --seed N --seconds S "
                 "--trace 0|1 [--size full|smoke] [--corrupt-reference 1] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  const Watchdog watchdog(170.0);
  perfbench::Report rep;
  try {
    if (args.workload == "place_dense") {
      perfbench::run_place_dense(args, rep);
    } else if (args.workload == "eco_sizing") {
      perfbench::run_eco_sizing(args, rep);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.end_to_end("peak_rss_mb",
                 static_cast<double>(insta::util::peak_rss_bytes()) / (1 << 20),
                 1);

  // The JSON carries every metric of the run's set, in table order. An
  // end-to-end metric a run failed to measure is a failure; a layer the
  // workload does not exercise reads 0.
  std::string metrics;
  const auto emit = [&](const auto& table, const auto& values, bool required) {
    for (const perfbench::Metric& m : table) {
      double v = 0.0;
      bool found = false;
      for (const auto& [name, value] : values) {
        if (name == m.name) {
          v = value;
          found = true;
        }
      }
      if (!std::isfinite(v) || (required && !found)) {
        std::fprintf(stderr, "perfbench: metric %s not measured\n", m.name);
        ++rep.failed;
        v = 0.0;
      }
      append_metric(metrics, m.name, v, m.unit);
    }
  };
  if (args.trace) {
    emit(perfbench::kPerLayer, rep.layer(), false);
  } else {
    emit(perfbench::kEndToEnd, rep.e2e(), true);
  }
  const bool ok = rep.gates_ok() && rep.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              rep.gates_ok() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
