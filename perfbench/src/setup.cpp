#include "setup.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"

namespace perfbench {

DesignFile::DesignFile(const Args& args) {
  // The fig7 block at full size needs ~6 GB and ~9 s for the unpruned
  // reference of every set-up; half size keeps the shape (depth, fan-in,
  // FF/gate ratio) at ~2 GB and ~2.5 s. The design keeps the preset's own
  // seed and --seed drives the workload inputs only: designs of different
  // seeds differ by 10-15 % in dense pass time and reference memory, more
  // than the run-to-run spread the bounds are set against.
  const std::int64_t t0 = now_ns();
  const int div = args.size == "smoke" ? 40 : 2;
  gen::LogicBlockSpec spec = gen::fig7_block_spec();
  spec.num_gates /= div;
  spec.num_ffs /= div;
  spec.num_inputs = std::max(4, spec.num_inputs / div);
  spec.num_outputs = std::max(4, spec.num_outputs / div);
  gen::GeneratedDesign gd = gen::build_logic_block(spec);
  const timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  gen::tune_clock_period(graph, gd.constraints, delays, 0.08);
  std::filesystem::create_directories(args.work_dir);
  path_ = args.work_dir + "/design-" + std::to_string(::getpid()) + ".inet";
  io::save_design_file(*gd.design, gd.constraints, path_);
  std::printf("info       input prep (untimed): design %zu cells, %zu pins, "
              "%zu endpoints, generated and saved in %.3f s\n",
              gd.design->num_cells(), gd.design->num_pins(),
              graph.endpoints().size(),
              static_cast<double>(now_ns() - t0) * 1e-9);
}

DesignFile::~DesignFile() {
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

std::unique_ptr<World> load_world(const std::string& path, SetupTimes& t) {
  auto w = std::make_unique<World>();
  timed("io.load_design_file", t.load_s,
        [&] { w->loaded = io::load_design_file(path); });
  timed("timing.graph", t.graph_s, [&] {
    w->graph = std::make_unique<timing::TimingGraph>(
        *w->loaded.design, w->loaded.constraints.clock_root);
  });
  timed("timing.delay_calc", t.delay_calc_s, [&] {
    w->calc =
        std::make_unique<timing::DelayCalculator>(*w->loaded.design, *w->graph);
    w->calc->compute_all(w->delays);
  });
  timed("ref.golden_update", t.golden_s, [&] {
    w->sta = std::make_unique<ref::GoldenSta>(*w->graph, w->loaded.constraints,
                                              w->delays, ref::GoldenOptions{});
    w->sta->update_full();
  });
  return w;
}

void report_setups(const Args& args, Report& rep,
                   const std::vector<SetupTimes>& times) {
  std::vector<double> untraced_total;
  double traced_total = 0.0;
  for (const SetupTimes& t : times) {
    if (t.traced) {
      traced_total = t.total_s;
    } else {
      untraced_total.push_back(t.total_s);
    }
  }
  const double setup_s = median(untraced_total);
  rep.end_to_end("setup_s", setup_s, untraced_total.size());
  if (!args.trace) return;

  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return median(v);
  };
  const std::size_t n = times.size();
  rep.per_layer("io.load_s", med(&SetupTimes::load_s), n);
  rep.per_layer("timing.graph_s", med(&SetupTimes::graph_s), n);
  rep.per_layer("timing.delay_calc_s", med(&SetupTimes::delay_calc_s), n);
  const double golden = med(&SetupTimes::golden_s);
  rep.per_layer("ref.golden_update_s", golden, n);
  rep.per_layer("ref.golden_share_pct",
                100.0 * golden / med(&SetupTimes::total_s), n);
  rep.per_layer("core.engine_init_s", med(&SetupTimes::engine_init_s), n);
  rep.per_layer("core.first_forward_s", med(&SetupTimes::first_forward_s), n);
  rep.per_layer("serve.start_s", med(&SetupTimes::serve_start_s), n);
  rep.per_layer("replica.bootstrap_s", med(&SetupTimes::replica_bootstrap_s),
                n);
  rep.per_layer("trace_overhead.setup_s", traced_total - setup_s, n);
}

void release_freed_memory() { ::malloc_trim(0); }

double PoolWindow::utilization_pct() const {
  const util::ThreadPool::PoolStats now = util::ThreadPool::global().stats();
  const double busy = now.busy_sec - start_.busy_sec;
  const double idle = now.idle_sec - start_.idle_sec;
  return busy + idle > 0.0 ? 100.0 * busy / (busy + idle) : 0.0;
}

void report_self_shares(Report& rep, const std::vector<SpanRecord>& spans) {
  std::vector<SpanRecord> window;
  for (const SpanRecord& s : spans) {
    if (s.op != 0) window.push_back(s);
  }
  std::map<std::string, double> self_by_layer;
  double total = 0.0;
  for (const auto& [name, sum] : summarize_spans(window)) {
    self_by_layer[name.substr(0, name.find('.'))] += sum.self_ms;
    total += sum.self_ms;
  }
  for (const char* layer : {"core", "timing", "serve", "replica", "bench"}) {
    const double pct =
        total > 0.0 ? 100.0 * self_by_layer[layer] / total : 0.0;
    rep.per_layer(std::string(layer) + ".self_pct", pct, window.size());
  }
}

void report_ops(const Args& args, Report& rep, const OpSamples& s,
                const OpNames& names) {
  const auto rate = [](const std::vector<double>& v, double sec) {
    return sec > 0.0 ? static_cast<double>(v.size()) / sec : 0.0;
  };
  const double ops = rate(s.untraced_ms, s.untraced_sec);
  const double p50 = median(s.untraced_ms);
  const double tail = quantile(s.untraced_ms, names.tail_q);
  const std::size_t n = s.untraced_ms.size();
  rep.end_to_end("ops_per_s", ops, n);
  rep.end_to_end("op_p50_ms", p50, n);
  rep.end_to_end("op_tail_ms", tail, n);
  rep.named(names.ops_per_s, ops, "1/s", n);
  rep.named(names.p50_ms, p50, "ms", n);
  rep.named(names.tail_ms, tail, "ms", n);
  if (!args.trace) return;
  const std::size_t nt = s.traced_ms.size();
  rep.per_layer("trace_overhead.ops_per_s", rate(s.traced_ms, s.traced_sec) - ops,
                nt);
  rep.per_layer("trace_overhead.op_p50_ms", median(s.traced_ms) - p50, nt);
  rep.per_layer("trace_overhead.op_tail_ms",
                quantile(s.traced_ms, names.tail_q) - tail, nt);
  rep.per_layer("trace_overhead.peak_rss_mb",
                static_cast<double>(Tracer::global().bytes()) / (1 << 20), nt);
}

void dump_spans(const Args& args) {
  if (!args.trace) return;
  const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (Tracer::global().write_json(path)) {
    std::printf("spans written to %s\n", path.c_str());
  }
}

std::vector<double> span_ms(const std::map<std::string, SpanSummary>& sums,
                            const char* name) {
  const auto it = sums.find(name);
  return it == sums.end() ? std::vector<double>{} : it->second.dur_ms;
}

}  // namespace perfbench
