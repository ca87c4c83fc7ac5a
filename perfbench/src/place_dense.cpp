// place_dense: the INSTA-Place gradient loop. One caller thread, top_k 32,
// two corners. Every iteration moves every cell (rescales every data net
// arc by a seeded factor), re-times the whole graph densely, reads the
// merged summary, and pulls TNS gradients for both corners. Time goes to
// the dense Top-K merge, endpoint evaluation + CPPR, the backward softmax
// and the level-parallel pool; frontier, Transaction and serve stay idle.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "setup.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

core::EngineOptions dense_options() {
  core::EngineOptions o;
  o.top_k = 32;
  o.corners = insta::bench::mcmm_corners(2);
  return o;
}

/// The data net arcs a placement step moves, at their baseline delays.
std::vector<timing::ArcDelta> data_net_arcs(const World& w) {
  std::vector<timing::ArcDelta> out;
  const timing::TimingGraph& g = *w.graph;
  for (std::size_t i = 0; i < g.num_arcs(); ++i) {
    const auto id = static_cast<timing::ArcId>(i);
    const timing::ArcRecord& a = g.arc(id);
    if (a.kind != timing::ArcKind::kNet || g.is_clock_network(a.from) ||
        g.is_clock_network(a.to)) {
      continue;
    }
    timing::ArcDelta d;
    d.arc = id;
    for (int rf = 0; rf < 2; ++rf) {
      d.mu[rf] = w.delays.mu[rf][i];
      d.sigma[rf] = w.delays.sigma[rf][i];
    }
    out.push_back(d);
  }
  return out;
}

struct DenseState {
  std::unique_ptr<World> world;
  std::unique_ptr<core::Engine> engine;  // declared last: destroyed first
};

}  // namespace

void run_place_dense(const Args& args, Report& rep) {
  const DesignFile design(args);
  const core::EngineOptions eopt = dense_options();
  DenseState st;
  run_setups(args, rep, [&] {
    st.engine.reset();
    st.world.reset();
    SetupTimes t;
    const std::int64_t t0 = now_ns();
    st.world = load_world(design.path(), t);
    timed("core.engine_init", t.engine_init_s, [&] {
      st.engine = std::make_unique<core::Engine>(*st.world->sta, eopt);
    });
    timed("core.first_forward", t.first_forward_s,
          [&] { st.engine->run_forward(); });
    t.total_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return t;
  });
  core::Engine& e = *st.engine;

  // Inputs: the seeded placement moves, one factor per arc per iteration.
  const std::vector<timing::ArcDelta> base = data_net_arcs(*st.world);
  if (e.check_deltas(base).has_errors()) {
    throw std::runtime_error("place_dense: data net arcs rejected by engine");
  }
  std::vector<timing::ArcDelta> deltas = base;
  util::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0x5eed);

  OpSamples samples;
  telemetry::MetricsRegistry::global().reset();
  const PoolWindow pool;
  const std::int64_t start = now_ns();
  const auto window_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  // p90 needs 10 samples beyond it in each half of a traced run.
  const std::uint64_t min_iters = args.trace ? 200 : 100;
  std::uint64_t iters = 0;
  double grad_sum = 0.0;
  core::SlackSummary summary;
  for (;;) {
    const std::int64_t elapsed = now_ns() - start;
    if ((elapsed >= window_ns && iters >= min_iters) ||
        elapsed >= 3 * window_ns) {
      break;
    }
    for (std::size_t k = 0; k < base.size(); ++k) {
      const double f = rng.uniform(0.9, 1.1);
      for (int rf = 0; rf < 2; ++rf) {
        deltas[k].mu[rf] = base[k].mu[rf] * f;
        deltas[k].sigma[rf] = base[k].sigma[rf] * f;
      }
    }
    const bool traced = args.trace && iters % 2 == 1;
    Tracer::global().set_enabled(traced);
    const std::int64_t t0 = now_ns();
    {
      const OpScope op(iters + 1);
      const ScopedSpan it("bench.iteration");
      {
        const ScopedSpan s("core.annotate_bulk");
        e.annotate(deltas);
      }
      {
        const ScopedSpan s("core.forward_dense");
        e.run_forward();
      }
      {
        const ScopedSpan s("core.merged_summary");
        summary = e.merged_summary(core::Mode::kSetup);
      }
      {
        const ScopedSpan s("core.backward");
        e.run_backward(core::GradientMetric::kTns);
      }
      {
        const ScopedSpan s("core.arc_gradients");
        for (std::size_t c = 0; c < e.num_corners(); ++c) {
          for (const float g : e.arc_gradients(static_cast<core::CornerId>(c))) {
            grad_sum += static_cast<double>(g);
          }
        }
      }
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    (traced ? samples.traced_ms : samples.untraced_ms).push_back(ms);
    (traced ? samples.traced_sec : samples.untraced_sec) += ms * 1e-3;
    ++iters;
  }
  Tracer::global().set_enabled(false);
  rep.attempted += iters;
  std::printf("info       place_dense %llu iterations, final TNS %.3f ps, "
              "gradient sum %.6g\n",
              static_cast<unsigned long long>(iters), summary.tns, grad_sum);

  report_ops(args, rep, samples,
             {"dense_iters_per_s", "dense_iter_p50_ms", "dense_iter_p90_ms", 0.90});

  if (args.trace) {
    const telemetry::MetricsSnapshot snap =
        telemetry::MetricsRegistry::global().snapshot();
    const auto n = static_cast<double>(iters);
    const double merges =
        static_cast<double>(snap.counter_or("engine.merge_ops", 0));
    rep.per_layer("core.memory_mb",
                  static_cast<double>(e.memory_bytes()) / (1 << 20), 1);
    rep.per_layer("core.merge_ops_per_iter", merges / n, iters);
    rep.per_layer("core.prune_ratio",
                  merges > 0.0 ? static_cast<double>(snap.counter_or(
                                     "engine.prune_hits", 0)) /
                                     merges
                               : 0.0,
                  iters);
    rep.per_layer(
        "core.cppr_lookups_per_iter",
        static_cast<double>(snap.counter_or("engine.cppr_lookups", 0)) / n,
        iters);
    const auto imb = snap.histograms.find("pool.chunk_imbalance_pct");
    rep.per_layer("util.pool.chunk_imbalance_pct",
                  imb == snap.histograms.end() ? 0.0
                                               : imb->second.percentile(0.5),
                  imb == snap.histograms.end() ? 0 : imb->second.count);
    rep.per_layer("util.pool.utilization_pct", pool.utilization_pct(), iters);

    const std::vector<SpanRecord> spans = Tracer::global().collect();
    const auto sums = summarize_spans(spans);
    const auto it = sums.find("bench.iteration");
    const double iter_total = it == sums.end() ? 0.0 : it->second.total_ms;
    for (const char* step : {"core.annotate_bulk", "core.forward_dense",
                             "core.backward", "core.merged_summary"}) {
      const std::vector<double> d = span_ms(sums, step);
      double total = 0.0;
      for (const double x : d) total += x;
      rep.per_layer(std::string(step) + "_ms", median(d), d.size());
      rep.per_layer(std::string(step) + "_pct",
                    iter_total > 0.0 ? 100.0 * total / iter_total : 0.0,
                    d.size());
    }
    report_self_shares(rep, spans);
    dump_spans(args);
  }

  // Gate: each corner equals an independent single-corner engine given the
  // final annotation, bit for bit, in endpoint slacks and arc gradients.
  for (std::size_t c = 0; c < e.num_corners(); ++c) {
    core::EngineOptions so;
    so.top_k = eopt.top_k;
    so.corners = {eopt.corners[c]};
    core::Engine solo(*st.world->sta, so);
    solo.annotate(deltas);
    solo.run_forward();
    solo.run_backward(core::GradientMetric::kTns);
    std::vector<float> ref_slack(solo.endpoint_slacks().begin(),
                                 solo.endpoint_slacks().end());
    std::vector<float> ref_grad(solo.arc_gradients().begin(),
                                solo.arc_gradients().end());
    if (args.corrupt_reference) {
      corrupt_one(ref_slack);
      corrupt_one(ref_grad);
    }
    const auto cid = static_cast<core::CornerId>(c);
    const std::size_t bad_s = bitwise_mismatches(e.endpoint_slacks(cid), ref_slack);
    const std::size_t bad_g = bitwise_mismatches(e.arc_gradients(cid), ref_grad);
    const std::string name = eopt.corners[c].name;
    rep.gate("place_dense." + name + ".slacks_vs_solo", bad_s == 0,
             "mismatches=" + std::to_string(bad_s) + "/" +
                 std::to_string(ref_slack.size()));
    rep.gate("place_dense." + name + ".gradients_vs_solo", bad_g == 0,
             "mismatches=" + std::to_string(bad_g) + "/" +
                 std::to_string(ref_grad.size()));
  }
}

}  // namespace perfbench
