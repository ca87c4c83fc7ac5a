// eco_sizing: the paper's Fig. 7 ECO loop as INSTA-Size drives it. One
// caller thread, top_k 8, one corner. Each iteration takes the next resize
// of a seeded changelist, estimates it, applies it under a Transaction,
// re-times incrementally, and keeps it only if setup TNS improved; every
// 8th iteration also pulls TNS gradients (the weight-reuse path). Time goes
// to the live-plane frontier-sparse walk, Transaction undo and the delta
// folds; each pass is a few ms, so thread-pool dispatch cost shows.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gen/changelist.hpp"
#include "setup.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kTopK = 8;
/// Iterations whose accept/reject decisions an independent engine replays.
constexpr std::size_t kReplay = 256;
constexpr int kChangelist = 16384;

struct EcoState {
  std::unique_ptr<World> world;
  std::unique_ptr<core::Engine> engine;  // declared last: destroyed first
};

/// One iteration's inputs and decision, kept for the replay gate.
struct Decision {
  std::vector<timing::ArcDelta> deltas;
  bool accepted = false;
};

/// Runs one ECO move on `e` under a Transaction; returns whether setup TNS
/// improved on `tns` (and commits), else rolls back.
bool try_move(core::Engine& e, std::span<const timing::ArcDelta> deltas,
              double tns) {
  core::Engine::Transaction tx = e.begin_edit();
  tx.annotate(deltas);
  e.run_forward_incremental();
  if (e.merged_summary(core::Mode::kSetup).tns > tns) {
    tx.commit();
    return true;
  }
  tx.rollback();
  return false;
}

}  // namespace

void run_eco_sizing(const Args& args, Report& rep) {
  const DesignFile design(args);
  core::EngineOptions eopt;
  eopt.top_k = kTopK;
  EcoState st;
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
  World& w = *st.world;
  // The replay engine starts from the same pre-run reference state.
  core::Engine replay(*w.sta, eopt);
  replay.run_forward();

  // One fixed changelist, visited in a seeded order: a resize's cost is
  // heavy-tailed, and a changelist drawn per seed moved the run's mean
  // iteration time between seeds by more than the run-to-run noise.
  util::Rng fixed_rng(0xec0);
  std::vector<gen::Resize> changes =
      gen::random_changelist(*w.loaded.design, *w.graph, fixed_rng, kChangelist);
  util::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0xec0);
  std::shuffle(changes.begin(), changes.end(), rng);

  OpSamples samples;
  std::vector<double> sparse_ms_all;
  std::vector<Decision> decisions;
  std::uint64_t frontier = 0;
  std::uint64_t early = 0;
  std::uint64_t eps = 0;
  std::uint64_t passes = 0;
  std::uint64_t w_reused = 0;
  std::uint64_t w_recomputed = 0;
  std::uint64_t accepts = 0;
  std::uint64_t replay_accepts = 0;
  double tns = e.merged_summary(core::Mode::kSetup).tns;

  const PoolWindow pool;
  const std::int64_t start = now_ns();
  const auto window_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  // p99 needs 10 samples beyond it (in each half of a traced run).
  const std::uint64_t min_iters = args.trace ? 2000 : 1000;
  std::uint64_t iters = 0;
  for (;;) {
    const std::int64_t elapsed = now_ns() - start;
    if ((elapsed >= window_ns && iters >= min_iters) ||
        elapsed >= 3 * window_ns) {
      break;
    }
    const gen::Resize& rz = changes[iters % changes.size()];
    // Traced and untraced stretches alternate in blocks of 8 iterations,
    // so each holds the same share of backward (every 8th) iterations.
    const bool traced = args.trace && (iters / 8) % 2 == 1;
    Tracer::global().set_enabled(traced);
    bool accepted = false;
    std::vector<timing::ArcDelta> deltas;
    const std::int64_t t0 = now_ns();
    {
      const OpScope op(iters + 1);
      const ScopedSpan it("bench.iteration");
      {
        const ScopedSpan s("timing.estimate_eco");
        deltas = w.calc->estimate_eco(rz.cell, rz.new_libcell);
      }
      std::optional<core::Engine::Transaction> tx;
      {
        const ScopedSpan s("core.txn_annotate");
        tx.emplace(e.begin_edit());
        tx->annotate(deltas);
      }
      const std::int64_t f0 = now_ns();
      {
        const ScopedSpan s("core.forward_sparse");
        e.run_forward_incremental();
      }
      sparse_ms_all.push_back(static_cast<double>(now_ns() - f0) * 1e-6);
      const core::Engine::SparseStats& ps = e.last_pass_stats();
      frontier += ps.frontier_pins;
      early += ps.early_terminations;
      eps += ps.endpoints_evaluated;
      ++passes;
      double after = 0.0;
      {
        const ScopedSpan s("core.merged_summary");
        after = e.merged_summary(core::Mode::kSetup).tns;
      }
      if (after > tns) {
        accepted = true;
        tns = after;
        {
          const ScopedSpan s("core.commit");
          tx->commit();
        }
        const ScopedSpan s("timing.update_for_resize");
        w.loaded.design->resize_cell(rz.cell, rz.new_libcell);
        (void)w.calc->update_for_resize(rz.cell, w.sta->mutable_delays());
      } else {
        const ScopedSpan s("core.rollback");
        tx->rollback();
      }
      if (iters % 8 == 7) {
        const ScopedSpan s("core.backward_sparse");
        e.run_backward(core::GradientMetric::kTns);
        const core::Engine::BackwardStats& bs = e.last_backward_stats();
        w_reused += bs.weight_pins_reused;
        w_recomputed += bs.weight_pins_recomputed;
      }
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    (traced ? samples.traced_ms : samples.untraced_ms).push_back(ms);
    (traced ? samples.traced_sec : samples.untraced_sec) += ms * 1e-3;
    if (accepted) ++accepts;
    if (decisions.size() < kReplay) {
      decisions.push_back({std::move(deltas), accepted});
      if (accepted) ++replay_accepts;
    }
    ++iters;
  }
  Tracer::global().set_enabled(false);
  rep.attempted += iters;
  std::printf("info       eco_sizing %llu iterations, %llu accepted, final "
              "TNS %.3f ps\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(accepts), tns);

  report_ops(args, rep, samples,
             {"eco_iters_per_s", "eco_iter_p50_ms", "eco_iter_p99_ms", 0.99});

  if (args.trace) {
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto np = static_cast<double>(passes);
    rep.per_layer("core.memory_mb",
                  static_cast<double>(e.memory_bytes()) / (1 << 20), 1);
    rep.per_layer("core.forward_sparse_p99_ms", quantile(sparse_ms_all, 0.99),
                  sparse_ms_all.size());
    rep.per_layer("core.frontier_pins_per_pass",
                  ratio(static_cast<double>(frontier), np), passes);
    rep.per_layer("core.early_term_ratio",
                  ratio(static_cast<double>(early), static_cast<double>(frontier)),
                  passes);
    rep.per_layer("core.endpoints_evaluated_per_pass",
                  ratio(static_cast<double>(eps), np), passes);
    rep.per_layer("core.weight_reuse_ratio",
                  ratio(static_cast<double>(w_reused),
                        static_cast<double>(w_reused + w_recomputed)),
                  iters / 8);
    rep.per_layer("eco.accept_ratio",
                  ratio(static_cast<double>(replay_accepts),
                        static_cast<double>(decisions.size())),
                  decisions.size());
    rep.per_layer("util.pool.utilization_pct", pool.utilization_pct(), iters);
    const std::vector<SpanRecord> spans = Tracer::global().collect();
    const auto sums = summarize_spans(spans);
    for (const char* step :
         {"timing.estimate_eco", "core.txn_annotate", "core.forward_sparse",
          "core.commit", "core.rollback", "timing.update_for_resize",
          "core.backward_sparse"}) {
      const std::vector<double> d = span_ms(sums, step);
      rep.per_layer(std::string(step) + "_ms", median(d), d.size());
    }
    report_self_shares(rep, spans);
    dump_spans(args);
  }

  // Gate 1: the sparse-maintained endpoint slacks equal a dense pass.
  std::vector<float> sparse(e.endpoint_slacks().begin(), e.endpoint_slacks().end());
  e.run_forward();
  std::vector<float> dense(e.endpoint_slacks().begin(), e.endpoint_slacks().end());
  if (args.corrupt_reference) corrupt_one(dense);
  const std::size_t bad = bitwise_mismatches(sparse, dense);
  rep.gate("eco_sizing.sparse_vs_dense", bad == 0,
           "mismatches=" + std::to_string(bad) + "/" +
               std::to_string(dense.size()));

  // Gate 2: an independent engine given the same moves from the same
  // pre-run state makes the same accept/reject decisions, so the accept
  // count of a seed repeats exactly.
  double rtns = replay.merged_summary(core::Mode::kSetup).tns;
  std::size_t diverged = 0;
  std::uint64_t again = 0;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const bool acc = try_move(replay, decisions[i].deltas, rtns);
    if (acc) {
      rtns = replay.merged_summary(core::Mode::kSetup).tns;
      ++again;
    }
    const bool expect = args.corrupt_reference && i == 0
                            ? !decisions[i].accepted
                            : decisions[i].accepted;
    if (acc != expect) ++diverged;
  }
  rep.gate("eco_sizing.accepts_replayed", diverged == 0 && again == replay_accepts,
           "accepted=" + std::to_string(again) + "/" +
               std::to_string(decisions.size()) +
               " diverged=" + std::to_string(diverged));
}

}  // namespace perfbench
