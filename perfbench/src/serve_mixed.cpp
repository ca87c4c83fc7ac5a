// serve_mixed: the what-if service as `insta_cli serve` runs it by default
// (top_k 32, 200 us batch window, 256-entry what-if cache) behind a
// Unix-socket Server in this process, with an in-process read-only replica.
//
// Traffic, over four NetClient connections:
//  * 3 readers, closed loop (the service's callers are optimisation loops
//    that each wait for a reply): ~75 % whatif, ~15 % summary, ~10 %
//    endpoints worst 50. A quarter of the what-ifs re-ask a hot set of 16
//    scenarios; the rest are fresh and never repeat within a run. The split
//    bounds the cache hit share so the median lands in the evaluation
//    path: bench_serve's 32-scenario pool, smaller than the 256-entry
//    cache, measured only cache hits.
//  * 1 editor, open loop at 4 commits/s (edits come from an independent
//    user): begin_edit + 4 resize annotates + commit, timed from when the
//    commit was due; then it pulls delta_stream, decodes it and applies it
//    to the replica.
// Writes run beside reads, so a read-path gain that slows commits shows,
// and so does the reverse.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/changelist.hpp"
#include "replica/codec.hpp"
#include "replica/replica.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "setup.hpp"
#include "telemetry/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using telemetry::JsonValue;
using Scenario = std::vector<timing::ArcDelta>;

constexpr int kReaders = 3;
constexpr int kHotSet = 16;
constexpr int kPool = 2048;
constexpr int kResizesPerCommit = 4;
constexpr double kCommitPeriodMs = 250.0;  // 4 commits/s
constexpr double kSliceMs = 250.0;         // traced/untraced alternation
constexpr double kTimeoutMs = 2000.0;      // a slower reply counts as failed

/// Writer and replica stacks of one set-up, destroyed in reverse order.
struct ServeStack {
  std::unique_ptr<World> world;
  std::unique_ptr<core::Engine> writer;
  std::unique_ptr<serve::TimingService> service;
  std::unique_ptr<serve::Server> server;  // destructor stops and joins
  std::unique_ptr<core::Engine> replica_engine;
  std::unique_ptr<serve::TimingService> replica;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string deltas_json(const Scenario& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    const timing::ArcDelta& d = s[i];
    if (i != 0) out += ", ";
    out += "{\"arc\": " + std::to_string(d.arc) + ", \"mu\": [" +
           num(d.mu[0]) + ", " + num(d.mu[1]) + "], \"sigma\": [" +
           num(d.sigma[0]) + ", " + num(d.sigma[1]) + "]}";
  }
  return out + "]";
}

std::string whatif_line(std::uint64_t id, const std::vector<Scenario>& ss) {
  std::string out = "{\"id\": " + std::to_string(id) +
                    ", \"op\": \"whatif\", \"scenarios\": [";
  for (std::size_t i = 0; i < ss.size(); ++i) {
    if (i != 0) out += ", ";
    out += "{\"deltas\": " + deltas_json(ss[i]) + "}";
  }
  return out + "]}";
}

/// The parsed reply; `ok` false on an error reply or unparseable line.
struct Reply {
  bool ok = false;
  std::string code;  ///< error code of a failed reply
  JsonValue doc;
  const JsonValue* result = nullptr;
  double server_us(const char* part) const {
    const JsonValue* su = doc.find("server_us");
    const JsonValue* v = su == nullptr ? nullptr : su->find(part);
    return v != nullptr && v->is_number() ? v->number : 0.0;
  }
};

Reply parse_reply(const std::string& line) {
  Reply r;
  std::string err;
  if (!telemetry::json_parse(line, r.doc, err) || !r.doc.is_object()) {
    return r;
  }
  const JsonValue* ok = r.doc.find("ok");
  r.ok = ok != nullptr && ok->type == JsonValue::Type::kBool && ok->boolean;
  r.result = r.doc.find("result");
  if (!r.ok) {
    const JsonValue* e = r.doc.find("error");
    const JsonValue* c = e == nullptr ? nullptr : e->find("code");
    if (c != nullptr && c->is_string()) r.code = c->string;
  }
  return r;
}

double number_or(const JsonValue* obj, const char* key, double fallback) {
  const JsonValue* v = obj == nullptr ? nullptr : obj->find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

/// The "result" member of a reply line, byte for byte (the server_us member
/// after it differs between any two replies).
std::string result_body(const std::string& line) {
  const std::string open = "\"result\": ";
  const std::string close = ", \"server_us\": ";
  const std::size_t a = line.find(open);
  const std::size_t b = line.rfind(close);
  if (a == std::string::npos || b == std::string::npos || b < a) return {};
  return line.substr(a + open.size(), b - a - open.size());
}

/// Every "setup" summary object of a whatif reply, in result order.
std::vector<std::string> setup_bodies(const std::string& line) {
  std::vector<std::string> out;
  const std::string key = "\"setup\": ";
  for (std::size_t p = line.find(key); p != std::string::npos;
       p = line.find(key, p + 1)) {
    const std::size_t a = p + key.size();
    const std::size_t b = line.find('}', a);
    if (b == std::string::npos) break;
    out.push_back(line.substr(a, b - a + 1));
  }
  return out;
}

/// Samples one client thread collects; merged after the threads join.
struct ClientStats {
  std::vector<double> whatif_ms[2];  ///< [traced]
  std::vector<double> read_ms[2];
  std::vector<double> wire_us, queue_us, batch_us, eval_us;
  std::vector<double> ser_whatif_us, ser_summary_us, ser_endpoints_us;
  double frontier_pins = 0.0;
  double overlay_bytes = 0.0;
  std::uint64_t whatif_results = 0;
  // Editor only.
  std::vector<double> commit_ms[2];
  std::vector<double> lag_ms[2];
  std::vector<double> commit_us, delta_stream_us, decode_us, apply_us;
  std::vector<double> lateness_ms;
  double delta_bytes = 0.0;
  std::uint64_t deltas = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};

void merge(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Sends one request and books its outcome; returns the raw reply line, or
/// empty on a failure.
std::string call(replica::NetClient& c, const std::string& line,
                 const char* span, ClientStats& st, double* rtt_ms,
                 Reply* out) {
  ++st.attempted;
  std::string reply;
  const std::int64_t t0 = now_ns();
  {
    const ScopedSpan s(span);
    reply = c.request(line);
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  Reply r = parse_reply(reply);
  if (!r.ok || ms > kTimeoutMs) {
    ++st.failed;
    if (r.code == "overloaded") ++st.shed;
    return {};
  }
  st.wire_us.push_back(ms * 1e3 - r.server_us("total"));
  if (rtt_ms != nullptr) *rtt_ms = ms;
  if (out != nullptr) *out = std::move(r);
  return reply;
}

}  // namespace

void run_serve_mixed(const Args& args, Report& rep) {
  const DesignFile design(args);
  const std::string sock =
      args.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::string endpoint = "unix:" + sock;
  core::EngineOptions eopt;  // insta_cli serve defaults: top_k 32, 1 corner
  eopt.top_k = 32;
  const serve::ServiceOptions sopt;
  serve::ServiceOptions ropt;
  ropt.read_only = true;
  serve::ServerOptions nopt;
  nopt.unix_path = sock;

  std::unique_ptr<ServeStack> st;
  run_setups(args, rep, [&] {
    st.reset();
    st = std::make_unique<ServeStack>();
    SetupTimes t;
    const std::int64_t t0 = now_ns();
    st->world = load_world(design.path(), t);
    timed("core.engine_init", t.engine_init_s, [&] {
      st->writer = std::make_unique<core::Engine>(*st->world->sta, eopt);
    });
    timed("core.first_forward", t.first_forward_s,
          [&] { st->writer->run_forward(); });
    timed("serve.start", t.serve_start_s, [&] {
      st->service = std::make_unique<serve::TimingService>(*st->writer, sopt);
      st->server = std::make_unique<serve::Server>(*st->service, nopt);
      st->server->start();
    });
    timed("core.engine_init", t.engine_init_s, [&] {
      st->replica_engine = std::make_unique<core::Engine>(*st->world->sta, eopt);
    });
    timed("core.first_forward", t.first_forward_s,
          [&] { st->replica_engine->run_forward(); });
    // A replica built from the same design catches up through the delta
    // chain (empty at start), exactly as `insta_cli serve --replica-of`
    // boots; the full-sync path is measured separately in traced runs.
    timed("replica.bootstrap", t.replica_bootstrap_s, [&] {
      st->replica =
          std::make_unique<serve::TimingService>(*st->replica_engine, ropt);
      replica::ReplicatorOptions o;
      o.upstream = endpoint;
      replica::Replicator(*st->replica, o).bootstrap();
    });
    // Set-up ends at the first answer a client gets from the fleet.
    replica::NetClient probe(endpoint);
    if (!parse_reply(probe.request("{\"id\": 2, \"op\": \"summary\"}")).ok) {
      throw std::runtime_error("serve_mixed: first summary request failed");
    }
    t.total_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return t;
  });
  World& w = *st->world;

  // Inputs (untimed), single-resize what-ifs estimated on the pre-run
  // design. The hot set, the fresh pool and the editor's edits are the same
  // for every seed; the seed drives each reader's op mix, its picks from
  // the hot set and the pool, and the fresh drive factors. A what-if's cost
  // follows its frontier, which is heavy-tailed: drawing the sets per seed
  // moved the medians by 20-30 % between seeds.
  const auto scenarios = [&](util::Rng& r, int count) {
    std::vector<Scenario> out;
    for (const gen::Resize& rz :
         gen::random_changelist(*w.loaded.design, *w.graph, r, count)) {
      Scenario s = w.calc->estimate_eco(rz.cell, rz.new_libcell);
      if (!s.empty()) out.push_back(std::move(s));
    }
    return out;
  };
  util::Rng fixed_rng(0x5e7e);
  std::vector<Scenario> hot = scenarios(fixed_rng, 4 * kHotSet);
  hot.resize(std::min<std::size_t>(hot.size(), kHotSet));
  const auto max_commits =
      static_cast<int>(args.seconds * 1000.0 / kCommitPeriodMs) + 2;
  const std::vector<gen::Resize> edits = gen::random_changelist(
      *w.loaded.design, *w.graph, fixed_rng, max_commits * kResizesPerCommit);
  const std::vector<Scenario> pool = scenarios(fixed_rng, kPool);
  // The shadow engine replays the committed edits for the what-if gate.
  core::Engine shadow(*w.sta, eopt);
  shadow.run_forward();

  const serve::ServiceStats svc0 = st->service->stats();
  const replica::WhatifCacheStats cache0 = st->service->cache_stats();
  const PoolWindow pool_window;
  std::atomic<bool> stop{false};
  const std::int64_t start = now_ns();
  const auto window_ns = static_cast<std::int64_t>(args.seconds * 1e9);

  std::vector<ClientStats> reader_stats(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ClientStats& cs = reader_stats[static_cast<std::size_t>(r)];
      try {
        replica::NetClient c(endpoint);
        util::Rng rr(args.seed * 1000003ULL + static_cast<std::uint64_t>(r));
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t id =
              (static_cast<std::uint64_t>(r + 1) << 32) | ++n;
          const OpScope op(id);
          const bool traced = Tracer::global().enabled();
          const double u = rr.uniform();
          double ms = 0.0;
          Reply reply;
          if (u < 0.75) {
            Scenario s;
            if (rr.chance(0.25)) {
              s = hot[static_cast<std::size_t>(rr.uniform_int(
                  0, static_cast<std::int64_t>(hot.size()) - 1))];
            } else {
              // Fresh: a pool resize at a drive strength never asked before.
              s = pool[static_cast<std::size_t>(rr.uniform_int(
                  0, static_cast<std::int64_t>(pool.size()) - 1))];
              const double f = rr.uniform(0.9, 1.1);
              for (timing::ArcDelta& d : s) {
                for (int rf = 0; rf < 2; ++rf) {
                  d.mu[rf] *= f;
                  d.sigma[rf] *= f;
                }
              }
            }
            if (call(c, whatif_line(id, {s}), "serve.whatif", cs, &ms, &reply)
                    .empty()) {
              continue;
            }
            cs.whatif_ms[traced].push_back(ms);
            cs.queue_us.push_back(reply.server_us("queue"));
            cs.batch_us.push_back(reply.server_us("batch"));
            cs.eval_us.push_back(reply.server_us("eval"));
            cs.ser_whatif_us.push_back(reply.server_us("serialize"));
            const JsonValue* res =
                reply.result == nullptr ? nullptr : reply.result->find("results");
            if (res != nullptr && res->is_array()) {
              for (const JsonValue& one : res->array) {
                cs.frontier_pins += number_or(&one, "frontier_pins", 0.0);
                cs.overlay_bytes += number_or(&one, "overlay_bytes", 0.0);
                ++cs.whatif_results;
              }
            }
          } else {
            const bool summary = u < 0.90;
            const std::string line =
                summary ? "{\"id\": " + std::to_string(id) +
                              ", \"op\": \"summary\"}"
                        : "{\"id\": " + std::to_string(id) +
                              ", \"op\": \"endpoints\", \"worst\": 50}";
            if (call(c, line, summary ? "serve.summary" : "serve.endpoints", cs,
                     &ms, &reply)
                    .empty()) {
              continue;
            }
            cs.read_ms[traced].push_back(ms);
            (summary ? cs.ser_summary_us : cs.ser_endpoints_us)
                .push_back(reply.server_us("serialize"));
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: reader %d: %s\n", r, e.what());
        ++cs.attempted;
        ++cs.failed;
      }
    });
  }

  ClientStats editor_stats;
  std::vector<Scenario> committed;
  threads.emplace_back([&] {
    ClientStats& cs = editor_stats;
    try {
      replica::NetClient c(endpoint);
      std::uint64_t rep_gen = st->replica->snapshot()->version;
      for (int k = 0; k < max_commits; ++k) {
        const std::int64_t due =
            start + static_cast<std::int64_t>((0.5 + k) * kCommitPeriodMs * 1e6);
        if (due >= start + window_ns) break;
        std::vector<Scenario> sets;
        Scenario all;
        for (int j = 0; j < kResizesPerCommit; ++j) {
          const gen::Resize& rz =
              edits[static_cast<std::size_t>(k * kResizesPerCommit + j)];
          sets.push_back(w.calc->estimate_eco(rz.cell, rz.new_libcell));
          all.insert(all.end(), sets.back().begin(), sets.back().end());
        }
        while (now_ns() < due) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::max<std::int64_t>(1, (due - now_ns()) / 1000)));
        }
        const std::int64_t t_start = now_ns();
        cs.lateness_ms.push_back(static_cast<double>(t_start - due) * 1e-6);
        const bool traced = Tracer::global().enabled();
        const OpScope op((std::uint64_t{1} << 48) | static_cast<std::uint64_t>(k + 1));
        Reply commit;
        bool ok = false;
        {
          const ScopedSpan s("serve.edit");
          ok = !call(c, "{\"op\": \"begin_edit\"}", "serve.begin_edit", cs,
                     nullptr, nullptr)
                    .empty();
          for (const Scenario& set : sets) {
            ok = ok && !call(c,
                             "{\"op\": \"annotate\", \"deltas\": " +
                                 deltas_json(set) + "}",
                             "serve.annotate", cs, nullptr, nullptr)
                            .empty();
          }
          ok = ok && !call(c, "{\"op\": \"commit\"}", "serve.commit", cs,
                           nullptr, &commit)
                          .empty();
        }
        if (!ok) continue;
        const std::int64_t t_commit = now_ns();
        cs.commit_ms[traced].push_back(static_cast<double>(t_commit - due) * 1e-6);
        cs.commit_us.push_back(commit.server_us("total"));
        committed.push_back(std::move(all));

        // Replication: pull the new deltas, decode, apply to the replica.
        Reply ds;
        double ds_ms = 0.0;
        if (call(c, "{\"op\": \"delta_stream\", \"from\": " +
                        std::to_string(rep_gen) + "}",
                 "replica.delta_stream", cs, &ds_ms, &ds)
                .empty()) {
          continue;
        }
        cs.delta_stream_us.push_back(ds_ms * 1e3);
        std::vector<replica::CommitRecord> recs;
        bool good = true;
        const std::int64_t d0 = now_ns();
        {
          const ScopedSpan s("replica.decode");
          const JsonValue* arr =
              ds.result == nullptr ? nullptr : ds.result->find("deltas");
          good = arr != nullptr && arr->is_array() && !arr->array.empty();
          for (std::size_t i = 0; good && i < arr->array.size(); ++i) {
            std::string frame;
            replica::CommitRecord rec;
            good = arr->array[i].is_string() &&
                   replica::base64_decode(arr->array[i].string, frame) &&
                   replica::decode_delta(frame, rec).empty();
            cs.delta_bytes += static_cast<double>(frame.size());
            ++cs.deltas;
            recs.push_back(std::move(rec));
          }
        }
        const std::int64_t d1 = now_ns();
        {
          const ScopedSpan s("replica.apply");
          for (const replica::CommitRecord& rec : recs) {
            good = good && st->replica->apply_commit(rec).ok();
            rep_gen = rec.generation;
          }
        }
        const std::int64_t d2 = now_ns();
        ++cs.attempted;
        if (!good) {
          ++cs.failed;
          continue;
        }
        cs.decode_us.push_back(static_cast<double>(d1 - d0) * 1e-3);
        cs.apply_us.push_back(static_cast<double>(d2 - d1) * 1e-3);
        cs.lag_ms[traced].push_back(static_cast<double>(d2 - t_commit) * 1e-6);
        // Keep the editor's design in step with what it committed.
        for (int j = 0; j < kResizesPerCommit; ++j) {
          const gen::Resize& rz =
              edits[static_cast<std::size_t>(k * kResizesPerCommit + j)];
          w.loaded.design->resize_cell(rz.cell, rz.new_libcell);
          (void)w.calc->update_for_resize(rz.cell, w.sta->mutable_delays());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: editor: %s\n", e.what());
      ++cs.attempted;
      ++cs.failed;
    }
  });

  // Alternate traced and untraced slices (traced runs only).
  double traced_sec = 0.0;
  double untraced_sec = 0.0;
  for (int slice = 0;; ++slice) {
    const std::int64_t now = now_ns();
    if (now - start >= window_ns) break;
    const bool traced = args.trace && slice % 2 == 1;
    Tracer::global().set_enabled(traced);
    const std::int64_t until = std::min(
        start + window_ns, now + static_cast<std::int64_t>(kSliceMs * 1e6));
    std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
    (traced ? traced_sec : untraced_sec) +=
        static_cast<double>(now_ns() - now) * 1e-9;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  Tracer::global().set_enabled(false);

  ClientStats all;
  for (const ClientStats* cs : {&reader_stats[0], &reader_stats[1],
                                &reader_stats[2], &editor_stats}) {
    for (int tr = 0; tr < 2; ++tr) {
      merge(all.whatif_ms[tr], cs->whatif_ms[tr]);
      merge(all.read_ms[tr], cs->read_ms[tr]);
      merge(all.commit_ms[tr], cs->commit_ms[tr]);
      merge(all.lag_ms[tr], cs->lag_ms[tr]);
    }
    merge(all.wire_us, cs->wire_us);
    merge(all.queue_us, cs->queue_us);
    merge(all.batch_us, cs->batch_us);
    merge(all.eval_us, cs->eval_us);
    merge(all.ser_whatif_us, cs->ser_whatif_us);
    merge(all.ser_summary_us, cs->ser_summary_us);
    merge(all.ser_endpoints_us, cs->ser_endpoints_us);
    all.frontier_pins += cs->frontier_pins;
    all.overlay_bytes += cs->overlay_bytes;
    all.whatif_results += cs->whatif_results;
    all.attempted += cs->attempted;
    all.failed += cs->failed;
    all.shed += cs->shed;
  }
  rep.attempted += all.attempted;
  rep.failed += all.failed;
  std::printf("info       serve_mixed %llu requests, %llu failed (%llu shed), "
              "%zu commits\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.shed), committed.size());

  OpSamples samples;
  samples.untraced_ms = all.whatif_ms[0];
  samples.traced_ms = all.whatif_ms[1];
  samples.untraced_sec = untraced_sec;
  samples.traced_sec = traced_sec;
  report_ops(args, rep, samples,
             {"whatif_qps", "whatif_p50_ms", "whatif_p99_ms", 0.99});
  const double read_p99 = quantile(all.read_ms[0], 0.99);
  const double commit_p50 = median(all.commit_ms[0]);
  const double lag_p50 = median(all.lag_ms[0]);
  rep.named("read_p99_ms", read_p99, "ms", all.read_ms[0].size());
  rep.named("commit_p50_ms", commit_p50, "ms", all.commit_ms[0].size());
  rep.named("replica_lag_p50_ms", lag_p50, "ms", all.lag_ms[0].size());

  if (args.trace) {
    const serve::ServiceStats svc1 = st->service->stats();
    const replica::WhatifCacheStats cache1 = st->service->cache_stats();
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const ClientStats& ed = editor_stats;
    rep.per_layer("core.memory_mb",
                  static_cast<double>(st->writer->memory_bytes()) / (1 << 20),
                  1);
    rep.per_layer("serve.wire_us", median(all.wire_us), all.wire_us.size());
    rep.per_layer("serve.queue_us_p99", quantile(all.queue_us, 0.99),
                  all.queue_us.size());
    rep.per_layer("serve.batch_us_p99", quantile(all.batch_us, 0.99),
                  all.batch_us.size());
    rep.per_layer("serve.eval_us", median(all.eval_us), all.eval_us.size());
    rep.per_layer("serve.batch_occupancy",
                  ratio(static_cast<double>(svc1.whatif_scenarios -
                                            svc0.whatif_scenarios),
                        static_cast<double>(svc1.batches - svc0.batches)),
                  svc1.batches - svc0.batches);
    rep.per_layer("core.scenario_frontier_pins",
                  ratio(all.frontier_pins, static_cast<double>(all.whatif_results)),
                  all.whatif_results);
    rep.per_layer("core.scenario_overlay_kb",
                  ratio(all.overlay_bytes / 1024.0,
                        static_cast<double>(all.whatif_results)),
                  all.whatif_results);
    rep.per_layer("serve.serialize_us.whatif", median(all.ser_whatif_us),
                  all.ser_whatif_us.size());
    rep.per_layer("serve.serialize_us.summary", median(all.ser_summary_us),
                  all.ser_summary_us.size());
    rep.per_layer("serve.serialize_us.endpoints", median(all.ser_endpoints_us),
                  all.ser_endpoints_us.size());
    const auto hits = static_cast<double>(cache1.hits - cache0.hits);
    const auto misses = static_cast<double>(cache1.misses - cache0.misses);
    rep.per_layer("serve.cache_hit_ratio", ratio(hits, hits + misses),
                  static_cast<std::size_t>(hits + misses));
    rep.per_layer("serve.commit_us", median(ed.commit_us), ed.commit_us.size());
    rep.per_layer("replica.delta_stream_us", median(ed.delta_stream_us),
                  ed.delta_stream_us.size());
    rep.per_layer("replica.decode_us", median(ed.decode_us), ed.decode_us.size());
    rep.per_layer("replica.apply_us", median(ed.apply_us), ed.apply_us.size());
    rep.per_layer("replica.delta_bytes",
                  ratio(ed.delta_bytes, static_cast<double>(ed.deltas)),
                  ed.deltas);
    rep.per_layer("serve.shed", static_cast<double>(all.shed), all.attempted);
    rep.per_layer("serve.editor_lateness_ms",
                  ed.lateness_ms.empty()
                      ? 0.0
                      : *std::max_element(ed.lateness_ms.begin(),
                                          ed.lateness_ms.end()),
                  ed.lateness_ms.size());
    rep.per_layer("serve.read_p99_ms", read_p99, all.read_ms[0].size());
    rep.per_layer("serve.commit_p50_ms", commit_p50, all.commit_ms[0].size());
    rep.per_layer("replica.lag_p50_ms", lag_p50, all.lag_ms[0].size());
    rep.per_layer("util.pool.utilization_pct", pool_window.utilization_pct(),
                  all.attempted);
    report_self_shares(rep, Tracer::global().collect());
    dump_spans(args);
  }

  // Gate 1: after drain, the replica answers summary and endpoints byte for
  // byte like the writer.
  replica::NetClient gate_client(endpoint);
  serve::Dispatcher replica_dispatch(*st->replica);
  const std::string all_eps = std::to_string(w.graph->endpoints().size());
  for (const std::string& line :
       {std::string("{\"id\": 9, \"op\": \"summary\"}"),
        "{\"id\": 9, \"op\": \"endpoints\", \"worst\": " + all_eps + "}"}) {
    std::string writer_body = result_body(gate_client.request(line));
    const std::string replica_body =
        result_body(replica_dispatch.dispatch(line));
    if (args.corrupt_reference && !writer_body.empty()) writer_body.back() = '#';
    rep.gate(std::string("serve_mixed.replica_vs_writer.") +
                 (line.find("summary") != std::string::npos ? "summary"
                                                            : "endpoints"),
             !writer_body.empty() && writer_body == replica_body,
             "bytes=" + std::to_string(writer_body.size()));
  }

  // Gate 2: a fixed sample of what-ifs, re-asked after drain, equals a
  // direct ScenarioBatch evaluation on a shadow engine that replays the
  // committed edits.
  for (const Scenario& set : committed) {
    core::Engine::Transaction tx = shadow.begin_edit();
    tx.annotate(set);
    shadow.run_forward_incremental();
    tx.commit();
  }
  std::vector<Scenario> sample = hot;
  sample.insert(sample.end(), pool.begin(),
                pool.begin() + std::min<std::size_t>(kHotSet, pool.size()));
  core::ScenarioBatch batch(shadow);
  const std::vector<core::ScenarioResult> expect = batch.evaluate(sample);
  const std::vector<std::string> got =
      setup_bodies(gate_client.request(whatif_line(10, sample)));
  std::size_t bad = got.size() == expect.size() ? 0 : expect.size();
  for (std::size_t i = 0; bad == 0 && i < expect.size(); ++i) {
    core::SlackSummary e = expect[i].setup;
    if (args.corrupt_reference && i == 0) e.tns += 1.0;
    if (serve::summary_body(e) != got[i]) ++bad;
  }
  rep.gate("serve_mixed.whatif_vs_shadow", bad == 0,
           "mismatches=" + std::to_string(bad) + "/" +
               std::to_string(expect.size()) +
               " commits=" + std::to_string(committed.size()));

  // Full-sync path of a replica that fell out of the delta window: sync
  // round trip over NetClient, decode, import. Traced runs only, after the
  // gates, because it dwarfs the rest of the run.
  if (args.trace) {
    double rtt_s = 0.0;
    double total_s = 0.0;
    timed("replica.full_sync", total_s, [&] {
      replica::NetClient c(endpoint);
      std::string line;
      timed("replica.sync_rtt", rtt_s,
            [&] { line = c.request("{\"id\": 11, \"op\": \"sync\"}"); });
      const Reply r = parse_reply(line);
      const JsonValue* snap =
          r.result == nullptr ? nullptr : r.result->find("snapshot");
      std::string frame;
      core::EngineState state;
      const bool ok = snap != nullptr && snap->is_string() &&
                      replica::base64_decode(snap->string, frame) &&
                      replica::decode_snapshot(frame, state).empty() &&
                      st->replica->import_state(state).ok();
      rep.gate("serve_mixed.replica_full_sync", ok,
               "snapshot_bytes=" + std::to_string(frame.size()));
    });
    rep.per_layer("replica.full_sync_s", total_s, 1);
    rep.per_layer("replica.sync_rtt_s", rtt_s, 1);
  }
}

}  // namespace perfbench
