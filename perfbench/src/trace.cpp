#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

struct Tracer::ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
};

namespace {

std::mutex g_buffers_mu;
// Buffers outlive their threads so that collect() after a join sees them.
std::vector<std::unique_ptr<Tracer::ThreadBuffer>> g_buffers;
thread_local Tracer::ThreadBuffer* t_buffer = nullptr;

}  // namespace

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lk(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *t_buffer;
}

std::vector<SpanRecord> Tracer::collect() const {
  const std::lock_guard<std::mutex> lk(g_buffers_mu);
  std::vector<SpanRecord> out;
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::size_t Tracer::bytes() const {
  const std::lock_guard<std::mutex> lk(g_buffers_mu);
  std::size_t n = 0;
  for (const auto& b : g_buffers) n += b->spans.capacity() * sizeof(SpanRecord);
  return n;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = collect();
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    f << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op << ", \"thread\": " << s.thread << "}";
  }
  f << "\n]\n";
  return f.good();
}

OpScope::OpScope(std::uint64_t op) {
  Tracer::ThreadBuffer& b = Tracer::global().buffer();
  saved_ = b.op;
  b.op = op;
}

OpScope::~OpScope() { Tracer::global().buffer().op = saved_; }

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  Tracer& t = Tracer::global();
  if (!t.enabled()) return;
  Tracer::ThreadBuffer& b = t.buffer();
  id_ = t.next_id();
  parent_ = b.open.empty() ? 0 : b.open.back();
  b.open.push_back(id_);
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  Tracer::ThreadBuffer& b = Tracer::global().buffer();
  b.open.pop_back();
  b.spans.push_back({name_, start_ns_, end, id_, parent_, b.op, b.thread});
}

std::map<std::string, SpanSummary> summarize_spans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    SpanSummary& sum = out[s.name];
    sum.dur_ms.push_back(dur);
    sum.total_ms += dur;
    sum.self_ms += dur - static_cast<double>(covered) * 1e-6;
  }
  return out;
}

}  // namespace perfbench
