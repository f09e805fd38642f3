#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

struct OpenSpan {
  int64_t id;
  bool ambient;
  SpanEvent event;
};

/// Per-thread recording state. Owned by the registry (never freed: the
/// registry lives as long as the process), so pool threads that exit
/// before the snapshot leave their spans behind intact.
struct ThreadBuffer {
  int tid = 0;
  std::mutex mu;  // guards `done` against Snapshot from another thread
  std::vector<SpanEvent> done;
  std::vector<OpenSpan> open;  // touched only by the owning thread
};

struct Registry {
  std::atomic<bool> enabled{false};
  std::atomic<int64_t> next_id{1};
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> threads;
  std::vector<SpanEvent> foreign;
  // Stack of open ambient span ids (any thread), innermost last.
  std::vector<int64_t> ambient;
};

Registry& Reg() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer* ThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadBuffer>());
    buffer = reg.threads.back().get();
    buffer->tid = static_cast<int>(reg.threads.size());
  }
  return buffer;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendEvent(std::string* out, const SpanEvent& e) {
  char buf[256];
  out->append("{\"name\":");
  AppendJsonString(out, e.name);
  out->append(",\"cat\":");
  AppendJsonString(out, e.layer);
  std::snprintf(buf, sizeof(buf),
                ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                "\"tid\":%d,\"args\":{\"id\":%" PRId64 ",\"parent\":%" PRId64
                "}}",
                static_cast<double>(e.start_ns) / 1e3,
                static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.pid,
                e.tid, e.id, e.parent);
  out->append(buf);
}

}  // namespace

int64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void Tracer::Enable() { Reg().enabled.store(true); }

bool Tracer::enabled() {
  return Reg().enabled.load(std::memory_order_relaxed);
}

int64_t Tracer::Begin(const char* name, const char* layer, bool ambient) {
  Registry& reg = Reg();
  ThreadBuffer* thread = ThisThread();
  OpenSpan span;
  span.id = reg.next_id.fetch_add(1);
  span.ambient = ambient;
  span.event.name = name;
  span.event.layer = layer;
  span.event.pid = static_cast<int>(::getpid());
  span.event.tid = thread->tid;
  span.event.id = span.id;
  if (!thread->open.empty()) {
    span.event.parent = thread->open.back().id;
  } else {
    std::lock_guard<std::mutex> lock(reg.mu);
    span.event.parent = reg.ambient.empty() ? 0 : reg.ambient.back();
  }
  if (ambient) {
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.ambient.push_back(span.id);
  }
  span.event.start_ns = NowNs();
  thread->open.push_back(std::move(span));
  return thread->open.back().id;
}

void Tracer::End(int64_t id, const char* rename) {
  const int64_t now = NowNs();
  Registry& reg = Reg();
  ThreadBuffer* thread = ThisThread();
  if (thread->open.empty() || thread->open.back().id != id) {
    std::fprintf(stderr, "perfbench: unbalanced trace span %" PRId64 "\n",
                 id);
    std::abort();
  }
  OpenSpan span = std::move(thread->open.back());
  thread->open.pop_back();
  span.event.end_ns = now;
  if (rename != nullptr) span.event.name = rename;
  if (span.ambient) {
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.ambient.erase(
        std::find(reg.ambient.begin(), reg.ambient.end(), span.id));
  }
  std::lock_guard<std::mutex> lock(thread->mu);
  thread->done.push_back(std::move(span.event));
}

void Tracer::AddForeign(SpanEvent event) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.foreign.push_back(std::move(event));
}

std::vector<SpanEvent> Tracer::Snapshot() {
  Registry& reg = Reg();
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    out = reg.foreign;
    for (const auto& thread : reg.threads) {
      std::lock_guard<std::mutex> thread_lock(thread->mu);
      out.insert(out.end(), thread->done.begin(), thread->done.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

std::vector<SpanSummary> SummarizeSelfTime(
    const std::vector<SpanEvent>& events) {
  // Children per (pid, parent id); ids are only unique within a process.
  std::map<std::pair<int, int64_t>, std::vector<const SpanEvent*>> children;
  for (const SpanEvent& e : events) {
    if (e.parent != 0) children[{e.pid, e.parent}].push_back(&e);
  }
  std::map<std::pair<std::string, std::string>, SpanSummary> rows;
  for (const SpanEvent& e : events) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    if (auto it = children.find({e.pid, e.id}); it != children.end()) {
      for (const SpanEvent* child : it->second) {
        const int64_t lo = std::max(child->start_ns, e.start_ns);
        const int64_t hi = std::min(child->end_ns, e.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0, cursor = e.start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, cursor);
      if (hi > from) {
        union_ns += hi - from;
        cursor = hi;
      }
    }
    SpanSummary& row = rows[{e.layer, e.name}];
    row.layer = e.layer;
    row.name = e.name;
    ++row.count;
    const int64_t duration = e.end_ns - e.start_ns;
    row.total_s += static_cast<double>(duration) / 1e9;
    row.self_s += static_cast<double>(duration - union_ns) / 1e9;
  }
  std::vector<SpanSummary> out;
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.self_s > b.self_s;
            });
  return out;
}

std::string RenderChromeTrace(const std::vector<SpanEvent>& events,
                              const std::string& other_data) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += other_data;
  out += ",\"traceEvents\":";
  out += RenderSpanArray(events);
  out += "}\n";
  return out;
}

std::string RenderSpanArray(const std::vector<SpanEvent>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",\n";
    AppendEvent(&out, events[i]);
  }
  out += "]";
  return out;
}

}  // namespace perfbench
