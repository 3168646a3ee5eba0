#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace gelc {
namespace obs {

namespace {

// Events per thread ring buffer (power of two). When a thread records
// more, the oldest events are overwritten; TraceJson keeps the newest
// window. ~80 bytes/event, allocated lazily on the thread's first span.
constexpr size_t kRingCapacity = size_t{1} << 15;

struct TraceEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint32_t depth = 0;
  uint32_t nargs = 0;
  SpanArg args[internal::kMaxSpanArgs];
};

// One ring per thread. Only the owning thread writes; the collector
// reads during export, which callers run while no spans are in flight
// (ParallelFor has joined), so reads never race live writes.
struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t tid_in) : tid(tid_in) {
    slots.resize(kRingCapacity);
  }
  uint32_t tid;
  std::atomic<uint64_t> head{0};  // total events ever recorded
  std::vector<TraceEvent> slots;
};

class TraceCollector {
 public:
  ThreadBuffer* BufferForThisThread() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>(
          static_cast<uint32_t>(buffers_.size())));
      buffer = buffers_.back().get();
    }
    return buffer;
  }

  /// Snapshot of every buffered event, tagged with its thread id and
  /// sorted by (tid, start, depth) — parents precede children even
  /// though rings record in end order.
  std::vector<std::pair<uint32_t, TraceEvent>> Collect() {
    std::vector<std::pair<uint32_t, TraceEvent>> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      uint64_t head = buf->head.load(std::memory_order_acquire);
      uint64_t n = std::min<uint64_t>(head, kRingCapacity);
      for (uint64_t i = head - n; i < head; ++i) {
        out.emplace_back(buf->tid, buf->slots[i % kRingCapacity]);
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      if (a.second.start_ns != b.second.start_ns)
        return a.second.start_ns < b.second.start_ns;
      return a.second.depth < b.second.depth;
    });
    return out;
  }

  size_t EventCount() {
    size_t n = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_)
      n += static_cast<size_t>(std::min<uint64_t>(
          buf->head.load(std::memory_order_acquire), kRingCapacity));
    return n;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buf : buffers_)
      buf->head.store(0, std::memory_order_release);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// Never destroyed: the exit exporter reads it during static destruction.
TraceCollector& Collector() {
  static TraceCollector& collector =
      *new TraceCollector;  // NOLINT(banned-alloc): never destroyed
  return collector;
}

// The innermost open scope of the calling thread.
thread_local Scope* t_open_scope = nullptr;

// Monotonic nanoseconds (steady_clock); only meaningful as differences.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FormatMicros(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

std::string FormatMillis(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000000),
                static_cast<long long>((ns / 1000) % 1000));
  return buf;
}

}  // namespace

namespace internal {

void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns,
                uint32_t depth, const SpanArg* args, uint32_t nargs) {
  ThreadBuffer* buf = Collector().BufferForThisThread();
  uint64_t head = buf->head.load(std::memory_order_relaxed);
  TraceEvent& e = buf->slots[head % kRingCapacity];
  e.name = name;
  e.start_ns = start_ns;
  e.dur_ns = end_ns - start_ns;
  e.depth = depth;
  e.nargs = std::min<uint32_t>(nargs, kMaxSpanArgs);
  for (uint32_t i = 0; i < e.nargs; ++i) e.args[i] = args[i];
  buf->head.store(head + 1, std::memory_order_release);
}

}  // namespace internal

void Scope::Open(LatencyHistogram* series,
                 std::initializer_list<SpanArg> args) {
  series_ = series;
  if (traced_) {
    for (const SpanArg& a : args) {
      if (nargs_ < internal::kMaxSpanArgs) args_[nargs_++] = a;
    }
  }
  parent_ = t_open_scope;
  depth_ = parent_ == nullptr ? 0 : parent_->depth_ + 1;
  t_open_scope = this;
  start_ns_ = NowNs();
}

void Scope::Close() {
  const int64_t end_ns = NowNs();
  const int64_t ns = end_ns - start_ns_;
  t_open_scope = parent_;
  if (parent_ != nullptr) parent_->children_ns_ += ns;
  if (timed_) series_->Observe(ns, ns - children_ns_);
  if (traced_) {
    internal::RecordSpan(series_->name().c_str(), start_ns_, end_ns, depth_,
                         args_, nargs_);
  }
}

void Scope::SetArg(const char* key, int64_t value) {
  if (!traced_) return;
  for (uint32_t i = 0; i < nargs_; ++i) {
    if (args_[i].key == key) {
      args_[i].value = value;
      return;
    }
  }
  if (nargs_ < internal::kMaxSpanArgs) args_[nargs_++] = SpanArg(key, value);
}

std::string TraceJson() {
  auto events = Collector().Collect();
  // Timestamps relative to the earliest buffered span keep the JSON
  // small and make fresh traces start at ts=0.
  int64_t epoch = 0;
  bool first = true;
  for (const auto& [tid, e] : events) {
    if (first || e.start_ns < epoch) epoch = e.start_ns;
    first = false;
  }
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool sep = false;
  for (const auto& [tid, e] : events) {
    if (sep) out << ",";
    sep = true;
    out << "\n{\"name\": \"" << e.name << "\", \"cat\": \"gelc\", "
        << "\"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << FormatMicros(e.start_ns - epoch)
        << ", \"dur\": " << FormatMicros(e.dur_ns);
    if (e.nargs > 0) {
      out << ", \"args\": {";
      for (uint32_t i = 0; i < e.nargs; ++i) {
        if (i) out << ", ";
        out << "\"" << e.args[i].key << "\": " << e.args[i].value;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

Status WriteTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open trace output " + path);
  out << TraceJson();
  out.flush();
  if (!out) return Status::IOError("trace write failed on " + path);
  return Status::OK();
}

std::string TraceSummaryText() {
  auto events = Collector().Collect();
  struct Node {
    uint64_t calls = 0;
    int64_t incl_ns = 0;
    int64_t child_ns = 0;
  };
  // Paths like "wl.kwl/wl.round" merge the same call chain across
  // threads; std::map keeps printing order deterministic.
  std::map<std::string, Node> nodes;
  std::vector<std::string> stack;  // stack[d] = path of the open span at d
  uint32_t current_tid = 0;
  bool have_tid = false;
  for (const auto& [tid, e] : events) {
    if (!have_tid || tid != current_tid) {
      stack.clear();
      current_tid = tid;
      have_tid = true;
    }
    stack.resize(e.depth + 1);
    std::string parent = e.depth > 0 ? stack[e.depth - 1] : std::string();
    std::string path = parent.empty() ? e.name : parent + "/" + e.name;
    stack[e.depth] = path;
    Node& node = nodes[path];
    node.calls += 1;
    node.incl_ns += e.dur_ns;
    if (!parent.empty()) nodes[parent].child_ns += e.dur_ns;
  }
  std::ostringstream out;
  out << "span                                      calls     incl_ms"
         "     excl_ms\n";
  for (const auto& [path, node] : nodes) {
    size_t depth = static_cast<size_t>(
        std::count(path.begin(), path.end(), '/'));
    std::string name = path.substr(path.rfind('/') + 1);
    std::string label(2 * depth, ' ');
    label += name;
    if (label.size() < 40) label.resize(40, ' ');
    int64_t excl = std::max<int64_t>(0, node.incl_ns - node.child_ns);
    char line[128];
    std::snprintf(line, sizeof(line), "%s %6llu %11s %11s\n", label.c_str(),
                  static_cast<unsigned long long>(node.calls),
                  FormatMillis(node.incl_ns).c_str(),
                  FormatMillis(excl).c_str());
    out << line;
  }
  if (nodes.empty()) out << "(no spans recorded)\n";
  return out.str();
}

size_t TraceEventCount() { return Collector().EventCount(); }

void ResetTraceForTest() { Collector().Reset(); }

}  // namespace obs
}  // namespace gelc
