#include "trace.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/logging.h"

namespace gelc::e2e {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kCoreParse:
      return "core.parse";
    case Layer::kCoreCompile:
      return "core.compile";
    case Layer::kCoreExec:
      return "core.exec";
    case Layer::kGnnForward:
      return "gnn.forward";
    case Layer::kAutodiffBackward:
      return "autodiff.backward";
    case Layer::kAutodiffStep:
      return "autodiff.step";
    case Layer::kGraphReplay:
      return "graph.replay";
    case Layer::kGraphBatchPack:
      return "graph.batch_pack";
    case Layer::kWlRefine:
      return "wl.refine";
  }
  return "?";
}

// The benchmark times library calls from outside the library, so it keeps
// its own clock rather than the obs planes.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now()  // NOLINT(adhoc-timing)
                 .time_since_epoch())
      .count();
}

int32_t Tracer::Begin(Layer layer) {
  Span s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.begin_ns = NowNs();
  spans_.push_back(s);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  GELC_CHECK(!open_.empty() && open_.back() == index);
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.begin_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].begin_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to ours.
    int64_t covered = 0;
    int64_t reach = lo;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, hi);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<OpBreakdown> BreakdownByOp(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<OpBreakdown> ops;
  // root[i] = index into `ops` of the op span i belongs to. Parents
  // precede children in the list, so one forward pass resolves it.
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      GELC_CHECK(s.layer == Layer::kOp);
      root[i] = ops.size();
      OpBreakdown op;
      op.wall_ns = s.end_ns - s.begin_ns;
      ops.push_back(op);
    } else {
      root[i] = root[static_cast<size_t>(s.parent)];
    }
    OpBreakdown& op = ops[root[i]];
    const auto l = static_cast<size_t>(s.layer);
    op.self_ns[l] += self[i];
    op.entered[l] = true;
  }
  return ops;
}

}  // namespace gelc::e2e
