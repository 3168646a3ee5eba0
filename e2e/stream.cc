// `stream`: an aging community graph with reads between writes. One op
// is one batch of the update log: ReplayUpdateLog applies it and its
// callback runs IncrementalColorRefiner::Update on the touched vertices;
// every read_every-th batch (and the last) then runs the GNN-101 query's
// plan on the mutated graph, whose Graph::Csr() compacts the delta.
#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "graph/update_log.h"
#include "inputs.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"
#include "workloads.h"

namespace gelc::e2e {

namespace {

// With 4 labels, color refinement on this graph needs a 4th round in
// seed-dependent windows of the log, and every batch in such a window
// falls back to a full refresh (7-40% of batches across seeds). With 16
// labels it stabilizes in 3 rounds throughout, so each batch is patched
// and the cost per batch does not depend on the seed.
constexpr size_t kLabels = 16;
constexpr double kPIn = 0.25;
constexpr double kCrossPerVertex = 0.05;
constexpr double kAging = 0.25;  // log ops = kAging x |E|
constexpr double kDeleteFraction = 0.5;
constexpr uint64_t kModelSeed = 5;  // fixed read model, as in `query`

// Partition of the vertex set induced by a coloring, as the index of each
// vertex's color in order of first appearance.
std::vector<uint32_t> Partition(const std::vector<uint64_t>& colors) {
  std::unordered_map<uint64_t, uint32_t> ids;
  std::vector<uint32_t> out;
  out.reserve(colors.size());
  for (uint64_t c : colors) {
    const auto next = static_cast<uint32_t>(ids.size());
    out.push_back(ids.try_emplace(c, next).first->second);
  }
  return out;
}

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(uint64_t seed, const Sizes& sizes)
      : read_every_(sizes.stream_read_every) {
    Rng rng(seed);
    graph_ = CommunityGraph(sizes.stream_communities,
                              sizes.stream_community_size, kPIn,
                              kCrossPerVertex, kLabels, &rng);
    // The log is drawn before the first CSR build so the generator's
    // scratch copy of the graph carries no snapshot to maintain.
    const auto num_ops =
        static_cast<size_t>(kAging * static_cast<double>(graph_.num_edges()));
    UpdateLog log = GenerateUpdateLog(graph_, num_ops, kDeleteFraction, &rng);
    for (size_t lo = 0; lo < log.ops.size(); lo += sizes.stream_batch) {
      UpdateLog batch;
      batch.num_vertices = log.num_vertices;
      batch.directed = log.directed;
      const size_t hi = std::min(lo + sizes.stream_batch, log.ops.size());
      batch.ops.assign(log.ops.begin() + static_cast<long>(lo),
                       log.ops.begin() + static_cast<long>(hi));
      batches_.push_back(std::move(batch));
    }
    replay_.batch_size = sizes.stream_batch;
    Rng model_rng(kModelSeed);
    Gnn101Model model = *Gnn101Model::Random(
        {kLabels, 16, 16, 16}, Activation::kReLU, 0.5, &model_rng);
    plan_ = *CompileToPlan(*CompileGnn101ToGel(model));
    (void)graph_.Csr();
    refiner_ = std::make_unique<IncrementalColorRefiner>(&graph_);
  }

  size_t num_ops() const override { return batches_.size(); }

  CheckCount PreCheck() override { return {}; }

  bool RunOp(size_t i, Tracer* tracer) override {
    Status status = Status::OK();
    {
      ScopedSpan span(tracer, Layer::kGraphReplay);
      status = ReplayUpdateLog(batches_[i], &graph_, replay_,
                               [&](const ReplayBatch& batch) {
                                 ScopedSpan refine(tracer, Layer::kWlRefine);
                                 refiner_->Update(batch.touched);
                                 return Status::OK();
                               });
    }
    if (!status.ok() || !IsRead(i)) return status.ok();
    ScopedSpan span(tracer, Layer::kCoreExec);
    Result<Matrix> out = ExecutePlan(*plan_, graph_);
    if (!out.ok()) return false;
    read_ = std::move(*out);
    return true;
  }

  OpOutput CheckOp(size_t i) override {
    return {true, i, IsRead(i) ? Digest(read_) : 0};
  }

  // The refiner agrees with a from-scratch refinement of the final graph,
  // and the last read with the query on a graph rebuilt from its edges.
  CheckCount FinishPass() override {
    CheckCount checks;
    const CrColoring cr = RunColorRefinement({&graph_});
    checks.Add(cr.rounds == refiner_->rounds() &&
               Partition(cr.stable[0]) == Partition(refiner_->colors()));
    Graph rebuilt(graph_.num_vertices(), graph_.feature_dim());
    rebuilt.mutable_features() = graph_.features();
    for (size_t u = 0; u < graph_.num_vertices(); ++u) {
      for (VertexId v : graph_.Neighbors(static_cast<VertexId>(u))) {
        if (u < v) GELC_CHECK_OK(rebuilt.AddEdge(static_cast<VertexId>(u), v));
      }
    }
    Result<Matrix> want = ExecutePlan(*plan_, rebuilt);
    checks.Add(want.ok() && SameBits(read_, *want));
    return checks;
  }

 private:
  bool IsRead(size_t i) const {
    return (i + 1) % read_every_ == 0 || i + 1 == batches_.size();
  }

  size_t read_every_;
  Graph graph_;
  std::vector<UpdateLog> batches_;
  ReplayOptions replay_;
  PlanPtr plan_;
  std::unique_ptr<IncrementalColorRefiner> refiner_;  // holds &graph_
  Matrix read_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamWorkload(uint64_t seed,
                                             const Sizes& sizes) {
  return std::make_unique<StreamWorkload>(seed, sizes);
}

}  // namespace gelc::e2e
