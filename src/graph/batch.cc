#include "graph/batch.h"

#include <cstdint>
#include <limits>

#include "base/alloc_tune.h"
#include "graph/csr.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

namespace {

// Appends `block` (a member graph's CSR operator) to `out` with its
// column indices shifted by the block's vertex offset. Blocks are
// appended in batch order, so rows stay sorted and each row's column
// indices stay strictly ascending — the SpMM determinism contract is
// inherited from the members.
void AppendBlock(const CsrMatrix& block, size_t offset, CsrMatrix* out) {
  for (size_t v = 0; v < block.rows; ++v) {
    for (size_t e = block.row_offsets[v]; e < block.row_offsets[v + 1]; ++e) {
      out->col_indices.push_back(
          static_cast<uint32_t>(block.col_indices[e] + offset));
    }
    out->row_offsets.push_back(out->col_indices.size());
  }
}

}  // namespace

Result<GraphBatch> GraphBatch::Create(
    const std::vector<const Graph*>& graphs) {
  if (graphs.empty()) {
    return Status::InvalidArgument("GraphBatch needs at least one graph");
  }
  TuneAllocForTensorChurn();
  for (const Graph* g : graphs) {
    if (g == nullptr) {
      return Status::InvalidArgument("null graph in batch");
    }
    if (g->feature_dim() != graphs[0]->feature_dim()) {
      return Status::InvalidArgument("feature dimension mismatch in batch");
    }
    if (g->directed() != graphs[0]->directed()) {
      return Status::InvalidArgument("directedness mismatch in batch");
    }
  }

  size_t total_vertices = 0;
  size_t total_arcs = 0;
  size_t total_edges = 0;
  for (const Graph* g : graphs) {
    total_vertices += g->num_vertices();
    total_arcs += g->num_arcs();
    total_edges += g->num_edges();
  }
  GELC_CHECK(total_vertices <= std::numeric_limits<uint32_t>::max());
  GELC_OBS_SCOPE("batch.pack", {{"graphs", graphs.size()},
                                {"vertices", total_vertices},
                                {"arcs", total_arcs}});

  GraphBatch batch;
  batch.symmetric_ = !graphs[0]->directed();
  batch.features_ = Matrix(total_vertices, graphs[0]->feature_dim());
  batch.vertex_offsets_.reserve(graphs.size() + 1);
  batch.vertex_offsets_.push_back(0);
  batch.segment_ids_.reserve(total_vertices);

  batch.adjacency_.rows = total_vertices;
  batch.adjacency_.cols = total_vertices;
  batch.adjacency_.row_offsets.reserve(total_vertices + 1);
  batch.adjacency_.row_offsets.push_back(0);
  batch.adjacency_.col_indices.reserve(total_arcs);
  if (!batch.symmetric_) {
    batch.transpose_.rows = total_vertices;
    batch.transpose_.cols = total_vertices;
    batch.transpose_.row_offsets.reserve(total_vertices + 1);
    batch.transpose_.row_offsets.push_back(0);
    batch.transpose_.col_indices.reserve(total_arcs);
  }

  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = *graphs[i];
    size_t offset = batch.vertex_offsets_.back();
    const CsrGraph& csr = g.Csr();
    AppendBlock(csr.adjacency(), offset, &batch.adjacency_);
    if (!batch.symmetric_) {
      AppendBlock(csr.transpose(), offset, &batch.transpose_);
    }
    for (size_t v = 0; v < g.num_vertices(); ++v) {
      batch.segment_ids_.push_back(i);
      for (size_t j = 0; j < g.feature_dim(); ++j) {
        batch.features_.At(offset + v, j) = g.features().At(v, j);
      }
    }
    batch.vertex_offsets_.push_back(offset + g.num_vertices());
  }

  static obs::Counter* batches = obs::GetCounter("batch.packs");
  static obs::Counter* graphs_packed = obs::GetCounter("batch.graphs");
  static obs::Counter* vertices_packed = obs::GetCounter("batch.vertices");
  static obs::Counter* edges_packed = obs::GetCounter("batch.edges");
  batches->Increment();
  graphs_packed->Add(graphs.size());
  vertices_packed->Add(total_vertices);
  edges_packed->Add(total_edges);
  return batch;
}

Matrix GraphBatch::Slice(const Matrix& batch_rows, size_t i) const {
  GELC_CHECK(batch_rows.rows() == num_vertices());
  GELC_CHECK(i < num_graphs());
  size_t offset = graph_offset(i);
  Matrix out(graph_size(i), batch_rows.cols());
  for (size_t v = 0; v < out.rows(); ++v) {
    for (size_t j = 0; j < out.cols(); ++j) {
      out.At(v, j) = batch_rows.At(offset + v, j);
    }
  }
  return out;
}

}  // namespace gelc
