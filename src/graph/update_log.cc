#include "graph/update_log.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

namespace {

// Flush the writer's buffer past this size; keeps appends O(1) amortized
// without a syscall-per-op on file-backed streams.
constexpr size_t kWriterBufferBytes = size_t{1} << 16;

// Bounded rejection sampling for an absent pair; a dense graph falls
// back to the delete path rather than spinning.
constexpr int kInsertSampleTries = 64;

void AppendOpLine(std::string* out, const EdgeOp& op) {
  out->push_back(op.kind == EdgeOpKind::kInsert ? 'i' : 'd');
  out->push_back(' ');
  out->append(std::to_string(op.u));
  out->push_back(' ');
  out->append(std::to_string(op.v));
  out->push_back('\n');
}

}  // namespace

UpdateLog GenerateUpdateLog(const Graph& base, size_t num_ops,
                            double delete_fraction, Rng* rng) {
  GELC_CHECK(rng != nullptr);
  UpdateLog log;
  log.num_vertices = base.num_vertices();
  log.directed = base.directed();
  const size_t n = log.num_vertices;
  if (n < 2) return log;

  // Scratch state tracks the graph as the log would leave it, so every
  // generated op applies cleanly on replay. `edges` holds the present
  // arc set in canonical form (u < v when undirected) for O(1)
  // delete sampling via swap-remove.
  Graph scratch = base;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (size_t u = 0; u < n; ++u) {
    for (VertexId v : base.Neighbors(static_cast<VertexId>(u))) {
      if (!base.directed() && v < u) continue;
      edges.emplace_back(static_cast<VertexId>(u), v);
    }
  }
  const size_t max_edges = base.directed() ? n * (n - 1) : n * (n - 1) / 2;

  log.ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    const bool can_delete = !edges.empty();
    const bool can_insert = edges.size() < max_edges;
    if (!can_delete && !can_insert) break;
    bool do_delete =
        can_delete && (!can_insert || rng->NextBernoulli(delete_fraction));
    EdgeOp op;
    if (!do_delete) {
      bool found = false;
      for (int t = 0; t < kInsertSampleTries; ++t) {
        auto u = static_cast<VertexId>(rng->NextBounded(n));
        auto v = static_cast<VertexId>(rng->NextBounded(n));
        if (u == v) continue;
        if (!base.directed() && v < u) std::swap(u, v);
        if (scratch.HasEdge(u, v)) continue;
        op = {EdgeOpKind::kInsert, u, v};
        found = true;
        break;
      }
      if (!found) {
        if (!can_delete) break;  // dense and unlucky; nothing else to do
        do_delete = true;
      }
    }
    if (do_delete) {
      size_t k = rng->NextBounded(edges.size());
      op = {EdgeOpKind::kDelete, edges[k].first, edges[k].second};
      edges[k] = edges.back();
      edges.pop_back();
      GELC_CHECK_OK(scratch.RemoveEdge(op.u, op.v));
    } else {
      GELC_CHECK_OK(scratch.AddEdge(op.u, op.v));
      edges.emplace_back(op.u, op.v);
    }
    log.ops.push_back(op);
  }
  return log;
}

std::string SerializeUpdateLog(const UpdateLog& log) {
  std::string out = "uplog " + std::to_string(log.num_vertices) + " " +
                    (log.directed ? "1" : "0") + "\n";
  for (const EdgeOp& op : log.ops) AppendOpLine(&out, op);
  return out;
}

Result<UpdateLog> ParseUpdateLog(const std::string& text) {
  std::istringstream in(text);
  UpdateLogReader reader(&in);
  GELC_RETURN_NOT_OK(reader.status());
  UpdateLog log;
  log.num_vertices = reader.num_vertices();
  log.directed = reader.directed();
  EdgeOp op;
  while (reader.Next(&op)) log.ops.push_back(op);
  GELC_RETURN_NOT_OK(reader.status());
  return log;
}

UpdateLogWriter::UpdateLogWriter(std::ostream* out, size_t num_vertices,
                                 bool directed)
    : out_(out) {
  GELC_CHECK(out_ != nullptr);
  buffer_ = "uplog " + std::to_string(num_vertices) + " " +
            (directed ? "1" : "0") + "\n";
}

UpdateLogWriter::~UpdateLogWriter() { Flush(); }

void UpdateLogWriter::Append(const EdgeOp& op) {
  AppendOpLine(&buffer_, op);
  ++ops_written_;
  if (buffer_.size() >= kWriterBufferBytes) Flush();
}

void UpdateLogWriter::Flush() {
  if (buffer_.empty()) return;
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

UpdateLogReader::UpdateLogReader(std::istream* in) : in_(in) {
  GELC_CHECK(in_ != nullptr);
  std::string magic;
  // Signed, so "-1" is an error instead of a wrapped count.
  long long num_vertices = -1;
  int directed_flag = -1;
  if (!(*in_ >> magic >> num_vertices >> directed_flag) ||
      magic != "uplog" || (directed_flag != 0 && directed_flag != 1)) {
    status_ = Status::InvalidArgument("update log: malformed header");
    return;
  }
  if (num_vertices < 0 || static_cast<unsigned long long>(num_vertices) >
                              std::numeric_limits<VertexId>::max()) {
    status_ = Status::InvalidArgument(
        "update log: vertex count outside the 32-bit vertex id range");
    return;
  }
  num_vertices_ = static_cast<size_t>(num_vertices);
  directed_ = directed_flag == 1;
}

bool UpdateLogReader::Next(EdgeOp* op) {
  GELC_CHECK(op != nullptr);
  if (!status_.ok()) return false;
  std::string kind;
  if (!(*in_ >> kind)) return false;  // clean end-of-log
  uint64_t u = 0, v = 0;
  if ((kind != "i" && kind != "d") || !(*in_ >> u >> v) ||
      u >= num_vertices_ || v >= num_vertices_ || u == v) {
    status_ = Status::InvalidArgument("update log: malformed op near op #" +
                                      std::to_string(ops_read_));
    return false;
  }
  op->kind = kind == "i" ? EdgeOpKind::kInsert : EdgeOpKind::kDelete;
  op->u = static_cast<VertexId>(u);
  op->v = static_cast<VertexId>(v);
  ++ops_read_;
  return true;
}

Status ReplayUpdateLog(const UpdateLog& log, Graph* g,
                       const ReplayOptions& options,
                       const ReplayBatchCallback& callback) {
  GELC_CHECK(g != nullptr);
  if (g->num_vertices() != log.num_vertices) {
    return Status::InvalidArgument("update log: vertex count mismatch");
  }
  if (g->directed() != log.directed) {
    return Status::InvalidArgument("update log: directedness mismatch");
  }
  const size_t batch_size = std::max<size_t>(1, options.batch_size);
  static obs::Counter* ops_ctr = obs::GetCounter("stream.ops");
  static obs::Counter* inserts = obs::GetCounter("stream.inserts");
  static obs::Counter* deletes = obs::GetCounter("stream.deletes");
  static obs::Counter* batches = obs::GetCounter("stream.batches");
  ReplayBatch batch;
  for (size_t start = 0; start < log.ops.size(); start += batch_size) {
    const size_t end = std::min(log.ops.size(), start + batch_size);
    batch.ops.clear();
    batch.touched.clear();
    {
      GELC_OBS_SCOPE("stream.replay_batch");
      for (size_t i = start; i < end; ++i) {
        const EdgeOp& op = log.ops[i];
        if (op.kind == EdgeOpKind::kInsert) {
          GELC_RETURN_NOT_OK(g->AddEdge(op.u, op.v));
          inserts->Increment();
        } else {
          GELC_RETURN_NOT_OK(g->RemoveEdge(op.u, op.v));
          deletes->Increment();
        }
        batch.ops.push_back(op);
        batch.touched.push_back(op.u);
        batch.touched.push_back(op.v);
      }
      std::sort(batch.touched.begin(), batch.touched.end());
      batch.touched.erase(
          std::unique(batch.touched.begin(), batch.touched.end()),
          batch.touched.end());
    }
    ops_ctr->Add(end - start);
    batches->Increment();
    if (callback) GELC_RETURN_NOT_OK(callback(batch));
    ++batch.index;
  }
  return Status::OK();
}

}  // namespace gelc
