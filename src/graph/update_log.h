// The streaming update log: a deterministic sequence of edge
// insert/delete operations against a base graph, with text
// serialization, buffered streaming I/O, and a batching replayer
// (DESIGN.md §12). Modeled on the log-of-operations format of graph
// streaming benchmarks (graphlog-style): a header naming the vertex
// universe, then one operation per line.
//
// Format (whitespace-separated; op count is implicit so writers can
// stream without knowing it up front):
//   uplog <num_vertices> <directed 0|1>
//   i <u> <v>        edge insert
//   d <u> <v>        edge delete
//
// Generation is seeded (base/rng.h), so a (base graph, seed, num_ops)
// triple reproduces the identical op sequence bit-for-bit — the property
// the differential stream tests and the fuzz round-trip lean on.
//
// The replayer applies ops in batches and reports each batch's touched
// endpoints (sorted, deduplicated) to a callback — exactly the dirty
// seed set incremental color refinement wants. It never calls
// Graph::Csr() (the csr-rebuild-in-stream-path lint rule pins that):
// mutations only make the cached snapshot stale, and a reader downstream
// pays one rebuild when it next calls Csr(), however many batches ran.
#ifndef GELC_GRAPH_UPDATE_LOG_H_
#define GELC_GRAPH_UPDATE_LOG_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "graph/graph.h"

namespace gelc {

enum class EdgeOpKind : uint8_t { kInsert, kDelete };

/// One edge operation. Endpoints are unordered for undirected logs (the
/// generator emits u < v canonically; the replayer accepts either order).
struct EdgeOp {
  EdgeOpKind kind = EdgeOpKind::kInsert;
  VertexId u = 0;
  VertexId v = 0;

  bool operator==(const EdgeOp& o) const {
    return kind == o.kind && u == o.u && v == o.v;
  }
};

/// A complete update log: the vertex universe it addresses plus the
/// operation sequence. Replay requires a base graph with matching
/// num_vertices and directedness.
struct UpdateLog {
  size_t num_vertices = 0;
  bool directed = false;
  std::vector<EdgeOp> ops;
};

/// Generates a deterministic log of `num_ops` operations applicable to
/// `base` in order: each op is a delete of a currently-present edge with
/// probability `delete_fraction`, else an insert of a currently-absent
/// pair. Every emitted op succeeds when replayed (no duplicate inserts,
/// no deletes of absent edges). Degenerate states degrade gracefully: an
/// empty graph forces inserts, a complete graph forces deletes, and a
/// graph that is both (n < 2) yields an empty log.
UpdateLog GenerateUpdateLog(const Graph& base, size_t num_ops,
                            double delete_fraction, Rng* rng);

/// The text form described in the header comment.
std::string SerializeUpdateLog(const UpdateLog& log);
Result<UpdateLog> ParseUpdateLog(const std::string& text);

/// Buffered streaming writer: header first, then ops appended one at a
/// time; Flush() drains the internal buffer to the stream (also invoked
/// by the destructor). The byte stream equals SerializeUpdateLog of the
/// same log.
class UpdateLogWriter {
 public:
  UpdateLogWriter(std::ostream* out, size_t num_vertices, bool directed);
  ~UpdateLogWriter();
  UpdateLogWriter(const UpdateLogWriter&) = delete;
  UpdateLogWriter& operator=(const UpdateLogWriter&) = delete;

  void Append(const EdgeOp& op);
  void Flush();
  size_t ops_written() const { return ops_written_; }

 private:
  std::ostream* out_;
  std::string buffer_;
  size_t ops_written_ = 0;
};

/// Buffered streaming reader over the same format; ops are pulled one at
/// a time so a log never needs to be resident in memory.
class UpdateLogReader {
 public:
  /// Reads and validates the header; `status()` reports a malformed one.
  explicit UpdateLogReader(std::istream* in);

  /// Fetches the next op into *op; false at end-of-log or on error.
  bool Next(EdgeOp* op);

  size_t num_vertices() const { return num_vertices_; }
  bool directed() const { return directed_; }
  size_t ops_read() const { return ops_read_; }
  const Status& status() const { return status_; }

 private:
  std::istream* in_;
  size_t num_vertices_ = 0;
  bool directed_ = false;
  size_t ops_read_ = 0;
  Status status_ = Status::OK();
};

/// One replayed batch: the ops applied and the endpoints they touched
/// (sorted, deduplicated) — the dirty seed set for incremental readers.
struct ReplayBatch {
  size_t index = 0;
  std::vector<EdgeOp> ops;
  std::vector<VertexId> touched;
};

struct ReplayOptions {
  size_t batch_size = 64;
};

using ReplayBatchCallback = std::function<Status(const ReplayBatch&)>;

/// Applies `log` to *g in batches; after each batch the callback (when
/// set) runs with the batch summary and may abort the replay by
/// returning non-OK. Fails if the log does not fit the graph or an op
/// does not apply (duplicate insert / missing delete) — generated logs
/// never trip this.
Status ReplayUpdateLog(const UpdateLog& log, Graph* g,
                       const ReplayOptions& options = ReplayOptions(),
                       const ReplayBatchCallback& callback = nullptr);

}  // namespace gelc

#endif  // GELC_GRAPH_UPDATE_LOG_H_
