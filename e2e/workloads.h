// The benchmark's three workloads. Each builds its inputs from the seed
// (the library sees only the generated graphs, queries and logs) and runs
// one fixed op sequence per pass; the runner (bench.h) times the ops and
// compares their outputs across passes.
#ifndef GELC_E2E_WORKLOADS_H_
#define GELC_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "trace.h"

namespace gelc::e2e {

/// Input sizes. The defaults are what the benchmark runs; Tiny() is the
/// smoke size the benchmark's own tests run through the same code. Shapes
/// that do not scale down (degrees, molecule sizes, the aging fraction)
/// are constants in each workload's file.
struct Sizes {
  // query: one sparse labelled graph, a seeded arrival mix.
  size_t query_n = size_t{1} << 15;
  size_t query_ops = 100;
  // train: molecule-style graphs, minibatch SGD for a fixed epoch count.
  size_t train_graphs = 512;
  size_t train_batch = 32;
  size_t train_epochs = 80;
  // stream: community graph aged by a seeded update log.
  size_t stream_communities = 1024;
  size_t stream_community_size = 32;
  // Batches of 30 updates give ~1070 ops a pass (at least 1000 for every
  // seed), so op_p99_ms is taken over distinct ops' median latencies; a
  // read every 16th batch keeps reads 6% of ops, so p99 falls among them.
  size_t stream_batch = 30;
  size_t stream_read_every = 16;

  static Sizes Tiny();
};

/// Checks made and failed by an untimed check step.
struct CheckCount {
  uint64_t made = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++made;
    if (!ok) ++failed;
  }
};

/// What the untimed check of one op found: whether its own checks held,
/// and a digest of its output that the runner requires to be the same on
/// every execution of the same query (`key`) in a run: repeats within a
/// pass, later passes, and passes with the pool at 1 thread.
struct OpOutput {
  bool ok = true;
  uint64_t key = 0;
  uint64_t digest = 0;
};

/// One workload: inputs built by the factory (the timed set-up), then one
/// pass over its op sequence. The runner builds it afresh for every pass,
/// so every pass starts from the same state and does identical work.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t num_ops() const = 0;
  /// Correctness checks made once before timing.
  virtual CheckCount PreCheck() = 0;
  /// Timed: runs op i through the library, opening a span around each
  /// layer call. False when a library call returned non-OK.
  virtual bool RunOp(size_t i, Tracer* tracer) = 0;
  /// Untimed: checks op i's output.
  virtual OpOutput CheckOp(size_t i) = 0;
  /// Untimed end-of-pass checks.
  virtual CheckCount FinishPass() = 0;
};

/// Workload names the runner accepts, in report order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`; this is the timed set-up. Spans
/// opened during set-up (batch packing) go to `tracer` when it is
/// enabled. Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, const Sizes& sizes,
                                       Tracer* tracer);

std::unique_ptr<Workload> MakeQueryWorkload(uint64_t seed, const Sizes& sizes);
std::unique_ptr<Workload> MakeTrainWorkload(uint64_t seed, const Sizes& sizes,
                                            Tracer* tracer);
std::unique_ptr<Workload> MakeStreamWorkload(uint64_t seed,
                                             const Sizes& sizes);

/// Order-sensitive digest of a matrix's shape and bit pattern.
uint64_t Digest(const Matrix& m);

/// True when a and b have the same shape and the same bits.
bool SameBits(const Matrix& a, const Matrix& b);

}  // namespace gelc::e2e

#endif  // GELC_E2E_WORKLOADS_H_
