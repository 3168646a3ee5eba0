// gelc_stream: seeded streaming-replay driver over the mutable graph,
// its rebuilt-on-read CSR snapshot and incremental refinement
// (DESIGN.md §12).
//
//   gelc_stream [--n N] [--p P] [--ops K] [--batch B] [--delete-frac F]
//               [--seed S] [--read-every R] [--verify]
//
// Builds a random G(n, p) base graph, generates a seeded update log of K
// edge inserts/deletes, and replays it in batches of B while keeping an
// IncrementalColorRefiner up to date with each batch's touched set.
// Every R-th batch runs an SpMM read over g.Csr(), which rebuilds the
// snapshot the batches made stale, the way a streaming GNN layer would.
// `--verify` additionally rebuilds the graph from scratch after every
// batch and checks all three CSR operators, the SpMM output and the
// refinement partition against it (slow; tests/stream_test.cc runs the
// same differential at scale).
//
// Everything is seeded and all printed quantities live on the
// deterministic plane, so output is byte-identical across runs and
// thread counts; scripts/check.sh compares the --verify output at one
// and four threads.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/update_log.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"

namespace gelc {
namespace {

struct StreamConfig {
  size_t n = 2000;
  double p = 0.004;
  size_t ops = 5000;
  size_t batch = 64;
  double delete_frac = 0.35;
  uint64_t seed = 1;
  size_t read_every = 4;
  bool verify = false;
};

// Canonical partition fingerprint: class sizes in sorted order (id-free,
// so it matches across incremental and from-scratch colorings).
std::vector<size_t> PartitionShape(const std::vector<uint64_t>& colors) {
  std::map<uint64_t, size_t> count;
  for (uint64_t c : colors) ++count[c];
  std::vector<size_t> shape;
  shape.reserve(count.size());
  for (const auto& [id, k] : count) shape.push_back(k);
  std::sort(shape.begin(), shape.end());
  return shape;
}

double MatrixSum(const Matrix& m) {
  double s = 0.0;
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j) s += m.At(i, j);
  return s;
}

bool SameCsr(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows == b.rows && a.cols == b.cols &&
         a.row_offsets == b.row_offsets && a.col_indices == b.col_indices &&
         a.values == b.values;
}

// Bitwise equality, so a NaN or a signed zero cannot hide a divergence.
bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

uint64_t ReadCounterOrZero(const char* name) {
  return obs::ReadCounter(name);
}

int RunStream(const StreamConfig& cfg) {
  obs::SetMetricsEnabled(true);
  obs::ResetMetricsForTest();

  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
  Graph g = RandomGnp(cfg.n, cfg.p, &rng);
  std::printf("base: n=%zu arcs=%zu p=%g seed=%llu\n", g.num_vertices(),
              g.num_arcs(), cfg.p,
              static_cast<unsigned long long>(cfg.seed));

  UpdateLog log = GenerateUpdateLog(g, cfg.ops, cfg.delete_frac, &rng);
  std::printf("log: ops=%zu delete_frac=%g batch=%zu\n", log.ops.size(),
              cfg.delete_frac, cfg.batch);

  (void)g.Csr();  // the first build; every read after a batch rebuilds
  IncrementalColorRefiner refiner(&g);
  Matrix features =
      Matrix::RandomUniform(g.num_vertices(), 8, -1.0, 1.0, &rng);

  ReplayOptions options;
  options.batch_size = cfg.batch;
  size_t batches = 0;
  size_t reads = 0;
  double read_checksum = 0.0;
  Status replay = ReplayUpdateLog(log, &g, options, [&](const ReplayBatch&
                                                            batch) {
    ++batches;
    refiner.Update(batch.touched);
    if (cfg.read_every != 0 && batches % cfg.read_every == 0) {
      Matrix out = SpMM(g.Csr().adjacency(), features);
      read_checksum += MatrixSum(out);
      ++reads;
    }
    if (cfg.verify) {
      Graph fresh(g.num_vertices(), g.feature_dim(), g.directed());
      fresh.mutable_features() = g.features();
      for (size_t u = 0; u < g.num_vertices(); ++u) {
        for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
          if (!g.directed() && v < u) continue;
          GELC_CHECK_OK(fresh.AddEdge(static_cast<VertexId>(u), v));
        }
      }
      const CsrGraph& csr = g.Csr();
      const CsrGraph& want = fresh.Csr();
      const char* diverged = nullptr;
      if (!SameCsr(csr.adjacency(), want.adjacency())) {
        diverged = "adjacency";
      } else if (!SameCsr(csr.transpose(), want.transpose())) {
        diverged = "transpose";
      } else if (!SameCsr(csr.normalized(), want.normalized())) {
        diverged = "normalized";
      } else if (!SameBits(SpMM(csr.adjacency(), features),
                           SpMM(want.adjacency(), features))) {
        diverged = "SpMM";
      }
      if (diverged != nullptr) {
        std::fprintf(stderr, "gelc_stream: verify FAILED at batch %zu (%s)\n",
                     batches, diverged);
        return Status::Internal("mutated/scratch CSR divergence");
      }
      CrColoring cr = RunColorRefinement({&fresh});
      if (PartitionShape(refiner.colors()) !=
          PartitionShape(cr.stable[0])) {
        std::fprintf(stderr,
                     "gelc_stream: verify FAILED at batch %zu "
                     "(refinement partition)\n",
                     batches);
        return Status::Internal("incremental/scratch partition divergence");
      }
    }
    return Status::OK();
  });
  if (!replay.ok()) {
    std::fprintf(stderr, "gelc_stream: %s\n", replay.message().c_str());
    return 1;
  }

  std::printf("final: arcs=%zu edges=%zu epoch=%llu\n", g.num_arcs(),
              g.num_edges(),
              static_cast<unsigned long long>(g.mutation_epoch()));
  std::printf("refine: rounds=%zu classes=%zu\n", refiner.rounds(),
              refiner.partition_size());
  std::printf("reads: count=%zu checksum=%.17g\n", reads, read_checksum);
  std::printf(
      "stream counters: batches=%llu inserts=%llu deletes=%llu "
      "compactions=%llu refine_updates=%llu refine_fallbacks=%llu "
      "recolored=%llu recompute_saved=%llu\n",
      static_cast<unsigned long long>(ReadCounterOrZero("stream.batches")),
      static_cast<unsigned long long>(ReadCounterOrZero("stream.inserts")),
      static_cast<unsigned long long>(ReadCounterOrZero("stream.deletes")),
      static_cast<unsigned long long>(
          ReadCounterOrZero("graph.delta.compactions")),
      static_cast<unsigned long long>(
          ReadCounterOrZero("wl.cr.inc.updates")),
      static_cast<unsigned long long>(
          ReadCounterOrZero("wl.cr.inc.fallbacks")),
      static_cast<unsigned long long>(
          ReadCounterOrZero("wl.cr.inc.recolored")),
      static_cast<unsigned long long>(ReadCounterOrZero("wl.cr.inc.saved")));
  if (cfg.verify) std::printf("verify: ok (%zu batches)\n", batches);
  return 0;
}

int Run(const std::vector<std::string>& args) {
  StreamConfig cfg;
  auto need_value = [&](size_t* i, const std::vector<std::string>& a,
                        const char* flag) -> const char* {
    if (++*i >= a.size()) {
      std::fprintf(stderr, "gelc_stream: %s needs a value\n", flag);
      return nullptr;
    }
    return a[*i].c_str();
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") {
      std::printf(
          "usage: gelc_stream [--n N] [--p P] [--ops K] [--batch B]\n"
          "                   [--delete-frac F] [--seed S]\n"
          "                   [--read-every R] [--verify]\n");
      return 0;
    } else if (a == "--verify") {
      cfg.verify = true;
    } else if (a == "--n") {
      if ((v = need_value(&i, args, "--n")) == nullptr) return 2;
      cfg.n = std::strtoull(v, nullptr, 10);
    } else if (a == "--p") {
      if ((v = need_value(&i, args, "--p")) == nullptr) return 2;
      cfg.p = std::strtod(v, nullptr);
    } else if (a == "--ops") {
      if ((v = need_value(&i, args, "--ops")) == nullptr) return 2;
      cfg.ops = std::strtoull(v, nullptr, 10);
    } else if (a == "--batch") {
      if ((v = need_value(&i, args, "--batch")) == nullptr) return 2;
      cfg.batch = std::strtoull(v, nullptr, 10);
    } else if (a == "--delete-frac") {
      if ((v = need_value(&i, args, "--delete-frac")) == nullptr) return 2;
      cfg.delete_frac = std::strtod(v, nullptr);
    } else if (a == "--seed") {
      if ((v = need_value(&i, args, "--seed")) == nullptr) return 2;
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--read-every") {
      if ((v = need_value(&i, args, "--read-every")) == nullptr) return 2;
      cfg.read_every = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "gelc_stream: unknown argument '%s'\n",
                   a.c_str());
      return 2;
    }
  }
  if (cfg.n < 2) {
    std::fprintf(stderr, "gelc_stream: --n must be at least 2\n");
    return 2;
  }
  return RunStream(cfg);
}

}  // namespace
}  // namespace gelc

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  return gelc::Run(args);
}
