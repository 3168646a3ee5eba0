// gelc_stats: run fixed-seed workloads and print the metrics snapshot,
// or diff two previously captured snapshots.
//
//   gelc_stats [--deterministic] [wl|kwl|spmm|train|stream|all ...]
//                                                          (default: all)
//   gelc_stats --diff OLD.json NEW.json [--threshold X] [--ignore PREFIX]...
//   gelc_stats --simd-tier
//
// Every workload is seeded and deterministic, the registry holds only
// deterministic quantities, and the snapshot serializes in sorted name
// order — so for a given argument list and thread count the JSON on
// stdout reproduces byte-for-byte across runs. (The algorithmic metrics
// — matmul.*, spmm.*, wl.*, train.* — are identical for every thread
// count too; only the parallel.* scheduling metrics describe the actual
// schedule and so vary with GELC_NUM_THREADS.) The registry is reset and
// force-enabled first, making the output independent of GELC_METRICS and
// of anything the process did before.
//
// `--deterministic` restricts the snapshot to the deterministic plane's
// thread-count-invariant subset: the timing plane is forced off and the
// parallel.* scheduling metrics are dropped, so the output is
// byte-identical at any GELC_NUM_THREADS even under GELC_TIMINGS=1
// (scripts/check.sh gates on exactly this).
//
// `--diff` aligns two snapshots (bare SnapshotJson output or BENCH_p*.json
// wrappers), prints per-metric deltas, and exits 1 when a deterministic
// counter grew past --threshold (fractional; default 0 = any increase).
// Timings are printed but never gated. Exit codes: 0 clean, 1 counter
// regression, 2 usage/parse error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "gnn/trainable.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/update_log.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/stats_diff.h"
#include "obs/timing.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

constexpr const char* kWorkloadNames[] = {"wl", "kwl", "spmm", "train",
                                          "stream", "all"};

bool KnownWorkload(const std::string& w) {
  for (const char* name : kWorkloadNames) {
    if (w == name) return true;
  }
  return false;
}

void PrintWorkloadList(std::FILE* out) {
  std::fprintf(out, "available workloads:\n");
  std::fprintf(out, "  wl      color refinement over two random G(n,p)\n");
  std::fprintf(out, "  kwl     2-WL over two small random graphs\n");
  std::fprintf(out, "  spmm    SpMM + dense MatMul on a sparse G(n,p)\n");
  std::fprintf(out, "  train   8-epoch node-classifier training run\n");
  std::fprintf(out,
               "  stream  update-log replay with CSR rebuild-on-read\n"
               "          SpMM reads and incremental color refinement\n");
  std::fprintf(out, "  all     every workload above, in this order\n");
}

void RunWlWorkload() {
  Rng rng(11);
  Graph a = RandomGnp(120, 0.08, &rng);
  Graph b = RandomGnp(120, 0.08, &rng);
  (void)RunColorRefinement({&a, &b});
}

void RunKwlWorkload() {
  Rng rng(13);
  Graph a = RandomGnp(18, 0.25, &rng);
  Graph b = RandomGnp(18, 0.25, &rng);
  RunKwl({&a, &b}, 2).IgnoreError();  // sizes are in range by construction
}

void RunSpmmWorkload() {
  Rng rng(17);
  Graph g = RandomGnp(400, 0.03, &rng);
  Matrix f = Matrix::RandomUniform(400, 32, -1.0, 1.0, &rng);
  Matrix out = SpMM(g.Csr().adjacency(), f);
  // A dense product for the matmul.* metrics, same operand scale.
  Matrix w = Matrix::RandomUniform(32, 32, -1.0, 1.0, &rng);
  Matrix dense = out.MatMul(w);
  (void)dense;
}

// Streaming: replay a seeded update log over a G(n,p) base, keeping the
// incremental refiner current and running an SpMM read over the rebuilt
// g.Csr() every other batch. Exercises the stream.*, graph.csr_cache.*,
// graph.delta.compactions and wl.cr.inc.* series; all of them are
// thread-count invariant, so this workload sits inside the
// `--deterministic` byte-identity gate.
void RunStreamWorkload() {
  Rng rng(23);
  Graph g = RandomGnp(300, 0.02, &rng);
  (void)g.Csr();  // the first build; each read after a batch rebuilds
  IncrementalColorRefiner refiner(&g);
  Matrix f = Matrix::RandomUniform(300, 16, -1.0, 1.0, &rng);
  UpdateLog log = GenerateUpdateLog(g, 600, 0.4, &rng);
  ReplayOptions options;
  options.batch_size = 48;
  size_t batches = 0;
  GELC_CHECK_OK(
      ReplayUpdateLog(log, &g, options, [&](const ReplayBatch& batch) {
        refiner.Update(batch.touched);
        if (++batches % 2 == 0) {
          Matrix out = SpMM(g.Csr().adjacency(), f);
          (void)out;
        }
        return Status::OK();
      }));
}

void RunTrainWorkload() {
  Rng rng(19);
  NodeDataset data = SyntheticCitations(90, 3, 0.1, &rng);
  TrainOptions options;
  options.epochs = 8;
  options.hidden_widths = {8};
  GELC_CHECK_OK(TrainNodeClassifier(data, options));
}

// Drops every metric whose name starts with "parallel." — those count
// the actual pool schedule (tasks handed off, shards per call) and so
// legitimately differ between GELC_NUM_THREADS settings.
void StripScheduleMetrics(obs::StatsSnapshot* snap) {
  auto is_schedule = [](const std::string& name) {
    return name.rfind("parallel.", 0) == 0;
  };
  std::erase_if(snap->counters,
                [&](const auto& c) { return is_schedule(c.name); });
  std::erase_if(snap->gauges,
                [&](const auto& g) { return is_schedule(g.name); });
  std::erase_if(snap->histograms,
                [&](const auto& h) { return is_schedule(h.name); });
}

int RunWorkloads(const std::vector<std::string>& workloads,
                 bool deterministic) {
  for (const std::string& w : workloads) {
    if (!KnownWorkload(w)) {
      std::fprintf(stderr, "gelc_stats: unknown workload '%s'\n", w.c_str());
      PrintWorkloadList(stderr);
      return 2;
    }
  }
  // Independence from the caller's env and from registration order:
  // metrics on, everything zeroed, then the workloads run. In
  // deterministic mode the timing plane is forced off so the snapshot
  // carries no timings section regardless of GELC_TIMINGS.
  obs::SetMetricsEnabled(true);
  if (deterministic) obs::SetTimingsEnabled(false);
  obs::ResetMetricsForTest();
  obs::ResetTimingsForTest();
  for (const std::string& w : workloads) {
    if (w == "wl" || w == "all") RunWlWorkload();
    if (w == "kwl" || w == "all") RunKwlWorkload();
    if (w == "spmm" || w == "all") RunSpmmWorkload();
    if (w == "train" || w == "all") RunTrainWorkload();
    if (w == "stream" || w == "all") RunStreamWorkload();
  }
  obs::StatsSnapshot snap = obs::Snapshot();
  if (deterministic) {
    StripScheduleMetrics(&snap);
    snap.timings.clear();
  }
  std::printf("%s\n", obs::SnapshotJson(snap).c_str());
  return 0;
}

int RunDiff(const std::vector<std::string>& args) {
  std::string old_path;
  std::string new_path;
  obs::DiffOptions options;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold") {
      if (++i >= args.size()) {
        std::fprintf(stderr, "gelc_stats: --threshold needs a value\n");
        return 2;
      }
      options.threshold = std::strtod(args[i].c_str(), nullptr);
    } else if (args[i] == "--ignore") {
      if (++i >= args.size()) {
        std::fprintf(stderr, "gelc_stats: --ignore needs a prefix\n");
        return 2;
      }
      options.ignore.push_back(args[i]);
    } else if (old_path.empty()) {
      old_path = args[i];
    } else if (new_path.empty()) {
      new_path = args[i];
    } else {
      std::fprintf(stderr, "gelc_stats: unexpected --diff argument '%s'\n",
                   args[i].c_str());
      return 2;
    }
  }
  if (old_path.empty() || new_path.empty()) {
    std::fprintf(stderr,
                 "usage: gelc_stats --diff OLD.json NEW.json "
                 "[--threshold X] [--ignore PREFIX]...\n");
    return 2;
  }
  obs::ParsedSnapshot old_snap;
  obs::ParsedSnapshot new_snap;
  Status s = obs::LoadSnapshotFile(old_path, &old_snap);
  if (s.ok()) s = obs::LoadSnapshotFile(new_path, &new_snap);
  if (!s.ok()) {
    std::fprintf(stderr, "gelc_stats: %s\n", s.message().c_str());
    return 2;
  }
  obs::DiffReport report = obs::DiffSnapshots(old_snap, new_snap, options);
  std::fputs(report.text.c_str(), stdout);
  return report.regressions.empty() ? 0 : 1;
}

int Run(const std::vector<std::string>& args) {
  bool deterministic = false;
  std::vector<std::string> workloads;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--diff") {
      return RunDiff(
          std::vector<std::string>(args.begin() + i + 1, args.end()));
    }
    if (args[i] == "--simd-tier") {
      std::printf("%s\n", simd::TierName(simd::ActiveTier()));
      return 0;
    }
    if (args[i] == "--deterministic") {
      deterministic = true;
      continue;
    }
    if (args[i] == "--help" || args[i] == "-h") {
      std::printf(
          "usage: gelc_stats [--deterministic] [WORKLOAD ...]\n"
          "       gelc_stats --diff OLD.json NEW.json [--threshold X] "
          "[--ignore PREFIX]...\n"
          "       gelc_stats --simd-tier\n");
      PrintWorkloadList(stdout);
      return 0;
    }
    workloads.push_back(args[i]);
  }
  if (workloads.empty()) workloads.push_back("all");
  return RunWorkloads(workloads, deterministic);
}

}  // namespace
}  // namespace gelc

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  return gelc::Run(args);
}
