#include "workloads.h"

#include <cstring>

#include "base/hash.h"

namespace gelc::e2e {

Sizes Sizes::Tiny() {
  Sizes s;
  s.query_n = 256;
  s.query_ops = 60;
  s.train_graphs = 24;
  s.train_batch = 8;
  s.train_epochs = 3;
  s.stream_communities = 16;
  s.stream_community_size = 8;
  s.stream_batch = 4;
  s.stream_read_every = 3;
  return s;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"query", "train", "stream"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, const Sizes& sizes,
                                       Tracer* tracer) {
  if (name == "query") return MakeQueryWorkload(seed, sizes);
  if (name == "train") return MakeTrainWorkload(seed, sizes, tracer);
  if (name == "stream") return MakeStreamWorkload(seed, sizes);
  return nullptr;
}

uint64_t Digest(const Matrix& m) {
  uint64_t h = HashCombine(m.rows(), m.cols());
  for (double x : m.data()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data().data(), b.data().data(),
                      a.size() * sizeof(double)) == 0);
}

}  // namespace gelc::e2e
