#include "wl/refine.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "base/parallel.h"
#include "obs/trace.h"

namespace gelc {

namespace {

// Items signed per block: the signatures of one block are materialized
// at once, which bounds memory on n^k tuple tables; the fixed size keeps
// the schedule deterministic.
constexpr size_t kSignBlock = size_t{1} << 15;

// Bitwise image of a feature row (exact equality semantics).
std::string FeatureSignature(const Matrix& features, size_t v) {
  std::string buf(features.cols() * sizeof(double), '\0');
  for (size_t j = 0; j < features.cols(); ++j) {
    double x = features.At(v, j);
    std::memcpy(buf.data() + j * sizeof(double), &x, sizeof(double));
  }
  return buf;
}

}  // namespace

std::vector<uint64_t> WlColoring::GraphSignature(size_t g) const {
  GELC_CHECK(g < stable.size());
  std::vector<uint64_t> sig = stable[g];
  std::sort(sig.begin(), sig.end());
  return sig;
}

size_t CountDistinct(const Colorings& colorings) {
  std::vector<uint64_t> all;
  for (const auto& c : colorings) all.insert(all.end(), c.begin(), c.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all.size();
}

void InternSignatures(size_t grain, const SignFn& sign, Interner* interner,
                      std::vector<uint64_t>* out) {
  const size_t items = out->size();
  std::vector<std::string> sigs;
  for (size_t block = 0; block < items; block += kSignBlock) {
    const size_t block_end = std::min(items, block + kSignBlock);
    sigs.resize(block_end - block);
    ParallelFor(block, block_end, grain, [&](size_t begin, size_t end) {
      sign(begin, end, sigs.data() + (begin - block));
    });
    for (size_t i = block; i < block_end; ++i)
      (*out)[i] = interner->Intern(sigs[i - block]);
  }
}

std::vector<uint64_t> InternFeatureRows(const Matrix& features,
                                        Interner* interner) {
  std::vector<uint64_t> colors(features.rows());
  InternSignatures(
      64,
      [&](size_t begin, size_t end, std::string* sigs) {
        for (size_t v = begin; v < end; ++v)
          sigs[v - begin] = FeatureSignature(features, v);
      },
      interner, &colors);
  return colors;
}

size_t Refine(const RoundSignFn& sign, size_t grain, int max_rounds,
              Interner* interner, Colorings* colors,
              std::vector<Colorings>* history) {
  static obs::LatencyHistogram* round_series =
      obs::GetLatencyHistogram("wl.round");
  size_t prev_distinct = CountDistinct(*colors);
  size_t rounds = 0;
  for (size_t round = 1;; ++round) {
    if (max_rounds >= 0 && round > static_cast<size_t>(max_rounds)) break;
    obs::Scope round_span(round_series, {{"round", round}});
    Colorings next(colors->size());
    for (size_t g = 0; g < colors->size(); ++g) {
      const std::vector<uint64_t>& prev = (*colors)[g];
      next[g].resize(prev.size());
      InternSignatures(
          grain,
          [&](size_t begin, size_t end, std::string* sigs) {
            sign(g, prev, begin, end, sigs);
          },
          interner, &next[g]);
    }
    const size_t distinct = CountDistinct(next);
    round_span.SetArg("colors", static_cast<int64_t>(distinct));
    *colors = std::move(next);
    if (history != nullptr) history->push_back(*colors);
    rounds = round;
    if (distinct == prev_distinct) break;  // partition stable
    prev_distinct = distinct;
  }
  return rounds;
}

}  // namespace gelc
