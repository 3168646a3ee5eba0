// WL hierarchy explorer: pushes classic hard pairs and CFI constructions
// through isomorphism / color refinement / k-WL and prints which level of
// the hierarchy first separates each pair (slide 65).
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "wl/color_refinement.h"
#include "wl/isomorphism.h"
#include "wl/kwl.h"

using namespace gelc;

namespace {

void Report(const std::string& name, const Graph& a, const Graph& b) {
  Result<bool> iso = AreIsomorphic(a, b, /*max_steps=*/5'000'000);
  std::string iso_str =
      iso.ok() ? (*iso ? "isomorphic" : "non-isomorphic") : "undecided";
  std::string sep = "none (<= 3)";
  Result<size_t> k = MinimalSeparatingK(a, b, 3);
  if (k.ok() && *k > 0) {
    sep = (*k == 1) ? "color refinement" : std::to_string(*k) + "-WL";
  } else if (!k.ok()) {
    sep = "error: " + k.status().ToString();
  }
  std::printf("%-28s n=%-3zu %-16s first separated by: %s\n", name.c_str(),
              a.num_vertices(), iso_str.c_str(), sep.c_str());
}

}  // namespace

int main() {
  std::printf("pair                         size  isomorphism     "
              "separation level\n");
  std::printf("--------------------------------------------------"
              "----------------\n");

  auto [c6, two_c3] = Cr_HardPair();
  Report("C6 vs C3+C3", c6, two_c3);

  auto [shrikhande, rook] = Srg16Pair();
  Report("Shrikhande vs Rook 4x4", shrikhande, rook);

  Report("P4 vs Star3", PathGraph(4), StarGraph(3));
  Report("C5 vs C5", CycleGraph(5), CycleGraph(5));

  for (size_t n : {4u, 5u, 6u}) {
    auto pair = CfiPair(CycleGraph(n));
    if (pair.ok()) {
      Report("CFI(C" + std::to_string(n) + ") twist",
             pair->first, pair->second);
    }
  }
  auto k4_pair = CfiPair(CompleteGraph(4));
  if (k4_pair.ok()) {
    Report("CFI(K4) twist", k4_pair->first, k4_pair->second);
  }

  std::printf(
      "\nReading: pairs separated only at level k require (k+1)-variable\n"
      "GEL expressions (slide 66); MPNNs top out at the color-refinement\n"
      "row (slides 26, 51).\n");
  return 0;
}
