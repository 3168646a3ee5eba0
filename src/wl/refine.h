// The one refinement loop of the WL family. Color refinement (slide 50),
// folklore and oblivious k-WL (slide 65), relational color refinement
// (slide 74) and the incremental refiner all run the same fixpoint
// iteration: recolor every item (a vertex or a k-tuple) of every graph by
// the interned signature of its previous-round neighborhood, until the
// joint partition stops splitting. A variant supplies only its round-0
// colors and how to sign an item from the previous round's colors.
//
// Determinism: signature bytes depend only on the previous round, so they
// are built in parallel shards; ids are then assigned by interning
// serially in (graph, item) order, exactly the first-seen order of a
// serial run. Colorings are therefore bit-identical at any thread count.
#ifndef GELC_WL_REFINE_H_
#define GELC_WL_REFINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/hash.h"
#include "tensor/matrix.h"

namespace gelc {

/// colors[g][i] = color id of item i (a vertex or a k-tuple) of graph g.
using Colorings = std::vector<std::vector<uint64_t>>;

/// Stable colors of several graphs refined jointly: ids come from one
/// shared interner, so colorings compare across the graphs by equality.
struct WlColoring {
  /// stable[g][i] = stable color of item i of graph g.
  Colorings stable;
  /// Number of refinement rounds run until stability.
  size_t rounds = 0;

  /// Sorted multiset of stable colors of graph g (the graph's signature,
  /// slide 50: "a graph gets a color based on the multiset of colors of
  /// all its vertices").
  std::vector<uint64_t> GraphSignature(size_t g) const;
};

/// Number of distinct ids across all colorings.
size_t CountDistinct(const Colorings& colorings);

/// Writes the signature bytes of items [begin, end) to sigs[0, end - begin).
using SignFn = std::function<void(size_t begin, size_t end, std::string* sigs)>;

/// Interns the signatures of items [0, out->size()) into `out`: bytes are
/// built in blocks on the pool (`grain` items per shard at least), then
/// interned serially in item order.
void InternSignatures(size_t grain, const SignFn& sign, Interner* interner,
                      std::vector<uint64_t>* out);

/// Round-0 colors of the rows of `features`: row v's bits, interned (exact
/// equality semantics).
std::vector<uint64_t> InternFeatureRows(const Matrix& features,
                                        Interner* interner);

/// Writes the round signature bytes of items [begin, end) of graph g,
/// computed from that graph's previous-round colors `prev`, to
/// sigs[0, end - begin).
using RoundSignFn =
    std::function<void(size_t g, const std::vector<uint64_t>& prev,
                       size_t begin, size_t end, std::string* sigs)>;

/// Refines `colors` (every graph's round-0 coloring on entry, its last
/// round's on return) until a round leaves the joint distinct-color count
/// unchanged, or for `max_rounds` rounds if that is non-negative. Each
/// round is one `wl.round` scope and interns every graph's signatures as
/// InternSignatures does, with `grain`. Appends every round's colors to
/// `history` when it is non-null. Returns the number of rounds run.
size_t Refine(const RoundSignFn& sign, size_t grain, int max_rounds,
              Interner* interner, Colorings* colors,
              std::vector<Colorings>* history);

}  // namespace gelc

#endif  // GELC_WL_REFINE_H_
