// Plain-text graph serialization.
//
// Format (line-oriented, '#' comments allowed):
//   graph <n> <feature_dim> <directed:0|1>
//   v <id> <f_0> ... <f_{d-1}>          (optional; default zero features)
//   e <u> <v>
#ifndef GELC_GRAPH_IO_H_
#define GELC_GRAPH_IO_H_

#include <cstdint>
#include <string>

#include "base/status.h"
#include "graph/graph.h"

namespace gelc {

/// The largest graph a text header may declare, counted in cells of
/// n × max(d, 1): one per feature value, or one per vertex when d = 0.
/// 2^24 cells is at most 128 MB of features. A larger header, a negative
/// n or d, or an n beyond the 32-bit VertexId range is an IOError raised
/// before anything is allocated.
inline constexpr uint64_t kMaxGraphTextCells = uint64_t{1} << 24;

/// Parses a graph from the text format above.
Result<Graph> ParseGraphText(const std::string& text);

/// Serializes a graph to the text format above; ParseGraphText round-trips.
std::string SerializeGraphText(const Graph& g);

}  // namespace gelc

#endif  // GELC_GRAPH_IO_H_
