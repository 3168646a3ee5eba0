#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>

namespace gelc {

Result<Graph> ParseGraphText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::optional<Graph> g;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    auto err = [&](const std::string& msg) {
      return Status::IOError("line " + std::to_string(line_no) + ": " + msg);
    };
    if (kind == "graph") {
      if (g.has_value()) return err("duplicate graph header");
      // Signed, so "-1" is an error instead of a wrapped size; every
      // bound is checked before the graph is allocated.
      long long n, d;
      int directed;
      if (!(ls >> n >> d >> directed)) return err("malformed graph header");
      if (n < 0 || d < 0) return err("negative graph size");
      if (static_cast<unsigned long long>(n) >
          std::numeric_limits<VertexId>::max()) {
        return err("vertex count exceeds the 32-bit vertex id range");
      }
      if (static_cast<uint64_t>(d) > kMaxGraphTextCells ||
          static_cast<uint64_t>(n) * std::max<uint64_t>(d, 1) >
              kMaxGraphTextCells) {
        return err("graph size exceeds " +
                   std::to_string(kMaxGraphTextCells) + " cells");
      }
      g.emplace(static_cast<size_t>(n), static_cast<size_t>(d),
                directed != 0);
    } else if (kind == "v") {
      if (!g.has_value()) return err("vertex before graph header");
      size_t id;
      if (!(ls >> id)) return err("malformed vertex line");
      if (id >= g->num_vertices()) return err("vertex id out of range");
      for (size_t j = 0; j < g->feature_dim(); ++j) {
        double x;
        if (!(ls >> x)) return err("missing feature value");
        g->mutable_features().At(id, j) = x;
      }
    } else if (kind == "e") {
      if (!g.has_value()) return err("edge before graph header");
      size_t u, v;
      if (!(ls >> u >> v)) return err("malformed edge line");
      if (u >= g->num_vertices() || v >= g->num_vertices())
        return err("edge endpoint out of range");
      Status s = g->AddEdge(static_cast<VertexId>(u),
                            static_cast<VertexId>(v));
      if (!s.ok()) return err(s.ToString());
    } else {
      return err("unknown record kind '" + kind + "'");
    }
  }
  if (!g.has_value()) return Status::IOError("missing graph header");
  return std::move(*g);
}

std::string SerializeGraphText(const Graph& g) {
  std::ostringstream os;
  os.precision(17);
  os << "graph " << g.num_vertices() << " " << g.feature_dim() << " "
     << (g.directed() ? 1 : 0) << "\n";
  for (size_t v = 0; v < g.num_vertices(); ++v) {
    os << "v " << v;
    for (size_t j = 0; j < g.feature_dim(); ++j)
      os << " " << g.features().At(v, j);
    os << "\n";
  }
  for (size_t u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
      if (!g.directed() && v < u) continue;
      os << "e " << u << " " << v << "\n";
    }
  }
  return os.str();
}

}  // namespace gelc
