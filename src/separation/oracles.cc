#include "separation/oracles.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "core/compile_gnn.h"
#include "core/eval.h"
#include "gnn/fgnn.h"
#include "hom/hom_count.h"
#include "hom/trees.h"
#include "wl/color_refinement.h"
#include "wl/isomorphism.h"
#include "wl/kwl.h"

namespace gelc {

namespace {

class IsoOracle : public EquivalenceOracle {
 public:
  explicit IsoOracle(size_t max_steps) : max_steps_(max_steps) {}
  std::string name() const override { return "iso"; }
  Result<bool> Equivalent(const Graph& a, const Graph& b) override {
    return AreIsomorphic(a, b, max_steps_);
  }

 private:
  size_t max_steps_;
};

class CrOracle : public EquivalenceOracle {
 public:
  std::string name() const override { return "CR"; }
  Result<bool> Equivalent(const Graph& a, const Graph& b) override {
    return CrEquivalentGraphs(a, b);
  }
};

class KwlOracle : public EquivalenceOracle {
 public:
  explicit KwlOracle(size_t k) : k_(k) {}
  std::string name() const override {
    return std::to_string(k_) + "-WL";
  }
  Result<bool> Equivalent(const Graph& a, const Graph& b) override {
    return KwlEquivalentGraphs(a, b, k_);
  }

 private:
  size_t k_;
};

class TreeHomOracle : public EquivalenceOracle {
 public:
  explicit TreeHomOracle(size_t max_tree_vertices)
      : max_tree_vertices_(max_tree_vertices) {}
  std::string name() const override {
    return "hom(trees<=" + std::to_string(max_tree_vertices_) + ")";
  }
  Result<bool> Equivalent(const Graph& a, const Graph& b) override {
    if (trees_.empty()) {
      GELC_ASSIGN_OR_RETURN(trees_, AllTreesUpTo(max_tree_vertices_));
    }
    GELC_ASSIGN_OR_RETURN(std::vector<int64_t> pa, TreeHomProfile(a, trees_));
    GELC_ASSIGN_OR_RETURN(std::vector<int64_t> pb, TreeHomProfile(b, trees_));
    return pa == pb;
  }

 private:
  size_t max_tree_vertices_;
  std::vector<Graph> trees_;
};

// Sampled ρ(F) for a class of random models: equivalent iff none of
// `num_models` draws separates the pair's graph embeddings by more than
// `tolerance` in max norm. Draws come in order from one Rng seeded with
// `seed`, with widths [feature dim, hidden widths...].
class ModelProbeOracle : public EquivalenceOracle {
 public:
  using Embedding = std::function<Result<Matrix>(const Graph&)>;
  using Draw =
      std::function<Result<Embedding>(const std::vector<size_t>&, Rng*)>;

  ModelProbeOracle(std::string name, size_t num_models,
              std::vector<size_t> hidden_widths, double tolerance,
              uint64_t seed, Draw draw)
      : name_(std::move(name)),
        num_models_(num_models),
        hidden_widths_(std::move(hidden_widths)),
        tolerance_(tolerance),
        seed_(seed),
        draw_(std::move(draw)) {}
  std::string name() const override { return name_; }
  Result<bool> Equivalent(const Graph& a, const Graph& b) override {
    if (a.feature_dim() != b.feature_dim()) return false;
    Rng rng(seed_);
    std::vector<size_t> widths = {a.feature_dim()};
    widths.insert(widths.end(), hidden_widths_.begin(),
                  hidden_widths_.end());
    for (size_t i = 0; i < num_models_; ++i) {
      GELC_ASSIGN_OR_RETURN(Embedding embed, draw_(widths, &rng));
      GELC_ASSIGN_OR_RETURN(Matrix ea, embed(a));
      GELC_ASSIGN_OR_RETURN(Matrix eb, embed(b));
      if (ea.rows() != eb.rows() || ea.cols() != eb.cols()) return false;
      if (ea.MaxAbsDiff(eb) > tolerance_) return false;
    }
    return true;
  }

 private:
  std::string name_;
  size_t num_models_;
  std::vector<size_t> hidden_widths_;
  double tolerance_;
  uint64_t seed_;
  Draw draw_;
};

// The graph embedding of a drawn model that runs as its compiled plan.
template <typename Model>
ModelProbeOracle::Embedding CompiledEmbedding(Model model) {
  return [model = std::move(model)](const Graph& g) {
    return GraphEmbedding(model, g);
  };
}

class GelSuiteOracle : public EquivalenceOracle {
 public:
  GelSuiteOracle(std::vector<ExprPtr> expressions, double tolerance,
                 std::string name)
      : expressions_(std::move(expressions)),
        tolerance_(tolerance),
        name_(std::move(name)) {}
  std::string name() const override { return name_; }
  Result<bool> Equivalent(const Graph& a, const Graph& b) override {
    Evaluator ea(a);
    Evaluator eb(b);
    for (const ExprPtr& e : expressions_) {
      GELC_ASSIGN_OR_RETURN(std::vector<double> va, ea.EvalClosed(e));
      GELC_ASSIGN_OR_RETURN(std::vector<double> vb, eb.EvalClosed(e));
      if (va.size() != vb.size()) return false;
      for (size_t i = 0; i < va.size(); ++i) {
        if (std::abs(va[i] - vb[i]) > tolerance_) return false;
      }
    }
    return true;
  }

 private:
  std::vector<ExprPtr> expressions_;
  double tolerance_;
  std::string name_;
};

}  // namespace

OraclePtr MakeIsomorphismOracle(size_t max_steps) {
  return std::make_unique<IsoOracle>(max_steps);
}

OraclePtr MakeCrOracle() { return std::make_unique<CrOracle>(); }

OraclePtr MakeKwlOracle(size_t k) { return std::make_unique<KwlOracle>(k); }

OraclePtr MakeTreeHomOracle(size_t max_tree_vertices) {
  return std::make_unique<TreeHomOracle>(max_tree_vertices);
}

OraclePtr MakeGnn101ProbeOracle(size_t num_models,
                                std::vector<size_t> hidden_widths,
                                double tolerance, uint64_t seed) {
  return std::make_unique<ModelProbeOracle>(
      "GNN101-probe", num_models, std::move(hidden_widths), tolerance, seed,
      [](const std::vector<size_t>& widths,
         Rng* rng) -> Result<ModelProbeOracle::Embedding> {
        GELC_ASSIGN_OR_RETURN(
            Gnn101Model model,
            Gnn101Model::Random(widths, Activation::kTanh, 0.8, rng));
        return CompiledEmbedding(std::move(model));
      });
}

OraclePtr MakeMpnnProbeOracle(size_t num_models,
                              std::vector<size_t> hidden_widths,
                              int aggregation, double tolerance,
                              uint64_t seed) {
  Aggregation agg = aggregation == 0   ? Aggregation::kSum
                    : aggregation == 1 ? Aggregation::kMean
                                       : Aggregation::kMax;
  return std::make_unique<ModelProbeOracle>(
      std::string("MPNN[") + AggregationName(agg) + "]-probe", num_models,
      std::move(hidden_widths), tolerance, seed,
      [agg](const std::vector<size_t>& widths,
            Rng* rng) -> Result<ModelProbeOracle::Embedding> {
        GELC_ASSIGN_OR_RETURN(MpnnModel model,
                              MpnnModel::Random(widths, agg, 0.8, rng));
        return CompiledEmbedding(std::move(model));
      });
}

OraclePtr MakeFgnn2ProbeOracle(size_t num_models,
                               std::vector<size_t> hidden_widths,
                               double tolerance, uint64_t seed) {
  return std::make_unique<ModelProbeOracle>(
      "2FGNN-probe", num_models, std::move(hidden_widths), tolerance, seed,
      [](const std::vector<size_t>& widths,
         Rng* rng) -> Result<ModelProbeOracle::Embedding> {
        GELC_ASSIGN_OR_RETURN(Fgnn2Model model,
                              Fgnn2Model::Random(widths, 0.8, rng));
        return ModelProbeOracle::Embedding(
            [model = std::move(model)](const Graph& g) {
              return model.GraphEmbedding(g);
            });
      });
}

OraclePtr MakeIdGnnProbeOracle(size_t num_models,
                               std::vector<size_t> hidden_widths,
                               double tolerance, uint64_t seed) {
  return std::make_unique<ModelProbeOracle>(
      "IdGNN-probe", num_models, std::move(hidden_widths), tolerance, seed,
      [](const std::vector<size_t>& widths,
         Rng* rng) -> Result<ModelProbeOracle::Embedding> {
        GELC_ASSIGN_OR_RETURN(
            IdGnnModel model,
            IdGnnModel::Random(widths, Activation::kTanh, 0.8, rng));
        return CompiledEmbedding(std::move(model));
      });
}

OraclePtr MakeGelSuiteOracle(std::vector<ExprPtr> expressions,
                             double tolerance, std::string name) {
  return std::make_unique<GelSuiteOracle>(std::move(expressions), tolerance,
                                          std::move(name));
}

PairVerdicts ComparePair(const std::string& pair_name, const Graph& a,
                         const Graph& b,
                         const std::vector<EquivalenceOracle*>& oracles) {
  PairVerdicts out;
  out.pair_name = pair_name;
  for (EquivalenceOracle* oracle : oracles) {
    out.oracle_names.push_back(oracle->name());
    Result<bool> r = oracle->Equivalent(a, b);
    if (!r.ok()) {
      out.verdicts.push_back("error: " + r.status().ToString());
    } else {
      out.verdicts.push_back(*r ? "equiv" : "separated");
    }
  }
  return out;
}

std::string FormatVerdictTable(const std::vector<PairVerdicts>& rows) {
  if (rows.empty()) return "";
  // Column widths.
  size_t name_width = 4;
  for (const auto& row : rows)
    name_width = std::max(name_width, row.pair_name.size());
  std::vector<size_t> col_width;
  for (const auto& n : rows[0].oracle_names)
    col_width.push_back(std::max<size_t>(n.size(), 9));
  for (const auto& row : rows)
    for (size_t i = 0; i < row.verdicts.size() && i < col_width.size(); ++i)
      col_width[i] = std::max(col_width[i], row.verdicts[i].size());

  std::ostringstream os;
  os << std::string(name_width, ' ');
  for (size_t i = 0; i < rows[0].oracle_names.size(); ++i) {
    os << "  " << rows[0].oracle_names[i]
       << std::string(col_width[i] - rows[0].oracle_names[i].size(), ' ');
  }
  os << "\n";
  for (const auto& row : rows) {
    os << row.pair_name
       << std::string(name_width - row.pair_name.size(), ' ');
    for (size_t i = 0; i < row.verdicts.size(); ++i) {
      os << "  " << row.verdicts[i]
         << std::string(col_width[i] - row.verdicts[i].size(), ' ');
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace gelc
