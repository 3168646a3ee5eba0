#include "logic/gml.h"

#include <algorithm>

#include "base/logging.h"

namespace gelc {

GmlPtr GmlFormula::True() {
  // NOLINTNEXTLINE(banned-alloc): private ctor, goes into GmlPtr
  return GmlPtr(new GmlFormula(Kind::kTrue, 0, 0, nullptr, nullptr));
}

GmlPtr GmlFormula::Label(size_t j) {
  // NOLINTNEXTLINE(banned-alloc): private ctor, goes into GmlPtr
  return GmlPtr(new GmlFormula(Kind::kLabel, j, 0, nullptr, nullptr));
}

GmlPtr GmlFormula::Not(GmlPtr f) {
  GELC_CHECK(f != nullptr);
  // NOLINTNEXTLINE(banned-alloc): private ctor, goes into GmlPtr
  return GmlPtr(new GmlFormula(Kind::kNot, 0, 0, std::move(f), nullptr));
}

GmlPtr GmlFormula::And(GmlPtr a, GmlPtr b) {
  GELC_CHECK(a != nullptr && b != nullptr);
  return GmlPtr(
      // NOLINTNEXTLINE(banned-alloc): private ctor, goes into GmlPtr
      new GmlFormula(Kind::kAnd, 0, 0, std::move(a), std::move(b)));
}

GmlPtr GmlFormula::Or(GmlPtr a, GmlPtr b) {
  GELC_CHECK(a != nullptr && b != nullptr);
  // NOLINTNEXTLINE(banned-alloc): private ctor, goes into GmlPtr
  return GmlPtr(new GmlFormula(Kind::kOr, 0, 0, std::move(a), std::move(b)));
}

GmlPtr GmlFormula::AtLeast(size_t n, GmlPtr f) {
  GELC_CHECK(n >= 1);
  GELC_CHECK(f != nullptr);
  return GmlPtr(
      // NOLINTNEXTLINE(banned-alloc): private ctor, goes into GmlPtr
      new GmlFormula(Kind::kAtLeast, 0, n, std::move(f), nullptr));
}

size_t GmlFormula::Height() const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kLabel:
      return 1;
    case Kind::kNot:
    case Kind::kAtLeast:
      return 1 + left_->Height();
    case Kind::kAnd:
    case Kind::kOr:
      return 1 + std::max(left_->Height(), right_->Height());
  }
  return 1;
}

size_t GmlFormula::MinFeatureDim() const {
  switch (kind_) {
    case Kind::kTrue:
      return 0;
    case Kind::kLabel:
      return label_index_ + 1;
    case Kind::kNot:
    case Kind::kAtLeast:
      return left_->MinFeatureDim();
    case Kind::kAnd:
    case Kind::kOr:
      return std::max(left_->MinFeatureDim(), right_->MinFeatureDim());
  }
  return 0;
}

std::string GmlFormula::ToString() const {
  // Appends instead of operator+ chains: at -O3, GCC 12 reports a false
  // -Wrestrict inside the chained std::string concatenations, which
  // -Werror turns into a Release build failure.
  std::string out;
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kLabel:
      out = "lab_";
      out += std::to_string(label_index_);
      return out;
    case Kind::kNot:
      out = "!";
      out += left_->ToString();
      return out;
    case Kind::kAnd:
    case Kind::kOr:
      out = "(";
      out += left_->ToString();
      out += kind_ == Kind::kAnd ? " & " : " | ";
      out += right_->ToString();
      out += ")";
      return out;
    case Kind::kAtLeast:
      out = "<>";
      out += std::to_string(count_);
      out += " ";
      out += left_->ToString();
      return out;
  }
  return "?";
}

GmlPtr GmlFormula::Random(size_t height, size_t num_labels, size_t max_grade,
                          Rng* rng) {
  GELC_CHECK(height >= 1 && num_labels >= 1 && max_grade >= 1);
  if (height == 1) {
    if (rng->NextBounded(4) == 0) return True();
    return Label(rng->NextBounded(num_labels));
  }
  switch (rng->NextBounded(4)) {
    case 0:
      return Not(Random(height - 1, num_labels, max_grade, rng));
    case 1:
      return And(Random(height - 1, num_labels, max_grade, rng),
                 Random(1 + rng->NextBounded(height - 1), num_labels,
                        max_grade, rng));
    case 2:
      return Or(Random(height - 1, num_labels, max_grade, rng),
                Random(1 + rng->NextBounded(height - 1), num_labels,
                       max_grade, rng));
    default:
      return AtLeast(1 + rng->NextBounded(max_grade),
                     Random(height - 1, num_labels, max_grade, rng));
  }
}

Result<std::vector<bool>> EvaluateGml(const GmlPtr& f, const Graph& g) {
  if (f == nullptr) return Status::InvalidArgument("null formula");
  if (f->MinFeatureDim() > g.feature_dim()) {
    return Status::InvalidArgument(
        "formula references label index beyond graph feature dim");
  }
  size_t n = g.num_vertices();
  switch (f->kind()) {
    case GmlFormula::Kind::kTrue:
      return std::vector<bool>(n, true);
    case GmlFormula::Kind::kLabel: {
      std::vector<bool> out(n);
      for (size_t v = 0; v < n; ++v)
        out[v] = g.features().At(v, f->label_index()) >= 0.5;
      return out;
    }
    case GmlFormula::Kind::kNot: {
      GELC_ASSIGN_OR_RETURN(std::vector<bool> a, EvaluateGml(f->left(), g));
      for (size_t v = 0; v < n; ++v) a[v] = !a[v];
      return a;
    }
    case GmlFormula::Kind::kAnd:
    case GmlFormula::Kind::kOr: {
      GELC_ASSIGN_OR_RETURN(std::vector<bool> a, EvaluateGml(f->left(), g));
      GELC_ASSIGN_OR_RETURN(std::vector<bool> b, EvaluateGml(f->right(), g));
      bool is_and = f->kind() == GmlFormula::Kind::kAnd;
      for (size_t v = 0; v < n; ++v)
        a[v] = is_and ? (a[v] && b[v]) : (a[v] || b[v]);
      return a;
    }
    case GmlFormula::Kind::kAtLeast: {
      GELC_ASSIGN_OR_RETURN(std::vector<bool> a, EvaluateGml(f->left(), g));
      std::vector<bool> out(n);
      for (size_t v = 0; v < n; ++v) {
        size_t hits = 0;
        for (VertexId u : g.Neighbors(static_cast<VertexId>(v)))
          if (a[u]) ++hits;
        out[v] = hits >= f->count();
      }
      return out;
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace gelc
