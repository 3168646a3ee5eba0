#include "core/plan.h"

#include <sstream>

#include "base/strings.h"

namespace gelc {

namespace {

const char* AggKindName(ThetaAgg::Kind kind) {
  switch (kind) {
    case ThetaAgg::Kind::kOpaque:
      return "opaque";
    case ThetaAgg::Kind::kSum:
      return "sum";
    case ThetaAgg::Kind::kMean:
      return "mean";
    case ThetaAgg::Kind::kMax:
      return "max";
    case ThetaAgg::Kind::kCount:
      return "count";
  }
  return "?";
}

std::string ShapeString(const Matrix& m) {
  return "w[" + std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
         "]";
}

}  // namespace

const char* PlanOpKindName(PlanOpKind kind) {
  switch (kind) {
    case PlanOpKind::kLoadLabels:
      return "load_labels";
    case PlanOpKind::kConstant:
      return "const";
    case PlanOpKind::kConcat:
      return "concat";
    case PlanOpKind::kProject:
      return "project";
    case PlanOpKind::kScale:
      return "scale";
    case PlanOpKind::kAdd:
      return "add";
    case PlanOpKind::kMul:
      return "mul";
    case PlanOpKind::kActivation:
      return "activation";
    case PlanOpKind::kPointwise:
      return "pointwise";
    case PlanOpKind::kNeighborAgg:
      return "neighbor_agg";
    case PlanOpKind::kPool:
      return "pool";
    case PlanOpKind::kFusedLayer:
      return "fused_layer";
    case PlanOpKind::kGinCombine:
      return "gin_combine";
  }
  return "?";
}

const char* PlanCsrName(PlanCsr csr) {
  switch (csr) {
    case PlanCsr::kOut:
      return "out";
    case PlanCsr::kIn:
      return "in";
    case PlanCsr::kNorm:
      return "norm";
  }
  return "?";
}

const char* PlanGatherName(PlanGather gather) {
  switch (gather) {
    case PlanGather::kNeighbor:
      return "neighbor";
    case PlanGather::kSource:
      return "source";
    case PlanGather::kBroadcast:
      return "broadcast";
  }
  return "?";
}

std::string Plan::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanOp& op = ops[i];
    os << "%" << i << " = " << PlanOpKindName(op.kind);
    switch (op.kind) {
      case PlanOpKind::kLoadLabels: {
        os << " cols=[";
        for (size_t k = 0; k < op.label_cols.size(); ++k) {
          if (k != 0) os << ",";
          os << op.label_cols[k];
        }
        os << "]";
        break;
      }
      case PlanOpKind::kConstant: {
        if (op.constant.size() <= 4) {
          os << " [";
          for (size_t k = 0; k < op.constant.size(); ++k) {
            if (k != 0) os << ",";
            os << FormatDouble(op.constant[k]);
          }
          os << "]";
        } else {
          os << " [" << op.constant.size() << " values]";
        }
        break;
      }
      case PlanOpKind::kProject:
        os << " [" << op.project_begin << ","
           << op.project_begin + op.project_len << ") %" << op.inputs[0];
        break;
      case PlanOpKind::kScale:
        os << " " << FormatDouble(op.scale) << " %" << op.inputs[0];
        break;
      case PlanOpKind::kConcat:
      case PlanOpKind::kAdd:
      case PlanOpKind::kMul: {
        for (size_t k = 0; k < op.inputs.size(); ++k) {
          os << (k == 0 ? " %" : " %") << op.inputs[k];
        }
        break;
      }
      case PlanOpKind::kActivation:
        os << " " << ActivationName(op.act) << " %" << op.inputs[0];
        break;
      case PlanOpKind::kPointwise: {
        os << " " << op.fn->name;
        for (uint32_t s : op.inputs) os << " %" << s;
        break;
      }
      case PlanOpKind::kNeighborAgg:
        os << " " << AggKindName(op.agg) << " " << PlanCsrName(op.csr) << " "
           << PlanGatherName(op.gather) << " %" << op.inputs[0];
        break;
      case PlanOpKind::kPool:
        os << " " << AggKindName(op.agg)
           << (op.gather == PlanGather::kBroadcast ? " broadcast" : "")
           << " %" << op.inputs[0];
        break;
      case PlanOpKind::kFusedLayer: {
        os << " [";
        for (size_t k = 0; k < op.args.size(); ++k) {
          const PlanLayerArg& a = op.args[k];
          if (k != 0) os << ", ";
          if (a.aggregated) {
            os << "agg(" << AggKindName(a.agg) << "," << PlanCsrName(a.csr)
               << "," << PlanGatherName(a.gather) << ")";
          }
          os << "%" << a.input << "*" << ShapeString(*a.w);
        }
        os << "]";
        if (op.bias != nullptr) os << " +bias";
        if (op.act != Activation::kIdentity) {
          os << " act=" << ActivationName(op.act);
        }
        break;
      }
      case PlanOpKind::kGinCombine:
        os << " " << FormatDouble(op.scale) << " " << PlanCsrName(op.csr)
           << " %" << op.inputs[0];
        break;
    }
    os << " : " << (op.type.per_vertex ? "vertex[" : "global[")
       << op.type.dim << "]\n";
  }
  os << "result: %" << result << "\n";
  return os.str();
}

}  // namespace gelc
