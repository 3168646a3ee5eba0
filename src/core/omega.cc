#include "core/omega.h"

#include <cstring>

#include "base/logging.h"
#include "base/strings.h"

namespace gelc {
namespace omega {

OmegaPtr Concat(const std::vector<size_t>& arg_dims) {
  auto f = std::make_shared<OmegaFn>();
  f->name = "concat";
  f->kind = OmegaFn::Kind::kConcat;
  f->arg_dims = arg_dims;
  f->out_dim = f->total_in_dim();
  std::vector<size_t> dims = arg_dims;
  f->fn = [dims](const std::vector<const double*>& args, double* out) {
    size_t off = 0;
    for (size_t i = 0; i < dims.size(); ++i) {
      std::memcpy(out + off, args[i], dims[i] * sizeof(double));
      off += dims[i];
    }
  };
  return f;
}

Result<OmegaPtr> Linear(const std::vector<size_t>& arg_dims, Matrix w,
                        Matrix b) {
  size_t in = 0;
  for (size_t d : arg_dims) in += d;
  if (w.rows() != in) {
    return Status::InvalidArgument("Linear: W rows != total input dim");
  }
  if (b.rows() != 1 || b.cols() != w.cols()) {
    return Status::InvalidArgument("Linear: bias shape mismatch");
  }
  auto f = std::make_shared<OmegaFn>();
  f->name = "linear";
  f->kind = OmegaFn::Kind::kLinear;
  f->arg_dims = arg_dims;
  f->out_dim = w.cols();
  std::vector<size_t> dims = arg_dims;
  auto wp = std::make_shared<Matrix>(std::move(w));
  auto bp = std::make_shared<Matrix>(std::move(b));
  f->weight = wp;
  f->bias = bp;
  // Per-argument partial sums, combined left to right with the bias added
  // last: (x_1 W_1) + (x_2 W_2) + ... + b, each partial accumulated in
  // ascending component order from 0 with no zero-skip. This is the exact
  // grouping of the per-argument MatMul + AddRowBroadcast sequence and of
  // the compiled-plan executor's fused layer, so all of them produce
  // identical bits.
  f->fn = [dims, wp, bp](const std::vector<const double*>& args,
                         double* out) {
    size_t out_dim = wp->cols();
    std::vector<double> partial(out_dim);
    for (size_t j = 0; j < out_dim; ++j) out[j] = 0.0;
    size_t row = 0;
    for (size_t i = 0; i < dims.size(); ++i) {
      double* acc = i == 0 ? out : partial.data();
      for (size_t j = 0; j < out_dim; ++j) acc[j] = 0.0;
      for (size_t c = 0; c < dims[i]; ++c, ++row) {
        double x = args[i][c];
        for (size_t j = 0; j < out_dim; ++j) acc[j] += x * wp->At(row, j);
      }
      if (i != 0) {
        for (size_t j = 0; j < out_dim; ++j) out[j] += partial[j];
      }
    }
    for (size_t j = 0; j < out_dim; ++j) out[j] += bp->At(0, j);
  };
  return OmegaPtr(f);
}

OmegaPtr ActivationFn(Activation act, size_t d) {
  auto f = std::make_shared<OmegaFn>();
  f->name = ActivationName(act);
  f->kind = OmegaFn::Kind::kActivation;
  f->act = act;
  f->arg_dims = {d};
  f->out_dim = d;
  f->fn = [act, d](const std::vector<const double*>& args, double* out) {
    for (size_t j = 0; j < d; ++j) out[j] = ApplyActivation(act, args[0][j]);
  };
  return f;
}

OmegaPtr Add(size_t d) {
  auto f = std::make_shared<OmegaFn>();
  f->name = "add";
  f->kind = OmegaFn::Kind::kAdd;
  f->arg_dims = {d, d};
  f->out_dim = d;
  f->fn = [d](const std::vector<const double*>& args, double* out) {
    for (size_t j = 0; j < d; ++j) out[j] = args[0][j] + args[1][j];
  };
  return f;
}

OmegaPtr Multiply(size_t d) {
  auto f = std::make_shared<OmegaFn>();
  f->name = "mul";
  f->kind = OmegaFn::Kind::kMultiply;
  f->arg_dims = {d, d};
  f->out_dim = d;
  f->fn = [d](const std::vector<const double*>& args, double* out) {
    for (size_t j = 0; j < d; ++j) out[j] = args[0][j] * args[1][j];
  };
  return f;
}

OmegaPtr Scale(double c, size_t d) {
  auto f = std::make_shared<OmegaFn>();
  // The parameter is part of the name so expressions round-trip through
  // the text syntax (core/parser.h).
  f->name = "scale[" + FormatDouble(c) + "]";
  f->kind = OmegaFn::Kind::kScale;
  f->scale = c;
  f->arg_dims = {d};
  f->out_dim = d;
  f->fn = [c, d](const std::vector<const double*>& args, double* out) {
    for (size_t j = 0; j < d; ++j) out[j] = c * args[0][j];
  };
  return f;
}

Result<OmegaPtr> FromMlp(const std::vector<size_t>& arg_dims, Mlp mlp) {
  size_t in = 0;
  for (size_t d : arg_dims) in += d;
  if (mlp.empty() || mlp.in_dim() != in) {
    return Status::InvalidArgument("FromMlp: MLP input dim mismatch");
  }
  auto f = std::make_shared<OmegaFn>();
  f->name = "mlp";
  f->kind = OmegaFn::Kind::kMlp;
  f->arg_dims = arg_dims;
  f->out_dim = mlp.out_dim();
  std::vector<size_t> dims = arg_dims;
  auto mp = std::make_shared<Mlp>(std::move(mlp));
  f->mlp = mp;
  f->fn = [dims, mp, in](const std::vector<const double*>& args,
                         double* out) {
    Matrix x(1, in);
    size_t off = 0;
    for (size_t i = 0; i < dims.size(); ++i)
      for (size_t c = 0; c < dims[i]; ++c) x.At(0, off++) = args[i][c];
    Matrix y = mp->Forward(x);
    for (size_t j = 0; j < y.cols(); ++j) out[j] = y.At(0, j);
  };
  return OmegaPtr(f);
}

Result<OmegaPtr> Project(size_t d, size_t begin, size_t len) {
  if (begin > d || len > d - begin || len == 0) {
    return Status::OutOfRange("Project: component range out of range");
  }
  auto f = std::make_shared<OmegaFn>();
  f->name = "project[" + std::to_string(begin) + "," + std::to_string(len) +
            "]";
  f->kind = OmegaFn::Kind::kProject;
  f->project_begin = begin;
  f->project_len = len;
  f->arg_dims = {d};
  f->out_dim = len;
  f->fn = [begin, len](const std::vector<const double*>& args, double* out) {
    std::memcpy(out, args[0] + begin, len * sizeof(double));
  };
  return OmegaPtr(f);
}

}  // namespace omega
}  // namespace gelc
