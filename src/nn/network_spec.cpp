#include "nn/network_spec.hpp"

#include <memory>
#include <sstream>

#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "util/error.hpp"

namespace dlbench::nn {

LayerSpec LayerSpec::conv(std::int64_t out_channels, std::int64_t kernel,
                          std::int64_t pad, std::int64_t stride) {
  LayerSpec s{};
  s.kind = Kind::kConv;
  s.out_channels = out_channels;
  s.kernel = kernel;
  s.pad = pad;
  s.stride = stride;
  return s;
}

LayerSpec LayerSpec::max_pool(std::int64_t window, std::int64_t stride,
                              bool ceil_mode) {
  LayerSpec s{};
  s.kind = Kind::kMaxPool;
  s.window = window;
  s.stride = stride;
  s.ceil_mode = ceil_mode;
  return s;
}

LayerSpec LayerSpec::avg_pool(std::int64_t window, std::int64_t stride,
                              bool ceil_mode) {
  LayerSpec s{};
  s.kind = Kind::kAvgPool;
  s.window = window;
  s.stride = stride;
  s.ceil_mode = ceil_mode;
  return s;
}

LayerSpec LayerSpec::relu() {
  LayerSpec s{};
  s.kind = Kind::kRelu;
  return s;
}

LayerSpec LayerSpec::tanh() {
  LayerSpec s{};
  s.kind = Kind::kTanh;
  return s;
}

LayerSpec LayerSpec::dropout(float p) {
  LayerSpec s{};
  s.kind = Kind::kDropout;
  s.drop_p = p;
  return s;
}

LayerSpec LayerSpec::lrn() {
  LayerSpec s{};
  s.kind = Kind::kLrn;
  return s;
}

LayerSpec LayerSpec::linear(std::int64_t out_features) {
  LayerSpec s{};
  s.kind = Kind::kLinear;
  s.out_features = out_features;
  return s;
}

int NetworkSpec::num_weight_layers() const {
  int n = 0;
  for (const auto& op : ops)
    if (op.kind == LayerSpec::Kind::kConv ||
        op.kind == LayerSpec::Kind::kLinear)
      ++n;
  return n;
}

std::int64_t NetworkSpec::first_fc_width() const {
  for (const auto& op : ops)
    if (op.kind == LayerSpec::Kind::kLinear) return op.out_features;
  return 0;
}

NetworkSpec NetworkSpec::with_first_fc_width(std::int64_t width) const {
  DLB_CHECK(width > 0, "fc width must be positive");
  NetworkSpec copy = *this;
  for (auto& op : copy.ops) {
    if (op.kind == LayerSpec::Kind::kLinear) {
      op.out_features = width;
      std::ostringstream os;
      os << name << "(fc" << width << ")";
      copy.name = os.str();
      return copy;
    }
  }
  DLB_CHECK(false, "network " << name << " has no fc layer");
  return copy;  // unreachable
}

std::vector<std::string> NetworkSpec::describe_layers() const {
  std::vector<std::string> rows;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) rows.push_back(current);
    current.clear();
  };
  for (const auto& op : ops) {
    std::ostringstream os;
    switch (op.kind) {
      case LayerSpec::Kind::kConv:
        flush();
        os << "conv " << op.kernel << "x" << op.kernel << " ->"
           << op.out_channels;
        if (op.pad) os << " pad" << op.pad;
        current = os.str();
        break;
      case LayerSpec::Kind::kLinear:
        flush();
        os << "fc ->" << op.out_features;
        current = os.str();
        break;
      case LayerSpec::Kind::kMaxPool:
        os << "MaxPooling(" << op.window << "x" << op.window << ")";
        current += ", " + os.str();
        break;
      case LayerSpec::Kind::kAvgPool:
        os << "AveragePooling(" << op.window << "x" << op.window << ")";
        current += ", " + os.str();
        break;
      case LayerSpec::Kind::kRelu:
        current += ", ReLU";
        break;
      case LayerSpec::Kind::kTanh:
        current += ", Tanh";
        break;
      case LayerSpec::Kind::kDropout:
        os << ", Dropout(" << op.drop_p << ")";
        current += os.str();
        break;
      case LayerSpec::Kind::kLrn:
        current += ", Normalization";
        break;
    }
  }
  flush();
  return rows;
}

namespace {

// Conv and pool output sizes divide by the stride, so a spec's kernel or
// window and its stride are checked before any output size is computed.
void check_window(const NetworkSpec& spec, const char* op, std::int64_t size,
                  std::int64_t stride) {
  DLB_CHECK(size >= 1 && stride >= 1, spec.name << ": " << op << " size "
                                                << size << " / stride "
                                                << stride << " must be >= 1");
}

const char* pool_name(LayerSpec::Kind kind) {
  return kind == LayerSpec::Kind::kMaxPool ? "max pool" : "avg pool";
}

}  // namespace

Sequential build_model(const NetworkSpec& spec, util::Rng& rng,
                       ConvImpl conv_impl) {
  DLB_CHECK(!spec.ops.empty(), "network spec has no ops");
  Sequential model;

  // Shape tracking through the stack.
  bool spatial = true;  // still in [N, C, H, W] land
  std::int64_t c = spec.input_channels;
  std::int64_t h = spec.input_height;
  std::int64_t w = spec.input_width;
  std::int64_t features = 0;

  auto flatten_if_needed = [&] {
    if (!spatial) return;
    model.add(std::make_unique<Flatten>());
    features = c * h * w;
    spatial = false;
  };

  for (const auto& op : spec.ops) {
    switch (op.kind) {
      case LayerSpec::Kind::kConv: {
        DLB_CHECK(spatial, spec.name << ": conv after flatten");
        tensor::ConvGeom g;
        g.in_c = c;
        g.in_h = h;
        g.in_w = w;
        g.out_c = op.out_channels;
        g.kernel = op.kernel;
        g.stride = op.stride;
        g.pad = op.pad;
        check_window(spec, "conv", op.kernel, op.stride);
        DLB_CHECK(g.out_h() > 0 && g.out_w() > 0,
                  spec.name << ": conv output empty at " << h << "x" << w);
        if (conv_impl == ConvImpl::kDirect)
          model.add(std::make_unique<Conv2dDirect>(g, spec.init, rng));
        else
          model.add(std::make_unique<Conv2d>(g, spec.init, rng));
        c = g.out_c;
        h = g.out_h();
        w = g.out_w();
        break;
      }
      case LayerSpec::Kind::kMaxPool:
      case LayerSpec::Kind::kAvgPool: {
        DLB_CHECK(spatial, spec.name << ": pool after flatten");
        tensor::PoolGeom g;
        g.channels = c;
        g.in_h = h;
        g.in_w = w;
        g.window = op.window;
        g.stride = op.stride;
        g.ceil_mode = op.ceil_mode;
        check_window(spec, pool_name(op.kind), op.window, op.stride);
        DLB_CHECK(g.out_h() > 0 && g.out_w() > 0,
                  spec.name << ": pool output empty at " << h << "x" << w);
        if (op.kind == LayerSpec::Kind::kMaxPool)
          model.add(std::make_unique<MaxPool2d>(g));
        else
          model.add(std::make_unique<AvgPool2d>(g));
        h = g.out_h();
        w = g.out_w();
        break;
      }
      case LayerSpec::Kind::kRelu:
        model.add(std::make_unique<ReLU>());
        break;
      case LayerSpec::Kind::kTanh:
        model.add(std::make_unique<Tanh>());
        break;
      case LayerSpec::Kind::kDropout:
        model.add(std::make_unique<Dropout>(op.drop_p));
        break;
      case LayerSpec::Kind::kLrn:
        DLB_CHECK(spatial, spec.name << ": lrn after flatten");
        model.add(std::make_unique<LocalResponseNorm>());
        break;
      case LayerSpec::Kind::kLinear: {
        flatten_if_needed();
        model.add(std::make_unique<Linear>(features, op.out_features,
                                           spec.init, rng));
        features = op.out_features;
        break;
      }
    }
  }
  DLB_CHECK(!spatial, spec.name << ": network never reaches an fc layer");
  return model;
}

std::int64_t spec_forward_flops(const NetworkSpec& spec) {
  bool spatial = true;
  std::int64_t c = spec.input_channels;
  std::int64_t h = spec.input_height;
  std::int64_t w = spec.input_width;
  std::int64_t features = 0;
  std::int64_t flops = 0;
  for (const auto& op : spec.ops) {
    switch (op.kind) {
      case LayerSpec::Kind::kConv: {
        tensor::ConvGeom g;
        g.in_c = c;
        g.in_h = h;
        g.in_w = w;
        g.out_c = op.out_channels;
        g.kernel = op.kernel;
        g.stride = op.stride;
        g.pad = op.pad;
        check_window(spec, "conv", op.kernel, op.stride);
        flops += 2 * g.out_c * g.out_h() * g.out_w() * g.patch_size();
        c = g.out_c;
        h = g.out_h();
        w = g.out_w();
        break;
      }
      case LayerSpec::Kind::kMaxPool:
      case LayerSpec::Kind::kAvgPool: {
        tensor::PoolGeom g;
        g.channels = c;
        g.in_h = h;
        g.in_w = w;
        g.window = op.window;
        g.stride = op.stride;
        g.ceil_mode = op.ceil_mode;
        check_window(spec, pool_name(op.kind), op.window, op.stride);
        flops += c * g.out_h() * g.out_w() * op.window * op.window;
        h = g.out_h();
        w = g.out_w();
        break;
      }
      case LayerSpec::Kind::kRelu:
      case LayerSpec::Kind::kTanh:
      case LayerSpec::Kind::kDropout:
        flops += spatial ? c * h * w : features;
        break;
      case LayerSpec::Kind::kLrn:
        flops += 4 * c * h * w * 9;  // window of 2*radius+1 = 9
        break;
      case LayerSpec::Kind::kLinear: {
        if (spatial) {
          features = c * h * w;
          spatial = false;
        }
        flops += 2 * features * op.out_features;
        features = op.out_features;
        break;
      }
    }
  }
  return flops;
}

}  // namespace dlbench::nn
