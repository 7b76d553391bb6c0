// Layer probes: time the modules' public functions from outside, at a
// workload's own model, batch and device, and derive rooflines from
// the layer shapes.

#include <cstring>
#include <vector>

#include "adversarial/attacks.hpp"
#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nn = dlbench::nn;
using dlbench::runtime::Device;
using dlbench::tensor::Shape;
using dlbench::tensor::Tensor;

namespace {

constexpr int kReps = 7;

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

enum class Kind { kConv, kPool, kFc, kAct, kOther };

Kind kind_of(nn::Layer& layer) {
  if (dynamic_cast<nn::Conv2d*>(&layer) || dynamic_cast<nn::Conv2dDirect*>(&layer))
    return Kind::kConv;
  if (dynamic_cast<nn::MaxPool2d*>(&layer) || dynamic_cast<nn::AvgPool2d*>(&layer))
    return Kind::kPool;
  if (dynamic_cast<nn::Linear*>(&layer) || dynamic_cast<nn::LinearReLU*>(&layer))
    return Kind::kFc;
  if (dynamic_cast<nn::ReLU*>(&layer) || dynamic_cast<nn::Tanh*>(&layer))
    return Kind::kAct;
  return Kind::kOther;
}

/// Work of one layer call pair (forward + backward) from its shapes.
/// GEMM-shaped layers: 2 flops per MAC forward, twice that backward
/// (input and weight gradients). Memory-bound layers: bytes touched.
struct Work {
  double flops = 0.0;
  double bytes = 0.0;
};

Work work_of(Kind kind, nn::Layer& layer, const Tensor& x, const Tensor& y) {
  const double in = static_cast<double>(x.numel());
  const double outn = static_cast<double>(y.numel());
  Work w;
  if (kind == Kind::kConv || kind == Kind::kFc) {
    double weights = 0.0;
    for (Tensor* p : layer.params()) weights += static_cast<double>(p->numel());
    // MACs = outputs x (weights per output), biases aside.
    const double out_features = static_cast<double>(layer.params()[1]->numel());
    const double macs = outn * (weights - out_features) / out_features;
    w.flops = 3.0 * 2.0 * macs;
  } else if (kind == Kind::kPool) {
    // fwd: read x, write y (+ argmax); bwd: read dy (+ argmax), write dx.
    w.bytes = 4.0 * (in + outn + outn + outn + outn + in);
  } else if (kind == Kind::kAct) {
    // fwd: read x, write y; bwd: read cached + dy, write dx.
    w.bytes = 4.0 * (2.0 * in + 3.0 * in);
  }
  return w;
}

double stream_gbps(const Device& device) {
  const std::size_t n = std::size_t{32} << 20;  // bytes per copy
  std::vector<char> src(n, 1), dst(n, 0);
  const double s = time_median(kReps, [&] {
    device.parallel_for(n >> 16, [&](std::size_t b, std::size_t e) {
      std::memcpy(dst.data() + (b << 16), src.data() + (b << 16), (e - b) << 16);
    });
  });
  return 2.0 * static_cast<double>(n) / s * 1e-9;
}

double gemm_gflops(const Device& device) {
  dlbench::util::Rng rng(7);
  const std::int64_t n = 384;
  const Tensor a = Tensor::randn(Shape({n, n}), rng);
  const Tensor b = Tensor::randn(Shape({n, n}), rng);
  const double s = time_median(2 * kReps, [&] {
    Tensor c = dlbench::tensor::matmul(a, b, device);
  });
  return 2.0 * static_cast<double>(n * n * n) / s * 1e-9;
}

}  // namespace

void module_probes(Cell& cell, nn::Sequential& trained, std::int64_t batch,
                   const Device& device, double serve_batch, Outcome& out) {
  double peak_gflops = 0.0, peak_gbps = 0.0;
  {
    spans::Span span("tensor.matmul");
    peak_gflops = gemm_gflops(device);
  }
  peak_gbps = stream_gbps(device);

  {
    spans::Span span("runtime.parallel_for");
    const int calls = 2000;
    const std::size_t width = device.workers();
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i)
      device.parallel_for(width, [](std::size_t, std::size_t) {}, 1);
    out.set_layer("runtime.dispatch_us", seconds_since(t0) / calls * 1e6, "us");
  }

  // data: DataLoader::next at the workload's batch.
  {
    spans::Span span("data.next");
    dlbench::data::DataLoader loader(cell.train, batch, /*shuffle=*/true,
                                     dlbench::util::Rng(3));
    dlbench::data::Batch b;
    std::vector<double> s;
    loader.start_epoch();
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      if (!loader.next(b)) {
        loader.start_epoch();
        continue;
      }
      s.push_back(seconds_since(t0));
    }
    out.set_layer("data.next_batch_us", median(s) * 1e6, "us");
  }

  // nn: every layer's forward and backward at the workload's batch.
  nn::Sequential model = trained.clone();
  dlbench::util::Rng rng(5);
  nn::Context ctx;
  ctx.device = device;
  ctx.training = true;
  ctx.rng = &rng;
  const dlbench::data::Dataset probe_set = cell.train.take(batch);
  Tensor x = probe_set.images;
  double fwd[4] = {0, 0, 0, 0}, bwd[4] = {0, 0, 0, 0};
  Work work[4];
  for (std::size_t i = 0; i < model.size(); ++i) {
    nn::Layer& layer = model.layer(i);
    const Kind kind = kind_of(layer);
    Tensor y = layer.forward(x, ctx);
    if (kind != Kind::kOther) {
      const auto k = static_cast<std::size_t>(kind);
      Tensor dy(y.shape());
      dy.fill(1e-3f);
      std::vector<double> f, b;
      for (int r = 0; r < kReps; ++r) {
        auto t0 = Clock::now();
        {
          spans::Span span("nn.Layer.forward");
          y = layer.forward(x, ctx);
        }
        f.push_back(seconds_since(t0));
        t0 = Clock::now();
        {
          spans::Span span("nn.Layer.backward");
          layer.backward(dy, ctx);
        }
        b.push_back(seconds_since(t0));
      }
      fwd[k] += median(f);
      bwd[k] += median(b);
      const Work w = work_of(kind, layer, x, y);
      work[k].flops += w.flops;
      work[k].bytes += w.bytes;
    }
    x = y;
  }
  const auto K = [](Kind k) { return static_cast<std::size_t>(k); };
  const std::size_t conv = K(Kind::kConv), pool = K(Kind::kPool),
                    fc = K(Kind::kFc), act = K(Kind::kAct);
  const double conv_gflops = work[conv].flops / (fwd[conv] + bwd[conv]) * 1e-9;
  const double pool_gbps = work[pool].bytes / (fwd[pool] + bwd[pool]) * 1e-9;
  out.set_layer("nn.conv.fwd_ms", fwd[conv] * 1e3, "ms");
  out.set_layer("nn.conv.bwd_ms", bwd[conv] * 1e3, "ms");
  out.set_layer("nn.conv.gflops", conv_gflops, "GFLOP/s");
  out.set_layer("nn.conv.pct_peak", conv_gflops / peak_gflops * 100.0, "%");
  out.set_layer("nn.pool.fwd_ms", fwd[pool] * 1e3, "ms");
  out.set_layer("nn.pool.bwd_ms", bwd[pool] * 1e3, "ms");
  out.set_layer("nn.pool.gbps", pool_gbps, "GB/s");
  out.set_layer("nn.pool.pct_bw", pool_gbps / peak_gbps * 100.0, "%");
  out.set_layer("nn.fc.fwd_ms", fwd[fc] * 1e3, "ms");
  out.set_layer("nn.fc.bwd_ms", bwd[fc] * 1e3, "ms");
  out.set_layer("nn.fc.gflops", work[fc].flops / (fwd[fc] + bwd[fc]) * 1e-9,
                "GFLOP/s");
  out.set_layer("nn.act.ms", (fwd[act] + bwd[act]) * 1e3, "ms");
  out.set_layer("nn.act.gbps", work[act].bytes / (fwd[act] + bwd[act]) * 1e-9,
                "GB/s");

  // nn: the fused softmax cross-entropy head.
  {
    const Tensor logits = model.forward(probe_set.images, ctx);
    const double s = time_median(kReps, [&] {
      spans::Span span("nn.loss");
      const Tensor probs = dlbench::tensor::softmax_rows(logits, device);
      dlbench::tensor::cross_entropy_mean(probs, probe_set.labels);
      dlbench::tensor::softmax_cross_entropy_backward(probs, probe_set.labels,
                                                      device);
    });
    out.set_layer("nn.loss.ms", s * 1e3, "ms");
  }

  // nn (inference): the frozen view on the serving replicas' serial
  // device, and the batch-1 logit Jacobian crafting differentiates.
  {
    const nn::FrozenModel frozen = nn::FrozenModel::freeze(trained);
    const auto bmean = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(serve_batch + 0.5));
    const Tensor x1 = cell.test.sample(0);
    const Tensor xb = cell.test.take(bmean).images;
    const Device cpu = Device::cpu();
    const double b1 = time_median(4 * kReps, [&] {
      spans::Span span("nn.FrozenModel.forward");
      frozen.forward(x1, cpu);
    });
    const double bm = time_median(4 * kReps, [&] {
      spans::Span span("nn.FrozenModel.forward");
      frozen.forward(xb, cpu);
    });
    out.set_layer("nn.frozen_fwd_us.b1", b1 * 1e6, "us");
    out.set_layer("nn.frozen_fwd_us.bmean", bm * 1e6, "us");

    nn::Context serial;
    serial.device = cpu;
    const double jac = time_median(kReps, [&] {
      spans::Span span("adversarial.logit_jacobian");
      dlbench::adversarial::logit_jacobian(model, x1, cell.test.num_classes,
                                           serial);
    });
    out.set_layer("nn.jacobian_ms", jac * 1e3, "ms");
  }

  // optim: one Optimizer::step over the model's parameters and fresh
  // gradients, on the workload device.
  {
    model.zero_grads();
    const auto loss = model.forward_loss(probe_set.images, probe_set.labels, ctx);
    model.backward(loss, probe_set.labels, ctx);
    auto optimizer = cell.framework->make_optimizer(cell.config, 100, 1000);
    const auto params = model.params();
    const auto grads = model.grads();
    optimizer->step(params, grads, 0, device);  // lazy state allocation
    std::int64_t step = 1;
    const double s = time_median(4 * kReps, [&] {
      spans::Span span("optim.step");
      optimizer->step(params, grads, step++, device);
    });
    // Optimizer state per parameter: Adam keeps m and v, Caffe's
    // solver a momentum velocity, Torch's plain SGD nothing.
    double state = 0.0;
    if (cell.config.algo == dlbench::frameworks::OptimizerAlgo::kAdam)
      state = 2.0;
    else if (cell.framework->kind() == FrameworkKind::kCaffe)
      state = 1.0;
    const double bytes = 4.0 * static_cast<double>(model.num_params()) * (2.0 + state);
    out.set_layer("optim.step_ms", s * 1e3, "ms");
    out.set_layer("optim.gbps", bytes / s * 1e-9, "GB/s");
  }

  out.set_layer("tensor.gemm_peak_gflops", peak_gflops, "GFLOP/s");
  out.set_layer("tensor.stream_gbps", peak_gbps, "GB/s");
}

}  // namespace perfbench
