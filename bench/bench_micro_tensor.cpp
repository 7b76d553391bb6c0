// Microbenchmarks for the tensor kernels that dominate every
// experiment: GEMM, im2col convolution, direct convolution, panel
// packing, pooling, softmax. Uses google-benchmark. Shapes are taken
// from the paper's actual layers (Tables IV and V), plus square GEMM
// sizes that track the packed kernel's peak (DESIGN.md §11,
// EXPERIMENTS.md). DLB_SIMD=scalar|avx2 runs every bench on a lower
// tier's micro-kernel.
//
// Every bench reports arithmetic throughput (counter "GFLOPs", in
// GFLOP/s) and memory throughput (counter "GBps", in GB/s, counting
// each operand tensor once per pass) so regressions show up in units
// that are comparable across shapes; scripts/perf_smoke.sh keys off
// the GFLOPs counter of the GEMM, conv and maxpool benches.

#include <benchmark/benchmark.h>

#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "optim/optimizer.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"
#include "tensor/pool.hpp"

namespace {

using namespace dlbench;
using runtime::Device;
using tensor::Shape;
using tensor::Tensor;

Device device_for(bool parallel) {
  return parallel ? Device::gpu() : Device::cpu();
}

// Attach per-second rate counters: `flops` and `bytes` are per
// iteration; google-benchmark scales by iterations/elapsed itself.
void set_rates(benchmark::State& state, double flops, double bytes) {
  using benchmark::Counter;
  state.counters["GFLOPs"] =
      Counter(flops * 1e-9, Counter::kIsIterationInvariantRate);
  state.counters["GBps"] =
      Counter(bytes * 1e-9, Counter::kIsIterationInvariantRate);
}

double gemm_flops(double m, double k, double n) { return 2.0 * m * k * n; }
double gemm_bytes(double m, double k, double n) {
  return 4.0 * (m * k + k * n + m * n);
}

// GEMM at the TF-MNIST fc1 shape: [batch, 3136] x [3136, 1024].
void BM_MatmulFc1(benchmark::State& state) {
  const auto batch = state.range(0);
  const Device dev = device_for(state.range(1));
  util::Rng rng(1);
  Tensor a = Tensor::randn(Shape({batch, 3136}), rng);
  Tensor b = Tensor::randn(Shape({3136, 1024}), rng);
  for (auto _ : state) {
    Tensor c = tensor::matmul(a, b, dev);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * batch * 3136 * 1024 * 2);
  set_rates(state, gemm_flops(static_cast<double>(batch), 3136, 1024),
            gemm_bytes(static_cast<double>(batch), 3136, 1024));
}
BENCHMARK(BM_MatmulFc1)->Args({16, 0})->Args({16, 1})->Args({64, 1})->UseRealTime();

// fc1's backward dX at the TF-MNIST shape: dY[batch, 1024] x W^T, with
// W stored [3136, 1024], so B is packed from its transpose.
void BM_MatmulFc1Nt(benchmark::State& state) {
  const auto batch = state.range(0);
  const Device dev = device_for(state.range(1));
  util::Rng rng(1);
  Tensor dy = Tensor::randn(Shape({batch, 1024}), rng);
  Tensor w = Tensor::randn(Shape({3136, 1024}), rng);
  for (auto _ : state) {
    Tensor dx = tensor::matmul_nt(dy, w, dev);
    benchmark::DoNotOptimize(dx.raw());
  }
  set_rates(state, gemm_flops(static_cast<double>(batch), 1024, 3136),
            gemm_bytes(static_cast<double>(batch), 1024, 3136));
}
BENCHMARK(BM_MatmulFc1Nt)->Args({50, 0})->Args({50, 1})->UseRealTime();

// Square GEMM through the packed kernel (the production matmul path).
void BM_GemmPacked(benchmark::State& state) {
  const auto s = state.range(0);
  const Device dev = device_for(true);
  util::Rng rng(7);
  Tensor a = Tensor::randn(Shape({s, s}), rng);
  Tensor b = Tensor::randn(Shape({s, s}), rng);
  for (auto _ : state) {
    Tensor c = tensor::matmul(a, b, dev);
    benchmark::DoNotOptimize(c.raw());
  }
  const double d = static_cast<double>(s);
  set_rates(state, gemm_flops(d, d, d), gemm_bytes(d, d, d));
}
BENCHMARK(BM_GemmPacked)->Arg(256)->Arg(384)->Arg(512)->UseRealTime();

// Square A * B^T through the packed kernel (the backward-pass dgrad
// shape: dx = dy * W^T with W stored [in, out] transposed access);
// the perf_smoke floor pins it.
void BM_GemmNt(benchmark::State& state) {
  const auto s = state.range(0);
  const Device dev = device_for(true);
  util::Rng rng(7);
  Tensor a = Tensor::randn(Shape({s, s}), rng);
  Tensor b = Tensor::randn(Shape({s, s}), rng);  // [N, K] operand
  for (auto _ : state) {
    Tensor c = tensor::matmul_nt(a, b, dev);
    benchmark::DoNotOptimize(c.raw());
  }
  const double d = static_cast<double>(s);
  set_rates(state, gemm_flops(d, d, d), gemm_bytes(d, d, d));
}
BENCHMARK(BM_GemmNt)->Arg(256)->Arg(512)->UseRealTime();

// Conv at the Caffe-MNIST conv1 shape: 1->20, 5x5, 28x28 input.
void BM_ConvGemmLenet1(benchmark::State& state) {
  const auto batch = state.range(0);
  const Device dev = device_for(state.range(1));
  tensor::ConvGeom g{1, 28, 28, 20, 5, 1, 0};
  util::Rng rng(2);
  Tensor x = Tensor::randn(Shape({batch, 1, 28, 28}), rng);
  Tensor w = Tensor::randn(Shape({20, g.patch_size()}), rng);
  Tensor b = Tensor::randn(Shape({20}), rng);
  for (auto _ : state) {
    Tensor y = tensor::conv2d_forward(x, w, b, g, dev);
    benchmark::DoNotOptimize(y.raw());
  }
  const double positions =
      static_cast<double>(batch) * g.out_h() * g.out_w();
  set_rates(state,
            2.0 * positions * g.out_c * static_cast<double>(g.patch_size()),
            4.0 * (static_cast<double>(x.numel()) + w.numel() + b.numel() +
                   positions * g.out_c));
}
BENCHMARK(BM_ConvGemmLenet1)->Args({16, 0})->Args({16, 1})->Args({64, 1})->UseRealTime();

// GEMM vs direct convolution — the Torch CPU/GPU implementation split.
void BM_ConvDirectVsGemm(benchmark::State& state) {
  const bool direct = state.range(0);
  tensor::ConvGeom g{32, 11, 11, 64, 5, 1, 0};  // Torch MNIST conv2
  util::Rng rng(3);
  nn::Context ctx;
  ctx.device = Device::cpu();
  const std::int64_t batch = 8;
  Tensor x = Tensor::randn(Shape({batch, 32, 11, 11}), rng);
  if (direct) {
    nn::Conv2dDirect conv(g, tensor::InitKind::kLecunUniform, rng);
    for (auto _ : state) {
      Tensor y = conv.forward(x, ctx);
      benchmark::DoNotOptimize(y.raw());
    }
  } else {
    nn::Conv2d conv(g, tensor::InitKind::kLecunUniform, rng);
    for (auto _ : state) {
      Tensor y = conv.forward(x, ctx);
      benchmark::DoNotOptimize(y.raw());
    }
  }
  const double positions =
      static_cast<double>(batch) * g.out_h() * g.out_w();
  set_rates(state,
            2.0 * positions * g.out_c * static_cast<double>(g.patch_size()),
            4.0 * (static_cast<double>(x.numel()) +
                   g.out_c * static_cast<double>(g.patch_size()) +
                   positions * g.out_c));
}
BENCHMARK(BM_ConvDirectVsGemm)->Arg(0)->Arg(1)->UseRealTime();

// im2col / col2im for one sample at the TF-MNIST conv2 geometry
// (32->64, 5x5, 14x14 input, pad 2): pure data movement, so GBps (the
// image read once and the column matrix written once, or the reverse)
// is the number to read.
void BM_Im2col(benchmark::State& state) {
  const tensor::ConvGeom g{32, 14, 14, 64, 5, 1, 2};
  util::Rng rng(5);
  Tensor x = Tensor::randn(Shape({1, 32, 14, 14}), rng);
  std::vector<float> cols(
      static_cast<std::size_t>(g.patch_size() * g.out_h() * g.out_w()));
  for (auto _ : state) {
    tensor::im2col(x.raw(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  set_rates(state, 0.0,
            4.0 * (static_cast<double>(x.numel()) +
                   static_cast<double>(cols.size())));
}
BENCHMARK(BM_Im2col)->UseRealTime();

void BM_Col2im(benchmark::State& state) {
  const tensor::ConvGeom g{32, 14, 14, 64, 5, 1, 2};
  util::Rng rng(6);
  Tensor cols = Tensor::randn(
      Shape({g.patch_size() * g.out_h() * g.out_w()}), rng);
  std::vector<float> image(static_cast<std::size_t>(32 * 14 * 14));
  for (auto _ : state) {
    tensor::col2im(cols.raw(), g, image.data());
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  // One add per column element.
  set_rates(state, static_cast<double>(cols.numel()),
            4.0 * (static_cast<double>(cols.numel()) +
                   static_cast<double>(image.size())));
}
BENCHMARK(BM_Col2im)->UseRealTime();

// Packing a K x N B operand into NR-wide panels on one thread: {K, N,
// transposed}. 3136 x 1024 is TF-MNIST fc1's weight, packed row-major
// by the forward matmul and transposed (W^T) by the backward matmul_nt
// (the GEMM packs it one column block at a time; this packs it whole);
// 800 x 196 is conv2's per-sample column matrix (13 panels), and
// 196 x 800 its transpose in the dW GEMM (50 panels).
void BM_PackB(benchmark::State& state) {
  const auto k = state.range(0), n = state.range(1);
  const bool transposed = state.range(2);
  util::Rng rng(7);
  Tensor b = Tensor::randn(Shape({k, n}), rng);
  std::vector<float> panels(
      static_cast<std::size_t>(tensor::gemm_col_panels(n) * k *
                               tensor::kGemmNR));
  // Transposed: b holds B^T row-major, B(kk, j) = b[j*K + kk].
  const std::int64_t rs = transposed ? 1 : n, cs = transposed ? k : 1;
  for (auto _ : state) {
    tensor::pack_b_panels(b.raw(), rs, cs, k, n, panels.data());
    benchmark::DoNotOptimize(panels.data());
    benchmark::ClobberMemory();
  }
  set_rates(state, 0.0,
            4.0 * (static_cast<double>(b.numel()) +
                   static_cast<double>(panels.size())));
}
BENCHMARK(BM_PackB)
    ->Args({3136, 1024, 0})
    ->Args({3136, 1024, 1})
    ->Args({800, 196, 0})
    ->Args({196, 800, 1})
    ->UseRealTime();

void run_maxpool(benchmark::State& state, const Device& dev, std::int64_t n,
                 const tensor::PoolGeom& g) {
  util::Rng rng(4);
  Tensor x = Tensor::randn(Shape({n, g.channels, g.in_h, g.in_w}), rng);
  std::vector<std::int32_t> argmax;
  Tensor probe = tensor::maxpool_forward(x, g, argmax, dev);
  for (auto _ : state) {
    Tensor y = tensor::maxpool_forward(x, g, argmax, dev);
    benchmark::DoNotOptimize(y.raw());
  }
  // One compare per window element counts as one "flop".
  set_rates(state, static_cast<double>(probe.numel()) * g.window * g.window,
            4.0 * (static_cast<double>(x.numel()) + probe.numel()));
}

// {parallel, window}: 3x3/s2 over a 32x32 map (TF CIFAR's pool) and
// 2x2/s2 on the same map.
void BM_MaxPool(benchmark::State& state) {
  run_maxpool(state, device_for(state.range(0)), 32,
              tensor::PoolGeom{64, 32, 32, state.range(1), 2, false});
}
BENCHMARK(BM_MaxPool)
    ->Args({0, 3})
    ->Args({1, 3})
    ->Args({0, 2})
    ->Args({1, 2})
    ->UseRealTime();

// {workers, batch, channels, side, ceil}: 2x2/s2 at the MNIST nets' pool
// inputs, serial and on the 2-worker device perfbench trains with:
// TF pool1 [50,32,28,28] and pool2 [50,64,14,14], and Caffe's ceil-mode
// pool1 [64,20,24,24].
void BM_MaxPoolMnist(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  run_maxpool(state, Device::parallel(workers), state.range(1),
              tensor::PoolGeom{state.range(2), state.range(3), state.range(3),
                               2, 2, state.range(4) != 0});
}
BENCHMARK(BM_MaxPoolMnist)
    ->Args({1, 50, 32, 28, 0})
    ->Args({2, 50, 32, 28, 0})
    ->Args({1, 50, 64, 14, 0})
    ->Args({2, 50, 64, 14, 0})
    ->Args({1, 64, 20, 24, 1})
    ->Args({2, 64, 20, 24, 1})
    ->UseRealTime();

void BM_SoftmaxXent(benchmark::State& state) {
  const Device dev = device_for(state.range(0));
  util::Rng rng(5);
  Tensor logits = Tensor::randn(Shape({256, 10}), rng);
  std::vector<std::int64_t> labels(256);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  for (auto _ : state) {
    Tensor p = tensor::softmax_rows(logits, dev);
    const double loss = tensor::cross_entropy_mean(p, labels);
    benchmark::DoNotOptimize(loss);
  }
  // max + sub + exp + sum + div per element, plus the log per row.
  set_rates(state, 5.0 * static_cast<double>(logits.numel()) + 256.0,
            4.0 * 2.0 * static_cast<double>(logits.numel()));
}
BENCHMARK(BM_SoftmaxXent)->Arg(0)->Arg(1)->UseRealTime();

// SGD momentum step on small parameter tensors — the dispatch-bound
// regime the parallel_for grain fix targets. With grain = 4096 a
// 5,000-element update cuts ceil(5000/4096) = 2 chunks instead of one
// sliver per worker, and a 500-element update runs inline; the pooled
// rows (Arg 1) should now track the serial rows (Arg 0) at small sizes
// instead of losing to enqueue overhead.
void BM_SgdStepSmallParams(benchmark::State& state) {
  const auto n = state.range(0);
  const Device dev = device_for(state.range(1));
  util::Rng rng(8);
  Tensor p = Tensor::randn(Shape({n}), rng);
  Tensor g = Tensor::randn(Shape({n}), rng);
  optim::Sgd sgd(optim::LrSchedule(0.01), /*momentum=*/0.9);
  const std::vector<Tensor*> params{&p};
  const std::vector<Tensor*> grads{&g};
  std::int64_t step = 0;
  for (auto _ : state) {
    sgd.step(params, grads, step++, dev);
    benchmark::DoNotOptimize(p.raw());
  }
  // Velocity update + parameter update per element; p, g, v traffic.
  set_rates(state, 4.0 * static_cast<double>(n),
            4.0 * 3.0 * static_cast<double>(n));
}
BENCHMARK(BM_SgdStepSmallParams)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Args({50000, 1})
    ->UseRealTime();

// One Adam step over the TF-MNIST parameter shapes (3.27 M floats, fc1's
// weight 98 % of them) on {1, 2} threads: a pure streaming sweep, so
// GBps against the host's copy bandwidth is the number to read.
void BM_AdamStep(benchmark::State& state) {
  const Device dev = Device::parallel(static_cast<std::size_t>(state.range(0)));
  const Shape shapes[] = {Shape({32, 1, 5, 5}), Shape({32}),
                          Shape({64, 32, 5, 5}), Shape({64}),
                          Shape({3136, 1024}), Shape({1024}),
                          Shape({1024, 10}), Shape({10})};
  util::Rng rng(9);
  std::vector<Tensor> params, grads;
  for (const Shape& s : shapes) {
    params.push_back(Tensor::randn(s, rng, 0.f, 0.1f));
    grads.push_back(Tensor::randn(s, rng, 0.f, 0.01f));
  }
  std::vector<Tensor*> pp, gp;
  double n = 0.0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    pp.push_back(&params[i]);
    gp.push_back(&grads[i]);
    n += static_cast<double>(params[i].numel());
  }
  optim::Adam adam(optim::LrSchedule(1e-4));
  std::int64_t step = 0;
  for (auto _ : state) {
    adam.step(pp, gp, step++, dev);
    benchmark::DoNotOptimize(params[0].raw());
  }
  // ~14 flops per element (decay, both moments, sqrt, divide, step);
  // four operand tensors (p, g, m, v), as perfbench's optim.gbps counts.
  set_rates(state, 14.0 * n, 4.0 * 4.0 * n);
}
BENCHMARK(BM_AdamStep)->Arg(1)->Arg(2)->UseRealTime();

void BM_Lrn(benchmark::State& state) {
  util::Rng rng(6);
  nn::Context ctx;
  ctx.device = device_for(state.range(0));
  nn::LocalResponseNorm lrn;
  Tensor x = Tensor::randn(Shape({32, 64, 15, 15}), rng);
  Tensor probe = lrn.forward(x, ctx);
  for (auto _ : state) {
    Tensor y = lrn.forward(x, ctx);
    benchmark::DoNotOptimize(y.raw());
  }
  // Square + windowed sum + scale + pow per element (window = 5).
  set_rates(state, static_cast<double>(x.numel()) * (5.0 + 3.0),
            4.0 * (static_cast<double>(x.numel()) + probe.numel()));
}
BENCHMARK(BM_Lrn)->Arg(0)->Arg(1)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
