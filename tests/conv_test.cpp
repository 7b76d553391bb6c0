// Convolution and pooling kernels: im2col/col2im structure, forward
// against a naive reference, backward against numeric gradients, the
// ceil/floor pooling arithmetic the paper's nets depend on, and the
// copy-only kernels (im2col/col2im, panel packing, maxpool) checked
// bitwise against their per-element forms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "frameworks/registry.hpp"
#include "nn/layers.hpp"
#include "nn/network_spec.hpp"
#include "runtime/device.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"
#include "tensor/pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::tensor {
namespace {

using runtime::Device;

// Naive direct convolution used as the reference implementation.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                  const ConvGeom& g) {
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  Tensor y({n, g.out_c, oh, ow});
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t oc = 0; oc < g.out_c; ++oc)
      for (std::int64_t y0 = 0; y0 < oh; ++y0)
        for (std::int64_t x0 = 0; x0 < ow; ++x0) {
          double acc = b.at(oc);
          for (std::int64_t ic = 0; ic < g.in_c; ++ic)
            for (std::int64_t ky = 0; ky < g.kernel; ++ky)
              for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                const std::int64_t iy = y0 * g.stride + ky - g.pad;
                const std::int64_t ix = x0 * g.stride + kx - g.pad;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w)
                  continue;
                acc += static_cast<double>(
                           w.at(oc * g.patch_size() +
                                (ic * g.kernel + ky) * g.kernel + kx)) *
                       x.at(((i * g.in_c + ic) * g.in_h + iy) * g.in_w + ix);
              }
          y.data()[((i * g.out_c + oc) * oh + y0) * ow + x0] =
              static_cast<float>(acc);
        }
  return y;
}

TEST(ConvGeom, OutputArithmetic) {
  ConvGeom g{/*in_c=*/1, /*in_h=*/28, /*in_w=*/28, /*out_c=*/20,
             /*kernel=*/5, /*stride=*/1, /*pad=*/0};
  EXPECT_EQ(g.out_h(), 24);
  EXPECT_EQ(g.patch_size(), 25);
  g.pad = 2;
  EXPECT_EQ(g.out_h(), 28);  // SAME padding
}

TEST(Im2Col, RoundTripThroughCol2ImIsOverlapCount) {
  // col2im(im2col(x)) multiplies each pixel by the number of windows
  // covering it; with kernel 1 that count is 1 → exact roundtrip.
  ConvGeom g{2, 4, 4, 1, /*kernel=*/1, /*stride=*/1, /*pad=*/0};
  util::Rng rng(1);
  Tensor x = Tensor::randn(Shape({1, 2, 4, 4}), rng);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size() * 16));
  im2col(x.raw(), g, cols.data());
  Tensor back(Shape({1, 2, 4, 4}));
  col2im(cols.data(), g, back.raw());
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(back.at(i), x.at(i));
}

TEST(Im2Col, ZeroPadsOutOfBounds) {
  ConvGeom g{1, 2, 2, 1, /*kernel=*/3, /*stride=*/1, /*pad=*/1};
  Tensor x(Shape({1, 1, 2, 2}), 1.f);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) *
                          static_cast<std::size_t>(g.out_h() * g.out_w()));
  im2col(x.raw(), g, cols.data());
  // Top-left output's top-left kernel tap reads the (-1,-1) pad → 0.
  EXPECT_EQ(cols[0], 0.f);
}

using ConvParam = std::tuple<int, int, int, int, int, bool>;  // ic,oc,hw,k,pad,par

class ConvShapes : public ::testing::TestWithParam<ConvParam> {
 protected:
  Device dev() const {
    return std::get<5>(GetParam()) ? Device::parallel(4) : Device::cpu();
  }
};

TEST_P(ConvShapes, ForwardMatchesNaive) {
  auto [ic, oc, hw, k, pad, par] = GetParam();
  (void)par;
  ConvGeom g{ic, hw, hw, oc, k, 1, pad};
  if (g.out_h() <= 0) GTEST_SKIP();
  util::Rng rng(static_cast<std::uint64_t>(ic * 100 + oc * 10 + hw));
  Tensor x = Tensor::randn(Shape({3, ic, hw, hw}), rng);
  Tensor w = Tensor::randn(Shape({oc, g.patch_size()}), rng, 0.f, 0.5f);
  Tensor b = Tensor::randn(Shape({oc}), rng);
  Tensor got = conv2d_forward(x, w, b, g, dev());
  Tensor want = naive_conv(x, w, b, g);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got.at(i), want.at(i), 1e-3f) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapes,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Values(2, 6),
                       ::testing::Values(6, 9), ::testing::Values(3, 5),
                       ::testing::Values(0, 2), ::testing::Bool()),
    [](const ::testing::TestParamInfo<ConvParam>& info) {
      return "ic" + std::to_string(std::get<0>(info.param)) + "oc" +
             std::to_string(std::get<1>(info.param)) + "hw" +
             std::to_string(std::get<2>(info.param)) + "k" +
             std::to_string(std::get<3>(info.param)) + "p" +
             std::to_string(std::get<4>(info.param)) +
             (std::get<5>(info.param) ? "Par" : "Ser");
    });

TEST(ConvBackward, GradientsMatchNumeric) {
  ConvGeom g{2, 6, 6, 3, /*kernel=*/3, /*stride=*/1, /*pad=*/1};
  util::Rng rng(11);
  Tensor x = Tensor::randn(Shape({2, 2, 6, 6}), rng);
  Tensor w = Tensor::randn(Shape({3, g.patch_size()}), rng, 0.f, 0.5f);
  Tensor b = Tensor::randn(Shape({3}), rng);
  const Device dev = Device::cpu();

  // Loss = sum(conv(x)); dL/dy = ones.
  Tensor y = conv2d_forward(x, w, b, g, dev);
  Tensor dy(y.shape(), 1.f);
  ConvGrads grads = conv2d_backward(x, w, dy, g, dev);

  const float eps = 1e-2f;
  auto loss_at = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return sum(conv2d_forward(xx, ww, bb, g, dev));
  };
  // Spot-check a handful of coordinates of each gradient.
  for (std::int64_t i : {0L, 7L, 31L, x.numel() - 1}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double numeric = (loss_at(xp, w, b) - loss_at(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(grads.dx.at(i), numeric, 0.05) << "dx " << i;
  }
  for (std::int64_t i : {0L, 5L, w.numel() - 1}) {
    Tensor wp = w.clone(), wm = w.clone();
    wp.data()[i] += eps;
    wm.data()[i] -= eps;
    const double numeric = (loss_at(x, wp, b) - loss_at(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(grads.dweight.at(i), numeric, 0.05) << "dw " << i;
  }
  for (std::int64_t i : {0L, 2L}) {
    Tensor bp = b.clone(), bm = b.clone();
    bp.data()[i] += eps;
    bm.data()[i] -= eps;
    const double numeric = (loss_at(x, w, bp) - loss_at(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(grads.dbias.at(i), numeric, 0.05) << "db " << i;
  }
}

TEST(ConvBackward, SerialAndParallelAgree) {
  ConvGeom g{3, 8, 8, 4, /*kernel=*/3, /*stride=*/1, /*pad=*/1};
  util::Rng rng(12);
  Tensor x = Tensor::randn(Shape({5, 3, 8, 8}), rng);
  Tensor w = Tensor::randn(Shape({4, g.patch_size()}), rng);
  Tensor dy = Tensor::randn(Shape({5, 4, 8, 8}), rng);
  ConvGrads a = conv2d_backward(x, w, dy, g, Device::cpu());
  ConvGrads b = conv2d_backward(x, w, dy, g, Device::parallel(4));
  for (std::int64_t i = 0; i < a.dx.numel(); ++i)
    ASSERT_NEAR(a.dx.at(i), b.dx.at(i), 1e-4f);
  for (std::int64_t i = 0; i < a.dweight.numel(); ++i)
    ASSERT_NEAR(a.dweight.at(i), b.dweight.at(i), 1e-3f);
}

// ---- pooling ----

TEST(Pool, GeometryCeilVsFloor) {
  PoolGeom floor_g{1, 24, 24, 3, 2, /*ceil=*/false};
  PoolGeom ceil_g{1, 24, 24, 3, 2, /*ceil=*/true};
  EXPECT_EQ(floor_g.out_h(), 11);  // Torch MNIST: 24 -> 11
  EXPECT_EQ(ceil_g.out_h(), 12);   // Caffe rounding
  PoolGeom tf{64, 32, 32, 3, 2, false};
  EXPECT_EQ(tf.out_h(), 15);  // TF CIFAR: 32 -> 15
}

TEST(Pool, MaxForwardPicksMaxAndArgmax) {
  PoolGeom g{1, 4, 4, 2, 2, false};
  Tensor x(Shape({1, 1, 4, 4}),
           std::vector<float>{1, 2, 5, 4,    //
                              3, 0, 1, 1,    //
                              9, 1, 0, 0,    //
                              1, 1, 0, 7});
  std::vector<std::int32_t> argmax;
  Tensor y = maxpool_forward(x, g, argmax, Device::cpu());
  EXPECT_EQ(y.at(0), 3.f);
  EXPECT_EQ(y.at(1), 5.f);
  EXPECT_EQ(y.at(2), 9.f);
  EXPECT_EQ(y.at(3), 7.f);
  EXPECT_EQ(argmax[2], 8);  // flat offset of the 9
}

TEST(Pool, MaxBackwardRoutesToArgmax) {
  PoolGeom g{1, 4, 4, 2, 2, false};
  util::Rng rng(13);
  Tensor x = Tensor::randn(Shape({1, 1, 4, 4}), rng);
  std::vector<std::int32_t> argmax;
  (void)maxpool_forward(x, g, argmax, Device::cpu());
  Tensor dy(Shape({1, 1, 2, 2}), std::vector<float>{1, 2, 3, 4});
  Tensor dx = maxpool_backward(dy, g, argmax, Device::cpu());
  EXPECT_DOUBLE_EQ(sum(dx), 10.0);  // gradient mass preserved
  EXPECT_EQ(dx.at(argmax[0]), 1.f);
}

TEST(Pool, AvgForwardAveragesWindow) {
  PoolGeom g{1, 2, 2, 2, 2, false};
  Tensor x(Shape({1, 1, 2, 2}), std::vector<float>{1, 2, 3, 6});
  Tensor y = avgpool_forward(x, g, Device::cpu());
  EXPECT_FLOAT_EQ(y.at(0), 3.f);
}

TEST(Pool, AvgPartialWindowUsesActualCount) {
  // ceil mode: last window covers a 1-wide strip; mean over 2 cells.
  PoolGeom g{1, 3, 3, 2, 2, /*ceil=*/true};
  Tensor x(Shape({1, 1, 3, 3}), 6.f);
  Tensor y = avgpool_forward(x, g, Device::cpu());
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.at(i), 6.f);
}

TEST(Pool, AvgBackwardMatchesNumeric) {
  PoolGeom g{2, 5, 5, 3, 2, /*ceil=*/true};
  util::Rng rng(14);
  Tensor x = Tensor::randn(Shape({1, 2, 5, 5}), rng);
  Tensor y = avgpool_forward(x, g, Device::cpu());
  Tensor dy(y.shape(), 1.f);
  Tensor dx = avgpool_backward(dy, g, Device::cpu());
  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 12L, x.numel() - 1}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double numeric = (sum(avgpool_forward(xp, g, Device::cpu())) -
                            sum(avgpool_forward(xm, g, Device::cpu()))) /
                           (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, 0.05);
  }
}

TEST(Pool, ParallelMatchesSerial) {
  PoolGeom g{4, 9, 9, 3, 2, true};
  util::Rng rng(15);
  Tensor x = Tensor::randn(Shape({6, 4, 9, 9}), rng);
  std::vector<std::int32_t> am1, am2;
  Tensor a = maxpool_forward(x, g, am1, Device::cpu());
  Tensor b = maxpool_forward(x, g, am2, Device::parallel(4));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a.at(i), b.at(i));
  EXPECT_EQ(am1, am2);
}

// Output sizes divide by the stride, so every pool and conv entry point
// checks window/kernel and stride first, backward passes included.
TEST(Pool, ZeroWindowOrStrideThrows) {
  const Device dev = Device::cpu();
  for (const auto& [window, stride] : {std::pair{2, 0}, std::pair{0, 2}}) {
    PoolGeom g{1, 4, 4, window, stride, false};
    Tensor x(Shape({1, 1, 4, 4}), 1.f);
    Tensor dy(Shape({1, 1, 2, 2}), 1.f);
    std::vector<std::int32_t> argmax(4, 0);
    EXPECT_THROW((void)maxpool_forward(x, g, argmax, dev), Error);
    EXPECT_THROW((void)maxpool_backward(dy, g, argmax, dev), Error);
    EXPECT_THROW((void)avgpool_forward(x, g, dev), Error);
    EXPECT_THROW((void)avgpool_backward(dy, g, dev), Error);
  }
  ConvGeom g{1, 4, 4, 1, 3, 0, 0};
  Tensor x(Shape({1, 1, 4, 4}), 1.f);
  Tensor w(Shape({1, 9}), 1.f);
  Tensor b(Shape({1}), 0.f);
  Tensor dy(Shape({1, 1, 2, 2}), 1.f);
  EXPECT_THROW((void)conv2d_forward(x, w, b, g, dev), Error);
  EXPECT_THROW((void)conv2d_backward(x, w, dy, g, dev), Error);
}

// ---- differential: the copy-only kernels against their per-element
// forms. im2col/col2im, the panel packers and maxpool are rewritten for
// data movement (whole spans, address-order sweeps, register scans); the
// references below are the straightforward loops they replaced, and
// every float and argmax index must match them bit for bit (sums: see
// sum_bits).

namespace ref {

void im2col(const float* image, const ConvGeom& g, float* columns) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t ky = 0; ky < g.kernel; ++ky)
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t iy = y * g.stride + ky - g.pad;
            const std::int64_t ix = x * g.stride + kx - g.pad;
            const bool in = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            columns[row * oh * ow + y * ow + x] =
                in ? image[(c * g.in_h + iy) * g.in_w + ix] : 0.f;
          }
      }
}

void col2im(const float* columns, const ConvGeom& g, float* image) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::fill_n(image, g.in_c * g.in_h * g.in_w, 0.f);
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t ky = 0; ky < g.kernel; ++ky)
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t iy = y * g.stride + ky - g.pad;
            const std::int64_t ix = x * g.stride + kx - g.pad;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
              image[(c * g.in_h + iy) * g.in_w + ix] +=
                  columns[row * oh * ow + y * ow + x];
          }
      }
}

// pack.hpp's layout, one element at a time, zero-padded edges.
void pack_a(const float* a, std::int64_t rs, std::int64_t cs, std::int64_t m,
            std::int64_t k, float* dst) {
  for (std::int64_t p = 0; p < gemm_row_panels(m); ++p)
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t r = 0; r < kGemmMR; ++r) {
        const std::int64_t row = p * kGemmMR + r;
        dst[(p * k + kk) * kGemmMR + r] =
            row < m ? a[row * rs + kk * cs] : 0.f;
      }
}

void pack_b(const float* b, std::int64_t rs, std::int64_t cs, std::int64_t k,
            std::int64_t n, float* dst) {
  for (std::int64_t p = 0; p < gemm_col_panels(n); ++p)
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        const std::int64_t col = p * kGemmNR + j;
        dst[(p * k + kk) * kGemmNR + j] =
            col < n ? b[kk * rs + col * cs] : 0.f;
      }
}

// One window at a time, row-major, strict '>' from -inf at offset 0.
void maxpool_forward(const float* x, std::int64_t planes, const PoolGeom& g,
                     float* y, std::int32_t* argmax) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  for (std::int64_t pc = 0; pc < planes; ++pc) {
    const float* in = x + pc * g.in_h * g.in_w;
    for (std::int64_t y0 = 0; y0 < oh; ++y0)
      for (std::int64_t x0 = 0; x0 < ow; ++x0) {
        const std::int64_t ys = y0 * g.stride, xs = x0 * g.stride;
        const std::int64_t ye = std::min(ys + g.window, g.in_h);
        const std::int64_t xe = std::min(xs + g.window, g.in_w);
        float best = -std::numeric_limits<float>::infinity();
        std::int32_t best_idx = 0;
        for (std::int64_t iy = ys; iy < ye; ++iy)
          for (std::int64_t ix = xs; ix < xe; ++ix)
            if (in[iy * g.in_w + ix] > best) {
              best = in[iy * g.in_w + ix];
              best_idx = static_cast<std::int32_t>(iy * g.in_w + ix);
            }
        y[(pc * oh + y0) * ow + x0] = best;
        argmax[(pc * oh + y0) * ow + x0] = best_idx;
      }
  }
}

void maxpool_backward(const float* dy, const std::int32_t* argmax,
                      std::int64_t planes, const PoolGeom& g, float* dx) {
  const std::int64_t out_plane = g.out_h() * g.out_w();
  std::fill_n(dx, planes * g.in_h * g.in_w, 0.f);
  for (std::int64_t pc = 0; pc < planes; ++pc)
    for (std::int64_t j = 0; j < out_plane; ++j)
      dx[pc * g.in_h * g.in_w + argmax[pc * out_plane + j]] +=
          dy[pc * out_plane + j];
}

}  // namespace ref

std::vector<std::uint32_t> bits(const float* p, std::int64_t count) {
  std::vector<std::uint32_t> out(static_cast<std::size_t>(count));
  std::memcpy(out.data(), p, out.size() * sizeof(float));
  return out;
}

// For sums: the same bits, except that any NaN reads as one NaN. Which
// operand's NaN an addition passes on is left open by C++, and the
// compiler commutes `a += b` when it vectorises the loop, so a NaN's
// sign and payload are not part of the contract; where NaNs appear is.
std::vector<std::uint32_t> sum_bits(const float* p, std::int64_t count) {
  std::vector<std::uint32_t> out = bits(p, count);
  for (std::int64_t i = 0; i < count; ++i)
    if (std::isnan(p[i])) out[static_cast<std::size_t>(i)] = 0x7fc00000u;
  return out;
}

std::int64_t draw(util::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
}

// Values with many exact ties plus NaN and +-inf, so every compare and
// copy path sees the special cases.
std::vector<float> tricky_values(util::Rng& rng, std::int64_t count) {
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {-1.f, 0.f, -0.f, 1.f, 2.f, inf, -inf, std::nanf("")};
  std::vector<float> v(static_cast<std::size_t>(count));
  for (auto& e : v) {
    const std::uint64_t pick = rng.uniform_index(12);
    e = pick < 8 ? pool[pick] : static_cast<float>(rng.uniform(-3.0, 3.0));
  }
  return v;
}

// Seeded conv geometries: stride 1-3, kernel 1-5, pad 0..kernel-1,
// non-square inputs, widths below the kernel size.
ConvGeom random_conv_geom(util::Rng& rng) {
  ConvGeom g;
  g.in_c = draw(rng, 1, 3);
  g.kernel = draw(rng, 1, 5);
  g.stride = draw(rng, 1, 3);
  g.pad = draw(rng, 0, g.kernel - 1);
  g.in_h = draw(rng, 1, 12);
  g.in_w = draw(rng, 1, 12);
  g.out_c = draw(rng, 1, 9);
  return g;
}

TEST(CopyKernelDiff, Im2colAndCol2imMatchPerElementLoops) {
  util::Rng rng(101);
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const ConvGeom g = random_conv_geom(rng);
    if (g.out_h() <= 0 || g.out_w() <= 0) continue;
    ++checked;
    const std::int64_t img = g.in_c * g.in_h * g.in_w;
    const std::int64_t cols = g.patch_size() * g.out_h() * g.out_w();
    const std::vector<float> image = tricky_values(rng, img);
    // Pre-filled with garbage: both forms must write every element.
    std::vector<float> got(static_cast<std::size_t>(cols), 7.f);
    std::vector<float> want(static_cast<std::size_t>(cols), -7.f);
    im2col(image.data(), g, got.data());
    ref::im2col(image.data(), g, want.data());
    ASSERT_EQ(bits(got.data(), cols), bits(want.data(), cols))
        << "im2col c" << g.in_c << " " << g.in_h << "x" << g.in_w << " k"
        << g.kernel << " s" << g.stride << " p" << g.pad;

    const std::vector<float> columns = tricky_values(rng, cols);
    std::vector<float> img_got(static_cast<std::size_t>(img), 7.f);
    std::vector<float> img_want(static_cast<std::size_t>(img), -7.f);
    col2im(columns.data(), g, img_got.data());
    ref::col2im(columns.data(), g, img_want.data());
    ASSERT_EQ(sum_bits(img_got.data(), img), sum_bits(img_want.data(), img))
        << "col2im c" << g.in_c << " " << g.in_h << "x" << g.in_w << " k"
        << g.kernel << " s" << g.stride << " p" << g.pad;
  }
  EXPECT_GT(checked, 200);
}

TEST(CopyKernelDiff, PanelPackingMatchesPerElementLayout) {
  util::Rng rng(102);
  const Device devs[] = {Device::cpu(), Device::parallel(3)};
  for (int trial = 0; trial < 60; ++trial) {
    // k crosses the row-major B pack's 16-row blocks; m and n cover
    // full panels, edge panels and single partial panels. The device
    // matters only to pack_a, which splits panels across workers;
    // pack_b always runs on the calling thread.
    const std::int64_t m = draw(rng, 1, 40), n = draw(rng, 1, 90);
    const std::int64_t k = draw(rng, 1, 300);
    const std::vector<float> src = tricky_values(rng, std::max(m, n) * k);
    const Device& dev = devs[trial % 2];
    for (const bool transposed : {false, true}) {
      const std::int64_t a_rs = transposed ? 1 : k, a_cs = transposed ? m : 1;
      const std::int64_t a_len = gemm_packed_a_floats(m, k);
      std::vector<float> got(static_cast<std::size_t>(a_len), 7.f);
      std::vector<float> want(static_cast<std::size_t>(a_len), -7.f);
      pack_a_panels(src.data(), a_rs, a_cs, m, k, got.data(), dev);
      ref::pack_a(src.data(), a_rs, a_cs, m, k, want.data());
      ASSERT_EQ(bits(got.data(), a_len), bits(want.data(), a_len))
          << "A " << m << "x" << k << (transposed ? " T" : " N");

      const std::int64_t b_rs = transposed ? 1 : n, b_cs = transposed ? k : 1;
      const std::int64_t b_len = gemm_col_panels(n) * k * kGemmNR;
      got.assign(static_cast<std::size_t>(b_len), 7.f);
      want.assign(static_cast<std::size_t>(b_len), -7.f);
      pack_b_panels(src.data(), b_rs, b_cs, k, n, got.data());
      ref::pack_b(src.data(), b_rs, b_cs, k, n, want.data());
      ASSERT_EQ(bits(got.data(), b_len), bits(want.data(), b_len))
          << "B " << k << "x" << n << (transposed ? " T" : " N");
    }
  }
}

// The max pools of every default net in the registry, at their real
// input sizes.
std::vector<PoolGeom> registry_max_pools() {
  std::vector<PoolGeom> pools;
  for (frameworks::FrameworkKind fw : frameworks::kAllFrameworks)
    for (frameworks::DatasetId ds : frameworks::kAllDatasets) {
      util::Rng rng(1);
      const nn::Sequential model =
          nn::build_model(frameworks::default_network_spec(fw, ds), rng);
      for (std::size_t i = 0; i < model.size(); ++i)
        if (const auto* pool =
                dynamic_cast<const nn::MaxPool2d*>(&model.layer(i)))
          pools.push_back(pool->geom());
    }
  return pools;
}

// Forward values and argmax bitwise, and the backward scatter, against
// the per-window loop.
void check_maxpool(util::Rng& rng, const PoolGeom& g, std::int64_t batch,
                   const Device& dev) {
  const std::int64_t planes = batch * g.channels;
  const std::vector<float> v = tricky_values(rng, planes * g.in_h * g.in_w);
  Tensor x(Shape({batch, g.channels, g.in_h, g.in_w}), v);
  std::vector<std::int32_t> argmax(5, 99);  // stale contents are rewritten
  Tensor y = maxpool_forward(x, g, argmax, dev);

  const std::int64_t out = y.numel();
  std::vector<float> want_y(static_cast<std::size_t>(out));
  std::vector<std::int32_t> want_idx(static_cast<std::size_t>(out));
  ref::maxpool_forward(x.raw(), planes, g, want_y.data(), want_idx.data());
  const auto where = [&] {
    return ::testing::Message()
           << g.channels << "x" << g.in_h << "x" << g.in_w << " w" << g.window
           << " s" << g.stride << (g.ceil_mode ? " ceil" : " floor");
  };
  ASSERT_EQ(bits(y.raw(), out), bits(want_y.data(), out)) << where();
  ASSERT_EQ(argmax, want_idx) << where();

  const std::vector<float> dyv = tricky_values(rng, out);
  Tensor dy(y.shape(), dyv);
  Tensor dx = maxpool_backward(dy, g, argmax, dev);
  std::vector<float> want_dx(static_cast<std::size_t>(x.numel()));
  ref::maxpool_backward(dy.raw(), want_idx.data(), planes, g, want_dx.data());
  ASSERT_EQ(sum_bits(dx.raw(), dx.numel()),
            sum_bits(want_dx.data(), dx.numel()))
      << where();
}

// Planes up to 33x33 give output rows of up to 33, so the compiled-in
// 2x2/2 and 3x3/2 bodies run their vectorised column loop for whole
// passes plus a remainder; those two geometries take two thirds of the
// draws, the rest exercise the runtime body (overlapping, disjoint and
// gapped windows). Ceil mode adds clipped and past-the-edge windows.
TEST(CopyKernelDiff, MaxPoolMatchesPerWindowScan) {
  util::Rng rng(103);
  const Device devs[] = {Device::cpu(), Device::parallel(2),
                         Device::parallel(3)};
  const std::vector<PoolGeom> nets = registry_max_pools();
  ASSERT_EQ(nets.size(), 11u);  // two per net, one in Caffe's CIFAR net
  for (std::size_t i = 0; i < nets.size(); ++i) {
    check_maxpool(rng, nets[i], 2, devs[i % 3]);
    if (HasFatalFailure()) return;
  }
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    PoolGeom g;
    g.channels = draw(rng, 1, 3);
    const std::uint64_t shape = rng.uniform_index(3);
    g.window = shape == 0 ? 2 : shape == 1 ? 3 : draw(rng, 1, 4);
    g.stride = shape < 2 ? 2 : draw(rng, 1, 3);  // stride < window: overlap
    g.ceil_mode = rng.uniform_index(2) == 1;
    g.in_h = draw(rng, 1, 33);
    g.in_w = draw(rng, 1, 33);
    if (g.out_h() <= 0 || g.out_w() <= 0) continue;
    ++checked;
    check_maxpool(rng, g, draw(rng, 1, 3), devs[trial % 3]);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 250);
}

// Packing W (and W^T) once per conv call instead of once per sample
// must give the bits of the per-sample gemm_packed form.
TEST(CopyKernelDiff, ConvPrepackedWeightMatchesPerSamplePacking) {
  util::Rng rng(104);
  const Device serial = Device::cpu();
  for (int trial = 0; trial < 40; ++trial) {
    const ConvGeom g = random_conv_geom(rng);
    if (g.out_h() <= 0 || g.out_w() <= 0) continue;
    const std::int64_t n = draw(rng, 1, 5);
    const std::int64_t ohw = g.out_h() * g.out_w(), patch = g.patch_size();
    Tensor x = Tensor::randn(Shape({n, g.in_c, g.in_h, g.in_w}), rng);
    Tensor w = Tensor::randn(Shape({g.out_c, patch}), rng);
    Tensor b = Tensor::randn(Shape({g.out_c}), rng);
    Tensor dy = Tensor::randn(Shape({n, g.out_c, g.out_h(), g.out_w()}), rng);
    const Device dev = trial % 2 ? Device::parallel(3) : serial;
    Tensor y = conv2d_forward(x, w, b, g, dev);
    ConvGrads grads = conv2d_backward(x, w, dy, g, serial);

    const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
    const std::int64_t out_sz = g.out_c * ohw;
    std::vector<float> cols(static_cast<std::size_t>(patch * ohw));
    std::vector<float> dcols(cols.size());
    std::vector<float> want_y(static_cast<std::size_t>(n * out_sz));
    std::vector<float> want_dx(static_cast<std::size_t>(n * in_sz));
    std::vector<float> dw_s(static_cast<std::size_t>(g.out_c * patch));
    std::vector<float> want_dw(dw_s.size(), 0.f);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dyo = dy.raw() + i * out_sz;
      ref::im2col(x.raw() + i * in_sz, g, cols.data());
      gemm_packed(w.raw(), patch, 1, cols.data(), ohw, 1,
                  want_y.data() + i * out_sz, g.out_c, patch, ohw,
                  GemmEpilogue::kBiasRowInit, b.raw(), serial);
      gemm_packed(dyo, ohw, 1, cols.data(), 1, ohw, dw_s.data(), g.out_c,
                  ohw, patch, GemmEpilogue::kNone, nullptr, serial);
      for (std::size_t e = 0; e < dw_s.size(); ++e) want_dw[e] += dw_s[e];
      gemm_packed(w.raw(), 1, patch, dyo, ohw, 1, dcols.data(), patch,
                  g.out_c, ohw, GemmEpilogue::kNone, nullptr, serial);
      ref::col2im(dcols.data(), g, want_dx.data() + i * in_sz);
    }
    ASSERT_EQ(bits(y.raw(), y.numel()), bits(want_y.data(), y.numel()));
    ASSERT_EQ(bits(grads.dx.raw(), grads.dx.numel()),
              bits(want_dx.data(), grads.dx.numel()));
    ASSERT_EQ(bits(grads.dweight.raw(), grads.dweight.numel()),
              bits(want_dw.data(), grads.dweight.numel()));
  }
}

}  // namespace
}  // namespace dlbench::tensor
