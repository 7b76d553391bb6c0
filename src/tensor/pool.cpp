#include "tensor/pool.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace {

// Output sizes divide by the stride: check it before computing one.
void check_pool_window(const PoolGeom& g) {
  DLB_CHECK(g.window > 0 && g.stride > 0,
            "pool window " << g.window << " / stride " << g.stride
                           << " must be > 0");
}

void check_pool_input(const Tensor& x, const PoolGeom& g) {
  DLB_CHECK(x.shape().rank() == 4, "pool input must be [N, C, H, W]");
  DLB_CHECK(x.dim(1) == g.channels && x.dim(2) == g.in_h && x.dim(3) == g.in_w,
            "pool input " << x.shape().to_string()
                          << " does not match geometry");
  check_pool_window(g);
  DLB_CHECK(g.out_h() > 0 && g.out_w() > 0, "pool output is empty");
}

// Scans planes [lo, hi) one window at a time, keeping each window's
// running max and flat index in registers. kWindow/kStride > 0 compile
// the geometry in (the window loops unroll and the column loop
// vectorises across outputs); 0 reads it from `g`. Every window is
// visited row-major with a strict '>' from -inf at index 0, the order
// of a plain per-window loop, so ties, NaN and -inf pick the same max
// and argmax whichever body runs.
template <int kWindow, int kStride>
void maxpool_planes(const float* __restrict px, float* __restrict py,
                    std::int32_t* __restrict pa, const PoolGeom& g,
                    std::size_t lo, std::size_t hi) {
  const std::int64_t window = kWindow ? kWindow : g.window;
  const std::int64_t stride = kStride ? kStride : g.stride;
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t in_plane = g.in_h * g.in_w, out_plane = oh * ow;
  const float ninf = -std::numeric_limits<float>::infinity();
  // Windows x0 < full_w lie wholly inside their row; the rest (ceil
  // mode) clip at the right edge, or start past it.
  const std::int64_t full_w =
      g.in_w < window ? 0 : std::min(ow, (g.in_w - window) / stride + 1);
  // A full window lies inside the plane, whose offsets fit in int32
  // (checked by the caller), so the branch-free loop runs in int32 lanes.
  // (A window or stride too large for int32 leaves it at most one
  // window, at x = 0.)
  const auto kw = static_cast<std::int32_t>(window);
  const auto ks = static_cast<std::int32_t>(stride);
  const auto in_w = static_cast<std::int32_t>(g.in_w);
  const auto full32 = static_cast<std::int32_t>(full_w);
  for (std::size_t pc = lo; pc < hi; ++pc) {
    const float* in = px + static_cast<std::int64_t>(pc) * in_plane;
    float* out = py + static_cast<std::int64_t>(pc) * out_plane;
    std::int32_t* at = pa + static_cast<std::int64_t>(pc) * out_plane;
    for (std::int64_t y0 = 0; y0 < oh; ++y0, out += ow, at += ow) {
      const std::int64_t ys = y0 * stride;
      const std::int64_t ye = std::min(ys + window, g.in_h);
      std::int64_t x0 = 0;
      if (ye - ys == window) {
        const auto top = static_cast<std::int32_t>(ys * g.in_w);
        for (std::int32_t x = 0; x < full32; ++x) {
          float best = ninf;
          std::int32_t best_at = 0;
          for (std::int32_t ky = 0; ky < kw; ++ky)
            for (std::int32_t kx = 0; kx < kw; ++kx) {
              const std::int32_t off = top + ky * in_w + x * ks + kx;
              const float v = in[off];
              const bool take = v > best;
              best = take ? v : best;
              best_at = take ? off : best_at;
            }
          out[x] = best;
          at[x] = best_at;
        }
        x0 = full_w;
      }
      for (; x0 < ow; ++x0) {
        const std::int64_t xs = x0 * stride;
        const std::int64_t xe = std::min(xs + window, g.in_w);
        float best = ninf;
        std::int32_t best_at = 0;
        for (std::int64_t iy = ys; iy < ye; ++iy)
          for (std::int64_t ix = xs; ix < xe; ++ix) {
            const std::int64_t off = iy * g.in_w + ix;
            if (in[off] > best) {
              best = in[off];
              best_at = static_cast<std::int32_t>(off);
            }
          }
        out[x0] = best;
        at[x0] = best_at;
      }
    }
  }
}

}  // namespace

Tensor maxpool_forward(const Tensor& x, const PoolGeom& g,
                       std::vector<std::int32_t>& argmax, const Device& dev) {
  check_pool_input(x, g);
  DLB_CHECK(g.in_h * g.in_w <= std::numeric_limits<std::int32_t>::max(),
            "maxpool plane of " << g.in_h * g.in_w
                                << " elements overflows argmax");
  const std::int64_t n = x.dim(0);
  // uninit / resize: every output element is written by its window.
  Tensor y = Tensor::uninit(Shape({n, g.channels, g.out_h(), g.out_w()}));
  argmax.resize(static_cast<std::size_t>(y.numel()));
  const float* px = x.raw();
  float* py = y.raw();
  std::int32_t* pa = argmax.data();
  // The two geometries the paper's nets pool with get their own body.
  auto planes = &maxpool_planes<0, 0>;
  if (g.window == 2 && g.stride == 2) planes = &maxpool_planes<2, 2>;
  if (g.window == 3 && g.stride == 2) planes = &maxpool_planes<3, 2>;
  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) { planes(px, py, pa, g, lo, hi); },
      2);
  return y;
}

Tensor maxpool_backward(const Tensor& dy, const PoolGeom& g,
                        const std::vector<std::int32_t>& argmax,
                        const Device& dev) {
  check_pool_window(g);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  DLB_CHECK(dy.shape().rank() == 4 && dy.dim(1) == g.channels &&
                dy.dim(2) == oh && dy.dim(3) == ow,
            "maxpool dy shape mismatch: " << dy.shape().to_string());
  DLB_CHECK(static_cast<std::int64_t>(argmax.size()) == dy.numel(),
            "argmax size mismatch");
  const std::int64_t n = dy.dim(0);
  Tensor dx({n, g.channels, g.in_h, g.in_w});
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const float* pdy = dy.raw();
  float* pdx = dx.raw();
  const std::int32_t* pa = argmax.data();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* dout = pdy + static_cast<std::int64_t>(pc) * out_plane;
          const std::int32_t* amax =
              pa + static_cast<std::int64_t>(pc) * out_plane;
          float* din = pdx + static_cast<std::int64_t>(pc) * in_plane;
          for (std::int64_t j = 0; j < out_plane; ++j)
            din[amax[j]] += dout[j];
        }
      },
      2);
  return dx;
}

Tensor avgpool_forward(const Tensor& x, const PoolGeom& g, const Device& dev) {
  check_pool_input(x, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor y({n, g.channels, oh, ow});
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const float* px = x.raw();
  float* py = y.raw();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* in = px + static_cast<std::int64_t>(pc) * in_plane;
          float* out = py + static_cast<std::int64_t>(pc) * out_plane;
          for (std::int64_t y0 = 0; y0 < oh; ++y0) {
            for (std::int64_t x0 = 0; x0 < ow; ++x0) {
              const std::int64_t ys = y0 * g.stride;
              const std::int64_t xs = x0 * g.stride;
              const std::int64_t ye = std::min(ys + g.window, g.in_h);
              const std::int64_t xe = std::min(xs + g.window, g.in_w);
              float acc = 0.f;
              for (std::int64_t iy = ys; iy < ye; ++iy)
                for (std::int64_t ix = xs; ix < xe; ++ix)
                  acc += in[iy * g.in_w + ix];
              const auto count = static_cast<float>((ye - ys) * (xe - xs));
              out[y0 * ow + x0] = acc / count;
            }
          }
        }
      },
      2);
  return y;
}

Tensor avgpool_backward(const Tensor& dy, const PoolGeom& g,
                        const Device& dev) {
  check_pool_window(g);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  DLB_CHECK(dy.shape().rank() == 4 && dy.dim(1) == g.channels &&
                dy.dim(2) == oh && dy.dim(3) == ow,
            "avgpool dy shape mismatch: " << dy.shape().to_string());
  const std::int64_t n = dy.dim(0);
  Tensor dx({n, g.channels, g.in_h, g.in_w});
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const float* pdy = dy.raw();
  float* pdx = dx.raw();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* dout = pdy + static_cast<std::int64_t>(pc) * out_plane;
          float* din = pdx + static_cast<std::int64_t>(pc) * in_plane;
          for (std::int64_t y0 = 0; y0 < oh; ++y0) {
            for (std::int64_t x0 = 0; x0 < ow; ++x0) {
              const std::int64_t ys = y0 * g.stride;
              const std::int64_t xs = x0 * g.stride;
              const std::int64_t ye = std::min(ys + g.window, g.in_h);
              const std::int64_t xe = std::min(xs + g.window, g.in_w);
              const auto count = static_cast<float>((ye - ys) * (xe - xs));
              const float share = dout[y0 * ow + x0] / count;
              for (std::int64_t iy = ys; iy < ye; ++iy)
                for (std::int64_t ix = xs; ix < xe; ++ix)
                  din[iy * g.in_w + ix] += share;
            }
          }
        }
      },
      2);
  return dx;
}

}  // namespace dlbench::tensor
