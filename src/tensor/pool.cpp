#include "tensor/pool.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace {

void check_pool_input(const Tensor& x, const PoolGeom& g) {
  DLB_CHECK(x.shape().rank() == 4, "pool input must be [N, C, H, W]");
  DLB_CHECK(x.dim(1) == g.channels && x.dim(2) == g.in_h && x.dim(3) == g.in_w,
            "pool input " << x.shape().to_string()
                          << " does not match geometry");
  DLB_CHECK(g.window > 0 && g.stride > 0, "pool window/stride must be > 0");
  DLB_CHECK(g.out_h() > 0 && g.out_w() > 0, "pool output is empty");
}

}  // namespace

Tensor maxpool_forward(const Tensor& x, const PoolGeom& g,
                       std::vector<std::int32_t>& argmax, const Device& dev) {
  check_pool_input(x, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // uninit / resize: each output row is initialised before its sweep.
  Tensor y = Tensor::uninit(Shape({n, g.channels, oh, ow}));
  argmax.resize(static_cast<std::size_t>(y.numel()));

  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  DLB_CHECK(in_plane <= std::numeric_limits<std::int32_t>::max(),
            "maxpool plane of " << in_plane << " elements overflows argmax");
  const float* px = x.raw();
  float* py = y.raw();
  std::int32_t* pa = argmax.data();

  // Row sweeps: for one output row, the window offsets (iy, kx) are the
  // outer loops and the output columns the inner one, so the compare
  // runs along a contiguous (or stride-s) input row. Each output still
  // sees its window in row-major order with a strict '>', which keeps
  // ties, NaN and -inf on the same max and argmax as a per-window scan.
  // Windows never start past the input (ceil mode included), so only
  // their right and bottom edges clip.
  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* in = px + static_cast<std::int64_t>(pc) * in_plane;
          for (std::int64_t y0 = 0; y0 < oh; ++y0) {
            const std::int64_t row =
                static_cast<std::int64_t>(pc) * out_plane + y0 * ow;
            float* best = py + row;
            std::int32_t* best_idx = pa + row;
            std::fill_n(best, ow, -std::numeric_limits<float>::infinity());
            std::fill_n(best_idx, ow, 0);
            const std::int64_t ys = y0 * g.stride;
            const std::int64_t ye = std::min(ys + g.window, g.in_h);
            for (std::int64_t iy = ys; iy < ye; ++iy) {
              const float* in_row = in + iy * g.in_w;
              for (std::int64_t kx = 0; kx < g.window; ++kx) {
                // Outputs whose window reaches column kx inside the row.
                const std::int64_t reach = g.in_w - kx;
                if (reach <= 0) break;
                const std::int64_t x_hi =
                    std::min(ow, (reach + g.stride - 1) / g.stride);
                const auto base = static_cast<std::int32_t>(iy * g.in_w + kx);
                const auto step = static_cast<std::int32_t>(g.stride);
                for (std::int64_t x0 = 0; x0 < x_hi; ++x0) {
                  const float v = in_row[x0 * g.stride + kx];
                  const bool take = v > best[x0];
                  best[x0] = take ? v : best[x0];
                  best_idx[x0] =
                      take ? base + static_cast<std::int32_t>(x0) * step
                           : best_idx[x0];
                }
              }
            }
          }
        }
      },
      2);
  return y;
}

Tensor maxpool_backward(const Tensor& dy, const PoolGeom& g,
                        const std::vector<std::int32_t>& argmax,
                        const Device& dev) {
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
