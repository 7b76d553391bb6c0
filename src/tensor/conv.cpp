#include "tensor/conv.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

void im2col(const float* image, const ConvGeom& g, float* columns) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  // columns is [in_c * k * k, oh * ow], row-major.
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        float* out_row = columns + row * ohw;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(out_row + y * ow, 0,
                        static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          const float* in_row = image + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kx - g.pad;
            out_row[y * ow + x] =
                (ix >= 0 && ix < g.in_w) ? in_row[ix] : 0.f;
          }
        }
      }
    }
  }
}

void col2im(const float* columns, const ConvGeom& g, float* image) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  std::memset(image, 0,
              static_cast<std::size_t>(g.in_c * g.in_h * g.in_w) *
                  sizeof(float));
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        const float* in_row = columns + row * ohw;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* img_row = image + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kx - g.pad;
            if (ix >= 0 && ix < g.in_w) img_row[ix] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

namespace {

// Grow-only per-thread staging for the im2col/col2im buffers and the
// packed-backward dW scratch. A pool worker runs one chunk at a time
// and the pool is never re-entered, so the three named buffers of one
// thread are never live twice concurrently. On the serial executor
// path the staging is a Tensor freed with the call instead; in pool
// workers this thread-local reuse is what keeps them allocation-free
// in steady state.
enum WorkerBuf { kColumns = 0, kDColumns = 1, kDwScratch = 2 };

float* worker_scratch(WorkerBuf which, std::size_t floats) {
  thread_local std::vector<float> bufs[3];
  auto& v = bufs[which];
  if (v.size() < floats) v.resize(floats);
  return v.data();
}

void check_conv_args(const Tensor& x, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& g) {
  DLB_CHECK(x.shape().rank() == 4, "conv input must be [N, C, H, W]");
  DLB_CHECK(x.dim(1) == g.in_c && x.dim(2) == g.in_h && x.dim(3) == g.in_w,
            "conv input " << x.shape().to_string()
                          << " does not match geometry");
  DLB_CHECK(weight.shape().rank() == 2 && weight.dim(0) == g.out_c &&
                weight.dim(1) == g.patch_size(),
            "conv weight must be [out_c, in_c*k*k], got "
                << weight.shape().to_string());
  DLB_CHECK(bias.shape().rank() == 1 && bias.dim(0) == g.out_c,
            "conv bias must be [out_c]");
  DLB_CHECK(g.out_h() > 0 && g.out_w() > 0,
            "conv output is empty for input " << g.in_h << "x" << g.in_w);
}

}  // namespace

Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const ConvGeom& g,
                      const Device& dev, bool fuse_relu) {
  runtime::trace::Span span("conv2d_fwd", "kernel");
  check_conv_args(x, weight, bias, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  // uninit: every branch below writes the full output (bias init or
  // epilogue covers all of each sample's region).
  Tensor y = Tensor::uninit(Shape({n, g.out_c, oh, ow}));

  const float* px = x.raw();
  const float* pw = weight.raw();
  const float* pb = bias.raw();
  float* py = y.raw();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * ohw;

  // GEMM for one unfolded sample, 4-channel blocking so each column row
  // is read once per 4 output channels: out[oc, :] = W[oc, :]*columns+b.
  auto gemm_sample = [&](const float* columns, float* out, std::int64_t oc_lo,
                         std::int64_t oc_hi) {
    std::int64_t oc = oc_lo;
    for (; oc + 4 <= oc_hi; oc += 4) {
      float* o0 = out + (oc + 0) * ohw;
      float* o1 = out + (oc + 1) * ohw;
      float* o2 = out + (oc + 2) * ohw;
      float* o3 = out + (oc + 3) * ohw;
      std::fill_n(o0, ohw, pb[oc + 0]);
      std::fill_n(o1, ohw, pb[oc + 1]);
      std::fill_n(o2, ohw, pb[oc + 2]);
      std::fill_n(o3, ohw, pb[oc + 3]);
      const float* w0 = pw + (oc + 0) * patch;
      const float* w1 = pw + (oc + 1) * patch;
      const float* w2 = pw + (oc + 2) * patch;
      const float* w3 = pw + (oc + 3) * patch;
      for (std::int64_t p = 0; p < patch; ++p) {
        const float v0 = w0[p], v1 = w1[p], v2 = w2[p], v3 = w3[p];
        const float* crow = columns + p * ohw;
        for (std::int64_t j = 0; j < ohw; ++j) {
          const float cv = crow[j];
          o0[j] += v0 * cv;
          o1[j] += v1 * cv;
          o2[j] += v2 * cv;
          o3[j] += v3 * cv;
        }
      }
    }
    for (; oc < oc_hi; ++oc) {
      float* orow = out + oc * ohw;
      std::fill_n(orow, ohw, pb[oc]);
      const float* wrow = pw + oc * patch;
      for (std::int64_t p = 0; p < patch; ++p) {
        const float wv = wrow[p];
        if (wv == 0.f) continue;
        const float* crow = columns + p * ohw;
        for (std::int64_t j = 0; j < ohw; ++j) orow[j] += wv * crow[j];
      }
    }
  };

  // Packed tier: the unfolded sample is a [out_c, patch] x [patch, ohw]
  // GEMM with the per-channel bias applied in the kBiasRowInit epilogue
  // (accumulators start at bias[oc] — the same operation chain as the
  // legacy fill-then-accumulate kernel, so results are bitwise equal).
  // With fuse_relu the epilogue is kBiasRowRelu: max(0, ·) on the
  // finished accumulator, bitwise identical to a separate relu() pass.
  const bool packed = gemm_packed_active();
  const GemmEpilogue epi =
      fuse_relu ? GemmEpilogue::kBiasRowRelu : GemmEpilogue::kBiasRowInit;
  const Device serial = Device::cpu();

  // Legacy tier's fused ReLU: one in-cache sweep over a sample's just-
  // computed output region.
  const auto relu_region = [](float* p, std::int64_t count) {
    for (std::int64_t j = 0; j < count; ++j)
      p[j] = p[j] > 0.f ? p[j] : 0.f;
  };

  const std::size_t col_floats = static_cast<std::size_t>(patch * ohw);
  const bool inline_exec = !dev.is_parallel();

  if (n >= 4 || inline_exec) {
    // Batch-level parallelism; each sample's GEMM runs serially inside
    // its chunk (the pool must not be re-entered from a worker). On
    // the serial device the "chunk" runs inline on the owner thread
    // and stages into a call-owned tensor.
    Tensor owner_cols;
    if (inline_exec) owner_cols = Tensor::uninit(Shape({patch * ohw}));
    dev.parallel_for(
        static_cast<std::size_t>(n),
        [&](std::size_t lo, std::size_t hi) {
          float* columns = inline_exec
                               ? owner_cols.raw()
                               : worker_scratch(kColumns, col_floats);
          for (std::size_t i = lo; i < hi; ++i) {
            im2col(px + static_cast<std::int64_t>(i) * in_sz, g, columns);
            float* out = py + static_cast<std::int64_t>(i) * out_sz;
            if (packed) {
              gemm_packed(pw, patch, 1, columns, ohw, 1, out, g.out_c,
                          patch, ohw, epi, pb, serial);
            } else {
              gemm_sample(columns, out, 0, g.out_c);
              if (fuse_relu) relu_region(out, out_sz);
            }
          }
        },
        1);
    return y;
  }

  // Tiny batches on the parallel device: unfold serially, split the
  // GEMM across output channels (how GPU conv kernels keep SMs busy at
  // batch size 1, e.g. Torch's CIFAR-10 default). The packed kernel
  // threads over output-channel macro-tiles instead of raw rows. The
  // unfold buffer lives on the owner thread.
  Tensor owner_cols = Tensor::uninit(Shape({patch * ohw}));
  float* columns = owner_cols.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    im2col(px + i * in_sz, g, columns);
    float* out = py + i * out_sz;
    if (packed) {
      gemm_packed(pw, patch, 1, columns, ohw, 1, out, g.out_c, patch, ohw,
                  epi, pb, dev);
      continue;
    }
    dev.parallel_for(
        static_cast<std::size_t>(g.out_c),
        [&](std::size_t lo, std::size_t hi) {
          gemm_sample(columns, out, static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(hi));
          if (fuse_relu)
            relu_region(out + static_cast<std::int64_t>(lo) * ohw,
                        static_cast<std::int64_t>(hi - lo) * ohw);
        },
        1);
  }
  return y;
}

ConvGrads conv2d_backward(const Tensor& x, const Tensor& weight,
                          const Tensor& dy, const ConvGeom& g,
                          const Device& dev) {
  runtime::trace::Span span("conv2d_bwd", "kernel");
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  DLB_CHECK(dy.shape() == Shape({n, g.out_c, oh, ow}),
            "conv dy shape " << dy.shape().to_string() << " unexpected");

  // dx: uninit is safe — col2im fully overwrites (memset + accumulate)
  // each sample's region. dweight/dbias stay zero-initialized: they
  // are += targets for the sorted chunk merge below.
  ConvGrads grads{Tensor::uninit(x.shape()), Tensor(weight.shape()),
                  Tensor({g.out_c})};
  const float* px = x.raw();
  const float* pw = weight.raw();
  const float* pdy = dy.raw();
  float* pdx = grads.dx.raw();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * ohw;

  // Packed tier: both backward GEMMs of a sample run on the 6x16
  // micro-kernels (serial inside a batch chunk — the pool is never
  // re-entered):
  //   dW_s[oc, p]   = dy_i · columns^T   A = dy_i (ohw, 1),
  //                                      B = columns^T (1, ohw)
  //   dcolumns[p,:] = W^T · dy_i         A = W^T (1, patch),
  //                                      B = dy_i (ohw, 1)
  // dW_s is a per-sample scratch accumulated into the chunk partial so
  // the cross-sample += order stays the chunk's sample order; db keeps
  // the trivial legacy reduction. Per-element rounding changes from
  // the legacy fused pass (single fma chain per output instead of the
  // blocked mix), which moved the golden baselines within their bands;
  // they were re-recorded (golden policy, DESIGN.md §15).
  const bool packed = gemm_packed_active();
  const Device serial = Device::cpu();
  const std::size_t col_floats = static_cast<std::size_t>(patch * ohw);
  const std::size_t dw_floats = static_cast<std::size_t>(g.out_c * patch);
  const bool inline_exec = !dev.is_parallel();

  // Staging: call-owned tensors on the serial executor path, grow-only
  // thread-local buffers in pool workers (see worker_scratch).
  Tensor owner_cols, owner_dcols, owner_dw;
  if (inline_exec) {
    owner_cols = Tensor::uninit(Shape({patch * ohw}));
    owner_dcols = Tensor::uninit(Shape({patch * ohw}));
    if (packed) owner_dw = Tensor::uninit(Shape({g.out_c * patch}));
  }

  // Per-chunk weight/bias partials, merged serially in chunk order after
  // the parallel region: float accumulation order is then a function of
  // the chunking alone, not of thread completion order, so an N-thread
  // run is bit-reproducible run to run.
  std::mutex reduce_mu;
  std::vector<std::pair<std::size_t, std::vector<float>>> partials;

  dev.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        float* columns = inline_exec ? owner_cols.raw()
                                     : worker_scratch(kColumns, col_floats);
        float* dcolumns = inline_exec
                              ? owner_dcols.raw()
                              : worker_scratch(kDColumns, col_floats);
        float* dw_s = nullptr;
        if (packed)
          dw_s = inline_exec ? owner_dw.raw()
                             : worker_scratch(kDwScratch, dw_floats);
        std::vector<float> local_dw(static_cast<std::size_t>(g.out_c * patch),
                                    0.f);
        std::vector<float> local_db(static_cast<std::size_t>(g.out_c), 0.f);

        for (std::size_t i = lo; i < hi; ++i) {
          const float* xin = px + static_cast<std::int64_t>(i) * in_sz;
          const float* dyo = pdy + static_cast<std::int64_t>(i) * out_sz;
          im2col(xin, g, columns);

          // db[oc] += sum dy[oc, :]
          for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
            const float* drow = dyo + oc * ohw;
            float db_acc = 0.f;
            for (std::int64_t j = 0; j < ohw; ++j) db_acc += drow[j];
            local_db[static_cast<std::size_t>(oc)] += db_acc;
          }

          if (packed) {
            gemm_packed(dyo, ohw, 1, columns, 1, ohw, dw_s, g.out_c, ohw,
                        patch, GemmEpilogue::kNone, nullptr, serial);
            for (std::size_t k = 0; k < dw_floats; ++k)
              local_dw[k] += dw_s[k];
            gemm_packed(pw, 1, patch, dyo, ohw, 1, dcolumns, patch,
                        g.out_c, ohw, GemmEpilogue::kNone, nullptr, serial);
            col2im(dcolumns, g, pdx + static_cast<std::int64_t>(i) * in_sz);
            continue;
          }

          // Legacy tier: fused per-patch pass, 4-channel blocking:
          //   dW[oc, p]     += dy[oc, :] · columns[p, :]
          //   dcolumns[p,:] += W[oc, p] * dy[oc, :]
          for (std::int64_t p = 0; p < patch; ++p) {
            const float* crow = columns + p * ohw;
            float* dcrow = dcolumns + p * ohw;
            std::memset(dcrow, 0,
                        static_cast<std::size_t>(ohw) * sizeof(float));
            std::int64_t oc = 0;
            for (; oc + 4 <= g.out_c; oc += 4) {
              const float* d0 = dyo + (oc + 0) * ohw;
              const float* d1 = dyo + (oc + 1) * ohw;
              const float* d2 = dyo + (oc + 2) * ohw;
              const float* d3 = dyo + (oc + 3) * ohw;
              const float w0 = pw[(oc + 0) * patch + p];
              const float w1 = pw[(oc + 1) * patch + p];
              const float w2 = pw[(oc + 2) * patch + p];
              const float w3 = pw[(oc + 3) * patch + p];
              float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
              for (std::int64_t j = 0; j < ohw; ++j) {
                const float cv = crow[j];
                a0 += d0[j] * cv;
                a1 += d1[j] * cv;
                a2 += d2[j] * cv;
                a3 += d3[j] * cv;
                dcrow[j] += w0 * d0[j] + w1 * d1[j] + w2 * d2[j] + w3 * d3[j];
              }
              local_dw[static_cast<std::size_t>((oc + 0) * patch + p)] += a0;
              local_dw[static_cast<std::size_t>((oc + 1) * patch + p)] += a1;
              local_dw[static_cast<std::size_t>((oc + 2) * patch + p)] += a2;
              local_dw[static_cast<std::size_t>((oc + 3) * patch + p)] += a3;
            }
            for (; oc < g.out_c; ++oc) {
              const float* drow = dyo + oc * ohw;
              const float wv = pw[oc * patch + p];
              float acc = 0.f;
              for (std::int64_t j = 0; j < ohw; ++j) {
                acc += drow[j] * crow[j];
                dcrow[j] += wv * drow[j];
              }
              local_dw[static_cast<std::size_t>(oc * patch + p)] += acc;
            }
          }
          col2im(dcolumns, g, pdx + static_cast<std::int64_t>(i) * in_sz);
        }

        // Pack dW then db into one buffer keyed by the chunk's first
        // sample index; merged below in key order.
        local_dw.insert(local_dw.end(), local_db.begin(), local_db.end());
        std::lock_guard<std::mutex> lock(reduce_mu);
        partials.emplace_back(lo, std::move(local_dw));
      },
      1);

  std::sort(partials.begin(), partials.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  float* gw = grads.dweight.raw();
  float* gb = grads.dbias.raw();
  const std::size_t dw_size = static_cast<std::size_t>(g.out_c * patch);
  for (const auto& [lo, local] : partials) {
    for (std::size_t k = 0; k < dw_size; ++k) gw[k] += local[k];
    for (std::size_t k = 0; k < static_cast<std::size_t>(g.out_c); ++k)
      gb[k] += local[dw_size + k];
  }
  return grads;
}

}  // namespace dlbench::tensor
