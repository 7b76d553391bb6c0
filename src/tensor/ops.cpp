#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dlbench::tensor {

namespace {

constexpr std::size_t kGrain = 4096;  // min elements per parallel chunk

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  DLB_CHECK(a.shape() == b.shape(),
            op << ": shape mismatch " << a.shape().to_string() << " vs "
               << b.shape().to_string());
}

template <typename F>
Tensor map2(const Tensor& a, const Tensor& b, const Device& dev, F f,
            const char* op) {
  check_same_shape(a, b, op);
  // uninit: every element is written below (Tensor::uninit ownership
  // rule — zero-fill would be pure waste).
  Tensor out = Tensor::uninit(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  dev.parallel_for(
      static_cast<std::size_t>(a.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
      },
      kGrain);
  return out;
}

template <typename F>
Tensor map1(const Tensor& a, const Device& dev, F f) {
  Tensor out = Tensor::uninit(a.shape());  // fully written below
  const float* pa = a.raw();
  float* po = out.raw();
  dev.parallel_for(
      static_cast<std::size_t>(a.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
      },
      kGrain);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b, const Device& dev) {
  return map2(a, b, dev, [](float x, float y) { return x + y; }, "add");
}

Tensor sub(const Tensor& a, const Tensor& b, const Device& dev) {
  return map2(a, b, dev, [](float x, float y) { return x - y; }, "sub");
}

Tensor mul(const Tensor& a, const Tensor& b, const Device& dev) {
  return map2(a, b, dev, [](float x, float y) { return x * y; }, "mul");
}

Tensor scale(const Tensor& a, float s, const Device& dev) {
  return map1(a, dev, [s](float x) { return x * s; });
}

void add_inplace(Tensor& a, const Tensor& b, const Device& dev) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  dev.parallel_for(
      static_cast<std::size_t>(a.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) pa[i] += pb[i];
      },
      kGrain);
}

void axpy_inplace(Tensor& a, float s, const Tensor& b, const Device& dev) {
  check_same_shape(a, b, "axpy_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  dev.parallel_for(
      static_cast<std::size_t>(a.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) pa[i] += s * pb[i];
      },
      kGrain);
}

void scale_inplace(Tensor& a, float s, const Device& dev) {
  float* pa = a.raw();
  dev.parallel_for(
      static_cast<std::size_t>(a.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) pa[i] *= s;
      },
      kGrain);
}

Tensor relu(const Tensor& x, const Device& dev) {
  return map1(x, dev, [](float v) { return v > 0.f ? v : 0.f; });
}

void relu_inplace(Tensor& x, const Device& dev) {
  float* p = x.raw();
  dev.parallel_for(
      static_cast<std::size_t>(x.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) p[i] = p[i] > 0.f ? p[i] : 0.f;
      },
      kGrain);
}

Tensor relu_backward(const Tensor& x, const Tensor& dy, const Device& dev) {
  return map2(
      x, dy, dev, [](float v, float g) { return v > 0.f ? g : 0.f; },
      "relu_backward");
}

Tensor tanh_op(const Tensor& x, const Device& dev) {
  return map1(x, dev, [](float v) { return std::tanh(v); });
}

void tanh_inplace(Tensor& x, const Device& dev) {
  float* p = x.raw();
  dev.parallel_for(
      static_cast<std::size_t>(x.numel()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) p[i] = std::tanh(p[i]);
      },
      kGrain);
}

Tensor tanh_backward(const Tensor& y, const Tensor& dy, const Device& dev) {
  return map2(
      y, dy, dev, [](float v, float g) { return g * (1.f - v * v); },
      "tanh_backward");
}

Tensor sign(const Tensor& x, const Device& dev) {
  return map1(x, dev, [](float v) {
    if (v > 0.f) return 1.f;
    if (v < 0.f) return -1.f;
    return 0.f;
  });
}

Tensor clamp(const Tensor& x, float lo, float hi, const Device& dev) {
  DLB_CHECK(lo <= hi, "clamp: lo > hi");
  return map1(x, dev, [lo, hi](float v) { return std::clamp(v, lo, hi); });
}

double sum(const Tensor& x) {
  double acc = 0.0;
  for (float v : x.data()) acc += v;
  return acc;
}

double mean_of(const Tensor& x) {
  if (x.numel() == 0) return 0.0;
  return sum(x) / static_cast<double>(x.numel());
}

std::int64_t argmax_row(const Tensor& x, std::int64_t r) {
  DLB_CHECK(x.shape().rank() == 2, "argmax_row expects rank-2 tensor");
  const std::int64_t cols = x.dim(1);
  DLB_CHECK(r >= 0 && r < x.dim(0), "row " << r << " out of " << x.dim(0));
  const float* row = x.raw() + r * cols;
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < cols; ++c)
    if (row[c] > row[best]) best = c;
  return best;
}

std::vector<std::int64_t> argmax_rows(const Tensor& x) {
  DLB_CHECK(x.shape().rank() == 2, "argmax_rows expects rank-2 tensor");
  std::vector<std::int64_t> out(static_cast<std::size_t>(x.dim(0)));
  for (std::int64_t r = 0; r < x.dim(0); ++r)
    out[static_cast<std::size_t>(r)] = argmax_row(x, r);
  return out;
}

Tensor softmax_rows(const Tensor& logits, const Device& dev) {
  DLB_CHECK(logits.shape().rank() == 2, "softmax_rows expects rank-2 tensor");
  const std::int64_t n = logits.dim(0);
  const std::int64_t c = logits.dim(1);
  Tensor out = Tensor::uninit(logits.shape());  // every row fully written
  const float* pin = logits.raw();
  float* pout = out.raw();
  dev.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* row = pin + r * static_cast<std::size_t>(c);
          float* orow = pout + r * static_cast<std::size_t>(c);
          float mx = row[0];
          for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
          float denom = 0.f;
          for (std::int64_t j = 0; j < c; ++j) {
            orow[j] = std::exp(row[j] - mx);
            denom += orow[j];
          }
          const float inv = 1.f / denom;
          for (std::int64_t j = 0; j < c; ++j) orow[j] *= inv;
        }
      },
      64);
  return out;
}

double cross_entropy_mean(const Tensor& probs,
                          const std::vector<std::int64_t>& labels) {
  DLB_CHECK(probs.shape().rank() == 2, "cross_entropy expects rank-2 tensor");
  const std::int64_t n = probs.dim(0);
  const std::int64_t c = probs.dim(1);
  DLB_CHECK(static_cast<std::int64_t>(labels.size()) == n,
            "label count mismatch");
  double loss = 0.0;
  // Clamp at FLT_MIN like Caffe's SoftmaxWithLoss: a fully diverged
  // model reports loss = -log(FLT_MIN) = 87.34, the plateau visible in
  // the paper's Fig. 5.
  constexpr double kMinProb = 1.17549435e-38;
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int64_t y = labels[static_cast<std::size_t>(r)];
    DLB_CHECK(y >= 0 && y < c, "label " << y << " out of " << c << " classes");
    const double p = static_cast<double>(probs.raw()[r * c + y]);
    loss -= std::log(std::max(p, kMinProb));
  }
  return loss / static_cast<double>(n);
}

Tensor softmax_cross_entropy_backward(const Tensor& probs,
                                      const std::vector<std::int64_t>& labels,
                                      const Device& dev) {
  DLB_CHECK(probs.shape().rank() == 2, "expects rank-2 tensor");
  const std::int64_t n = probs.dim(0);
  const std::int64_t c = probs.dim(1);
  DLB_CHECK(static_cast<std::int64_t>(labels.size()) == n,
            "label count mismatch");
  Tensor grad = probs.clone();
  float* pg = grad.raw();
  const float inv_n = 1.f / static_cast<float>(n);
  dev.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          float* row = pg + r * static_cast<std::size_t>(c);
          row[labels[r]] -= 1.f;
          for (std::int64_t j = 0; j < c; ++j) row[j] *= inv_n;
        }
      },
      64);
  return grad;
}

}  // namespace dlbench::tensor
