#pragma once

// Layer abstraction shared by every framework emulation.
//
// A Layer owns its parameters and gradient buffers and caches whatever
// it needs from forward() to run backward(). Backward always propagates
// an input gradient, which is what the adversarial module differentiates
// through to build FGSM perturbations and JSMA saliency maps.
//
// Layer-author note (the uninit ownership rule, DESIGN.md §15):
// Tensor::uninit is only legal when every element is written before
// any read, and the call site must carry a comment saying so. If a
// code path may leave holes (padding, tail remainders), use
// Tensor(Shape), which zero-fills.

#include <memory>
#include <string>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dlbench::nn {

using runtime::Device;
using tensor::Tensor;

/// Per-call execution context threaded through forward/backward.
struct Context {
  Device device = Device::cpu();
  bool training = false;
  util::Rng* rng = nullptr;  // required when training with Dropout
};

class Layer;
using LayerPtr = std::unique_ptr<Layer>;

/// A single differentiable transformation y = f(x; params).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable kind, e.g. "conv5x5 1->32".
  virtual std::string describe() const = 0;

  /// Deep, independent copy: parameters are cloned buffers (never
  /// aliased), gradients start zeroed, and forward caches are NOT
  /// carried over — a clone is a fresh layer with the same weights.
  /// This is what lets the adversarial crafting engine hand every
  /// worker thread its own trainable replica of one model (a frozen
  /// inference view is not enough there: attacks differentiate through
  /// the layer caches).
  virtual LayerPtr clone() const = 0;

  /// Computes y from x; caches activations needed by backward().
  virtual Tensor forward(const Tensor& x, const Context& ctx) = 0;

  /// Given dL/dy, accumulates parameter gradients and returns dL/dx.
  /// Must be called after a matching forward().
  virtual Tensor backward(const Tensor& dy, const Context& ctx) = 0;

  /// Parameter tensors (empty for stateless layers). Order is stable
  /// and matches grads().
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Zeroes accumulated gradients.
  void zero_grads() {
    for (Tensor* g : grads()) g->fill(0.f);
  }

  /// Number of scalar parameters.
  std::int64_t num_params() {
    std::int64_t n = 0;
    for (Tensor* p : params()) n += p->numel();
    return n;
  }
};

}  // namespace dlbench::nn
