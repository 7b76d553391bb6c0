#pragma once

// Shared internals of the guarded training loops.
//
// Framework::train (single-worker) and DataParallelTrainer::train
// (K-worker) implement the same divergence-detection / snapshot /
// rollback contract; these helpers are that contract's moving parts,
// hoisted here so the two loops cannot drift apart.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "frameworks/config.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"

namespace dlbench::frameworks::detail {

using SteadyClock = std::chrono::steady_clock;

inline double secs_between(SteadyClock::time_point a,
                           SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deep copies of every parameter tensor (the rollback snapshot).
inline std::vector<tensor::Tensor> clone_params(nn::Sequential& model) {
  std::vector<tensor::Tensor> out;
  for (const tensor::Tensor* p : model.params()) out.push_back(p->clone());
  return out;
}

/// Writes a snapshot back into the model's parameter buffers.
inline void restore_params(nn::Sequential& model,
                           const std::vector<tensor::Tensor>& snapshot) {
  auto params = model.params();
  DLB_ASSERT(params.size() == snapshot.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto dst = params[i]->data();
    auto src = snapshot[i].data();
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

/// True when any gradient entry is non-finite, or (when `limit` > 0)
/// the global gradient L2 norm exceeds it. A non-finite entry makes the
/// accumulated sum of squares non-finite, so one pass covers both.
inline bool gradients_divergent(const std::vector<tensor::Tensor*>& grads,
                                double limit) {
  if (limit > 0.0) {
    double sumsq = 0.0;
    for (const tensor::Tensor* g : grads)
      for (const float v : g->data()) sumsq += static_cast<double>(v) * v;
    return !std::isfinite(sumsq) || std::sqrt(sumsq) > limit;
  }
  for (const tensor::Tensor* g : grads)
    if (g->has_non_finite()) return true;
  return false;
}

/// The recovery retry runs the same setting at a backed-off rate; the
/// multiplier applies to every phase of the schedule.
inline TrainingConfig scale_learning_rate(TrainingConfig config,
                                          double scale) {
  config.base_lr *= scale;
  for (auto& phase : config.lr_phases) phase.second *= scale;
  return config;
}

}  // namespace dlbench::frameworks::detail
