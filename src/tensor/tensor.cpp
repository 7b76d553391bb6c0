#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "runtime/trace.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

namespace {

// Every tensor buffer is obtained here: a plain heap allocation
// counted by the tensor.allocs / tensor.bytes trace counters.
std::shared_ptr<float[]> alloc_floats(std::size_t n, bool zero) {
  auto p = std::shared_ptr<float[]>(zero ? new float[n]() : new float[n]);
  runtime::trace::counter_add("tensor.allocs", 1);
  runtime::trace::counter_add("tensor.bytes",
                              static_cast<std::int64_t>(n * sizeof(float)));
  return p;
}

}  // namespace

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_ = alloc_floats(static_cast<std::size_t>(shape_.numel()),
                       /*zero=*/true);
}

Tensor::Tensor(Shape shape, float value) : Tensor(std::move(shape)) {
  fill(value);
}

Tensor::Tensor(Shape shape, std::span<const float> values)
    : Tensor(std::move(shape)) {
  DLB_CHECK(static_cast<std::int64_t>(values.size()) == numel(),
            "value count " << values.size() << " != numel " << numel());
  std::memcpy(data_.get(), values.data(), values.size() * sizeof(float));
}

Tensor Tensor::uninit(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = alloc_floats(static_cast<std::size_t>(t.shape_.numel()),
                         /*zero=*/false);
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  return Tensor(std::move(shape), value);
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

std::span<float> Tensor::data() {
  return {data_.get(), static_cast<std::size_t>(numel())};
}

std::span<const float> Tensor::data() const {
  return {data_.get(), static_cast<std::size_t>(numel())};
}

float& Tensor::at(std::int64_t i) {
  DLB_CHECK(i >= 0 && i < numel(), "index " << i << " out of " << numel());
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  DLB_CHECK(i >= 0 && i < numel(), "index " << i << " out of " << numel());
  return data_[static_cast<std::size_t>(i)];
}

Tensor Tensor::clone() const {
  // uninit: the memcpy overwrites every element, so the zero-fill of
  // Tensor(shape) would be pure waste (ownership rule, DESIGN.md §15).
  Tensor copy = Tensor::uninit(shape_);
  if (numel() > 0)
    std::memcpy(copy.data_.get(), data_.get(),
                static_cast<std::size_t>(numel()) * sizeof(float));
  return copy;
}

Tensor Tensor::reshape(Shape new_shape) const {
  DLB_CHECK(new_shape.numel() == numel(),
            "reshape " << shape_.to_string() << " -> "
                       << new_shape.to_string() << " changes element count");
  Tensor view;
  view.shape_ = std::move(new_shape);
  view.data_ = data_;
  return view;
}

void Tensor::fill(float value) {
  std::fill_n(data_.get(), static_cast<std::size_t>(numel()), value);
}

bool Tensor::has_non_finite() const {
  for (float v : data())
    if (!std::isfinite(v)) return true;
  return false;
}

std::string Tensor::to_string() const {
  std::ostringstream os;
  os << "Tensor" << shape_.to_string() << " {";
  const std::int64_t n = numel();
  const std::int64_t show = std::min<std::int64_t>(n, 8);
  for (std::int64_t i = 0; i < show; ++i)
    os << (i ? ", " : "") << data_[static_cast<std::size_t>(i)];
  if (n > show) os << ", …";
  os << "}";
  return os.str();
}

}  // namespace dlbench::tensor
