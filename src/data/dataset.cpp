#include "data/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "runtime/fault.hpp"
#include "util/entropy.hpp"
#include "util/error.hpp"

namespace dlbench::data {

Dataset Dataset::take(std::int64_t count) const {
  count = std::clamp<std::int64_t>(count, 0, size());
  Dataset out;
  out.name = name;
  out.num_classes = num_classes;
  const std::int64_t c = channels(), h = height(), w = width();
  out.images = Tensor({count, c, h, w});
  const std::int64_t sample_sz = c * h * w;
  std::memcpy(out.images.raw(), images.raw(),
              static_cast<std::size_t>(count * sample_sz) * sizeof(float));
  out.labels.assign(labels.begin(), labels.begin() + count);
  return out;
}

Tensor Dataset::sample(std::int64_t index) const {
  DLB_CHECK(index >= 0 && index < size(),
            "sample index " << index << " out of " << size());
  const std::int64_t c = channels(), h = height(), w = width();
  const std::int64_t sample_sz = c * h * w;
  Tensor out({1, c, h, w});
  std::memcpy(out.raw(), images.raw() + index * sample_sz,
              static_cast<std::size_t>(sample_sz) * sizeof(float));
  return out;
}

void Dataset::validate() const {
  DLB_CHECK(images.shape().rank() == 4, "images must be [N, C, H, W]");
  DLB_CHECK(static_cast<std::int64_t>(labels.size()) == size(),
            "label count " << labels.size() << " != image count " << size());
  DLB_CHECK(num_classes > 1, "need at least two classes");
  for (std::int64_t y : labels)
    DLB_CHECK(y >= 0 && y < num_classes,
              "label " << y << " out of [0, " << num_classes << ")");
}

DataLoader::DataLoader(const Dataset& dataset, std::int64_t batch_size,
                       bool shuffle, util::Rng rng)
    : dataset_(dataset),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(rng),
      order_(static_cast<std::size_t>(dataset.size())) {
  DLB_CHECK(batch_size_ > 0, "batch size must be positive");
  DLB_CHECK(dataset.size() > 0, "dataset is empty");
  std::iota(order_.begin(), order_.end(), 0);
  start_epoch();
}

std::int64_t DataLoader::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

void DataLoader::start_epoch() {
  cursor_ = 0;
  if (!shuffle_) return;
  // Fisher–Yates with our deterministic Rng.
  for (std::size_t i = order_.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng_.uniform_index(i));
    std::swap(order_[i - 1], order_[j]);
  }
}

bool DataLoader::next(Batch& out) {
  while (cursor_ < dataset_.size()) {
    const std::int64_t begin = cursor_;
    const std::int64_t end = std::min(dataset_.size(), begin + batch_size_);
    cursor_ = end;

    // Injected dataset faults may silently drop samples; a batch whose
    // samples were all dropped is skipped, not emitted empty.
    std::vector<std::int64_t> sources;
    sources.reserve(static_cast<std::size_t>(end - begin));
    const bool faulty = runtime::fault::enabled();
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t src = order_[static_cast<std::size_t>(i)];
      if (faulty && runtime::fault::maybe_drop_sample(src)) continue;
      sources.push_back(src);
    }
    if (sources.empty()) continue;

    const std::int64_t b = static_cast<std::int64_t>(sources.size());
    const std::int64_t c = dataset_.channels(), h = dataset_.height(),
                       w = dataset_.width();
    const std::int64_t sample_sz = c * h * w;
    // Reuse the previous batch's buffer when the shape repeats (the
    // steady-state case): its contents are dead by the time the trainer
    // asks for the next batch, and the memcpy below writes every
    // element, so a fresh uninit buffer is only needed on a shape
    // change (first batch, tail batch, fault-dropped samples).
    const tensor::Shape shape({b, c, h, w});
    if (!(out.images.shape() == shape)) out.images = Tensor::uninit(shape);
    out.labels.resize(static_cast<std::size_t>(b));
    for (std::int64_t i = 0; i < b; ++i) {
      const std::int64_t src = sources[static_cast<std::size_t>(i)];
      std::memcpy(out.images.raw() + i * sample_sz,
                  dataset_.images.raw() + src * sample_sz,
                  static_cast<std::size_t>(sample_sz) * sizeof(float));
      out.labels[static_cast<std::size_t>(i)] =
          dataset_.labels[static_cast<std::size_t>(src)];
    }
    return true;
  }
  return false;
}

DatasetStats compute_stats(const Dataset& dataset) {
  DatasetStats s;
  auto values = dataset.images.data();
  s.pixel_entropy_bits = util::shannon_entropy(values);
  s.sparsity = util::sparsity(values);
  s.mean = util::mean(values);
  s.stddev = util::stddev(values);
  return s;
}

}  // namespace dlbench::data
