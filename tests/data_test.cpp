// Dataset + generator tests: determinism, statistical properties the
// paper's analysis relies on (MNIST low entropy/sparse vs CIFAR-10
// dense/high entropy), loader semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace dlbench::data {
namespace {

TEST(SyntheticMnist, ShapesAndLabels) {
  MnistOptions opt;
  opt.train_samples = 100;
  opt.test_samples = 40;
  DatasetPair pair = synthetic_mnist(opt);
  EXPECT_EQ(pair.train.size(), 100);
  EXPECT_EQ(pair.test.size(), 40);
  EXPECT_EQ(pair.train.channels(), 1);
  EXPECT_EQ(pair.train.height(), 28);
  EXPECT_EQ(pair.train.width(), 28);
  EXPECT_EQ(pair.train.num_classes, 10);
  for (auto y : pair.train.labels) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 10);
  }
}

TEST(SyntheticMnist, BalancedClasses) {
  MnistOptions opt;
  opt.train_samples = 200;
  opt.test_samples = 50;
  DatasetPair pair = synthetic_mnist(opt);
  std::array<int, 10> counts{};
  for (auto y : pair.train.labels) ++counts[static_cast<std::size_t>(y)];
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(SyntheticMnist, DeterministicPerSeed) {
  MnistOptions opt;
  opt.train_samples = 50;
  opt.test_samples = 10;
  DatasetPair a = synthetic_mnist(opt);
  DatasetPair b = synthetic_mnist(opt);
  for (std::int64_t i = 0; i < a.train.images.numel(); ++i)
    ASSERT_EQ(a.train.images.at(i), b.train.images.at(i));
  opt.seed = 99;
  DatasetPair c = synthetic_mnist(opt);
  bool any_diff = false;
  for (std::int64_t i = 0; i < a.train.images.numel() && !any_diff; ++i)
    any_diff = a.train.images.at(i) != c.train.images.at(i);
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticMnist, TrainAndTestSplitsDiffer) {
  MnistOptions opt;
  opt.train_samples = 50;
  opt.test_samples = 50;
  DatasetPair pair = synthetic_mnist(opt);
  bool any_diff = false;
  for (std::int64_t i = 0; i < pair.train.images.numel() && !any_diff; ++i)
    any_diff = pair.train.images.at(i) != pair.test.images.at(i);
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticMnist, PixelsInUnitRange) {
  DatasetPair pair = synthetic_mnist({.train_samples = 50,
                                      .test_samples = 10});
  for (float v : pair.train.images.data()) {
    EXPECT_GE(v, 0.f);
    EXPECT_LE(v, 1.f);
  }
}

TEST(SyntheticCifar, ShapesAndRange) {
  CifarOptions opt;
  opt.train_samples = 60;
  opt.test_samples = 20;
  DatasetPair pair = synthetic_cifar10(opt);
  EXPECT_EQ(pair.train.channels(), 3);
  EXPECT_EQ(pair.train.height(), 32);
  EXPECT_EQ(pair.train.width(), 32);
  for (float v : pair.train.images.data()) {
    EXPECT_GE(v, 0.f);
    EXPECT_LE(v, 1.f);
  }
}

TEST(SyntheticCifar, DeterministicPerSeed) {
  CifarOptions opt;
  opt.train_samples = 30;
  opt.test_samples = 10;
  DatasetPair a = synthetic_cifar10(opt);
  DatasetPair b = synthetic_cifar10(opt);
  for (std::int64_t i = 0; i < a.train.images.numel(); ++i)
    ASSERT_EQ(a.train.images.at(i), b.train.images.at(i));
}

// The paper's §III-B explanation: MNIST is sparse and low-entropy,
// CIFAR-10 is color-rich and high-entropy. The synthetic substitutes
// must reproduce that contrast or the accuracy/time analysis loses its
// basis.
TEST(SyntheticData, MnistIsSparserAndLowerEntropyThanCifar) {
  DatasetPair mnist = synthetic_mnist({.train_samples = 200,
                                       .test_samples = 20});
  DatasetPair cifar = synthetic_cifar10({.train_samples = 200,
                                         .test_samples = 20});
  DatasetStats ms = compute_stats(mnist.train);
  DatasetStats cs = compute_stats(cifar.train);
  EXPECT_GT(ms.sparsity, 0.5);              // mostly background
  EXPECT_LT(cs.sparsity, 0.2);              // dense textures
  EXPECT_LT(ms.pixel_entropy_bits, cs.pixel_entropy_bits);
}

TEST(Dataset, TakeCopiesPrefix) {
  DatasetPair pair = synthetic_mnist({.train_samples = 50,
                                      .test_samples = 10});
  Dataset head = pair.train.take(7);
  EXPECT_EQ(head.size(), 7);
  EXPECT_EQ(head.labels[3], pair.train.labels[3]);
  EXPECT_EQ(head.images.at(100), pair.train.images.at(100));
  // Clamped to available samples.
  EXPECT_EQ(pair.train.take(500).size(), 50);
}

TEST(Dataset, SampleExtractsOneImage) {
  DatasetPair pair = synthetic_mnist({.train_samples = 20,
                                      .test_samples = 5});
  auto x = pair.train.sample(3);
  EXPECT_EQ(x.shape(), tensor::Shape({1, 1, 28, 28}));
  EXPECT_EQ(x.at(0), pair.train.images.at(3 * 28 * 28));
  EXPECT_THROW(pair.train.sample(20), dlbench::Error);
  EXPECT_THROW(pair.train.sample(-1), dlbench::Error);
}

TEST(Dataset, ValidateCatchesBadLabels) {
  DatasetPair pair = synthetic_mnist({.train_samples = 10,
                                      .test_samples = 5});
  pair.train.labels[0] = 99;
  EXPECT_THROW(pair.train.validate(), dlbench::Error);
  pair.train.labels.pop_back();
  EXPECT_THROW(pair.train.validate(), dlbench::Error);
}

TEST(DataLoader, CoversDatasetExactlyOncePerEpoch) {
  DatasetPair pair = synthetic_mnist({.train_samples = 53,
                                      .test_samples = 5});
  DataLoader loader(pair.train, 10, /*shuffle=*/true, util::Rng(3));
  EXPECT_EQ(loader.batches_per_epoch(), 6);
  Batch batch;
  std::int64_t total = 0;
  int batches = 0;
  while (loader.next(batch)) {
    total += batch.size();
    ++batches;
  }
  EXPECT_EQ(total, 53);
  EXPECT_EQ(batches, 6);
  EXPECT_FALSE(loader.next(batch));  // exhausted
}

TEST(DataLoader, ShuffleChangesOrderAcrossEpochs) {
  DatasetPair pair = synthetic_mnist({.train_samples = 40,
                                      .test_samples = 5});
  DataLoader loader(pair.train, 40, /*shuffle=*/true, util::Rng(4));
  Batch first, second;
  loader.next(first);
  loader.start_epoch();
  loader.next(second);
  EXPECT_NE(first.labels, second.labels);
  // Same multiset of labels either way.
  auto a = first.labels, b = second.labels;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(DataLoader, NoShufflePreservesOrder) {
  DatasetPair pair = synthetic_mnist({.train_samples = 30,
                                      .test_samples = 5});
  DataLoader loader(pair.train, 7, /*shuffle=*/false, util::Rng(5));
  Batch batch;
  std::vector<std::int64_t> seen;
  while (loader.next(batch))
    seen.insert(seen.end(), batch.labels.begin(), batch.labels.end());
  EXPECT_EQ(seen, pair.train.labels);
}

TEST(DataLoader, BatchImagesMatchSourceSamples) {
  DatasetPair pair = synthetic_mnist({.train_samples = 12,
                                      .test_samples = 5});
  DataLoader loader(pair.train, 5, /*shuffle=*/false, util::Rng(6));
  Batch batch;
  ASSERT_TRUE(loader.next(batch));
  EXPECT_EQ(batch.images.shape(), tensor::Shape({5, 1, 28, 28}));
  for (std::int64_t i = 0; i < 5 * 28 * 28; ++i)
    ASSERT_EQ(batch.images.at(i), pair.train.images.at(i));
}

TEST(DataLoader, RejectsBadArguments) {
  DatasetPair pair = synthetic_mnist({.train_samples = 10,
                                      .test_samples = 5});
  EXPECT_THROW(DataLoader(pair.train, 0, false, util::Rng(7)),
               dlbench::Error);
}

TEST(Generators, RejectNonPositiveCounts) {
  MnistOptions m;
  m.train_samples = 0;
  EXPECT_THROW(synthetic_mnist(m), dlbench::Error);
  CifarOptions c;
  c.test_samples = -1;
  EXPECT_THROW(synthetic_cifar10(c), dlbench::Error);
}

// ---- data loader buffer reuse -------------------------------------------

TEST(DataLoaderReuse, SameShapeBatchesReuseTheBuffer) {
  MnistOptions d;
  d.train_samples = 32;
  d.test_samples = 8;
  auto mnist = synthetic_mnist(d);
  DataLoader loader(mnist.train, /*batch_size=*/8, /*shuffle=*/true,
                    util::Rng(3));
  Batch batch;
  ASSERT_TRUE(loader.next(batch));
  const float* buffer = batch.images.raw();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(loader.next(batch));
    EXPECT_EQ(batch.images.raw(), buffer) << "batch " << i + 1;
  }
  EXPECT_FALSE(loader.next(batch));
  loader.start_epoch();  // new epoch, same shape: still the same buffer
  ASSERT_TRUE(loader.next(batch));
  EXPECT_EQ(batch.images.raw(), buffer);
}

}  // namespace
}  // namespace dlbench::data
