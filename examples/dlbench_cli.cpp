// Command-line experiment runner: execute any single cell of the
// paper's methodology from the shell.
//
//   dlbench_cli <framework> [setting-framework] [setting-dataset]
//               [dataset] [device]
//
//   framework / setting-framework:  tf | caffe | torch
//   setting-dataset / dataset:      mnist | cifar
//   device:                         cpu | gpu
//
// Examples:
//   dlbench_cli caffe                       # Caffe, own MNIST default, GPU
//   dlbench_cli tf torch mnist mnist gpu    # TF runs Torch's MNIST setting
//   dlbench_cli caffe tf cifar cifar gpu    # the paper's divergent cell

#include <iostream>
#include <string>

#include "core/dlbench.hpp"

namespace {

using dlbench::frameworks::DatasetId;
using dlbench::frameworks::FrameworkKind;

bool parse_framework(const std::string& s, FrameworkKind& out) {
  const std::string v = dlbench::util::to_lower(s);
  if (v == "tf" || v == "tensorflow") out = FrameworkKind::kTensorFlow;
  else if (v == "caffe") out = FrameworkKind::kCaffe;
  else if (v == "torch") out = FrameworkKind::kTorch;
  else return false;
  return true;
}

bool parse_dataset(const std::string& s, DatasetId& out) {
  const std::string v = dlbench::util::to_lower(s);
  if (v == "mnist") out = DatasetId::kMnist;
  else if (v == "cifar" || v == "cifar-10" || v == "cifar10")
    out = DatasetId::kCifar10;
  else return false;
  return true;
}

int usage() {
  std::cerr << "usage: dlbench_cli <tf|caffe|torch> [setting-framework] "
               "[mnist|cifar] [mnist|cifar] [cpu|gpu]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlbench;

  if (argc < 2) return usage();

  FrameworkKind fw;
  if (!parse_framework(argv[1], fw)) return usage();
  FrameworkKind setting_fw = fw;
  if (argc > 2 && !parse_framework(argv[2], setting_fw)) return usage();
  DatasetId setting_ds = DatasetId::kMnist;
  if (argc > 3 && !parse_dataset(argv[3], setting_ds)) return usage();
  DatasetId ds = setting_ds;
  if (argc > 4 && !parse_dataset(argv[4], ds)) return usage();
  try {
    // Inside the try: the GPU device sizes its pool from DLB_THREADS,
    // which throws on a malformed value.
    auto device = runtime::Device::gpu();
    if (argc > 5) {
      const std::string v = util::to_lower(argv[5]);
      if (v == "cpu") device = runtime::Device::cpu();
      else if (v != "gpu") return usage();
    }
    core::HarnessOptions options = core::HarnessOptions::from_env();
    core::Harness harness(options);
    core::RunRecord record = harness.run(fw, setting_fw, setting_ds, ds,
                                         device);
    std::cout << core::summarize(record) << "\n"
              << core::results_table("Result", {record});
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
