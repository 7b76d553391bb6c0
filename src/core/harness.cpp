#include "core/harness.hpp"

#include <cctype>

#include "data/synthetic.hpp"
#include "frameworks/data_parallel.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::core {

namespace {

// "Caffe/TF MNIST/mnist/CPU" -> "caffe_tf_mnist_mnist_cpu": filesystem-
// safe cell tag for per-cell trace output paths.
std::string sanitize_cell_tag(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    else if (!out.empty() && out.back() != '_')
      out += '_';
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

// Inserts the cell tag before the extension: trace.json ->
// trace.caffe_mnist_cpu.json, so a sweep's cells do not clobber each
// other's chrome traces.
std::string per_cell_path(const std::string& base, const std::string& tag) {
  const auto slash = base.find_last_of('/');
  const auto dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + "." + tag;
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

}  // namespace

HarnessOptions HarnessOptions::from_env() {
  HarnessOptions opt;
  opt.mnist_train = util::env_i64("DLB_MNIST_TRAIN", opt.mnist_train);
  opt.mnist_test = util::env_i64("DLB_MNIST_TEST", opt.mnist_test);
  opt.cifar_train = util::env_i64("DLB_CIFAR_TRAIN", opt.cifar_train);
  opt.cifar_test = util::env_i64("DLB_CIFAR_TEST", opt.cifar_test);
  opt.small_batch_step_cap =
      util::env_i64("DLB_SMALL_BATCH_STEP_CAP", opt.small_batch_step_cap);
  opt.mnist_flop_budget =
      util::env_f64("DLB_MNIST_FLOPS", opt.mnist_flop_budget);
  opt.cifar_flop_budget =
      util::env_f64("DLB_CIFAR_FLOPS", opt.cifar_flop_budget);
  opt.iteration_fraction =
      util::env_f64("DLB_ITER_FRACTION", opt.iteration_fraction);
  return opt;
}

HarnessOptions HarnessOptions::test_profile() {
  HarnessOptions opt;
  opt.mnist_train = 300;
  opt.mnist_test = 100;
  opt.cifar_train = 300;
  opt.cifar_test = 100;
  opt.mnist_flop_budget = 4.0e10;
  opt.cifar_flop_budget = 4.0e10;
  opt.small_batch_step_cap = 150;
  opt.iteration_fraction = 0.01;
  return opt;
}

Harness::Harness(HarnessOptions options) : options_(options) {
  // Arm env-requested fault injection (DLB_FAULT_*) for the harness's
  // lifetime, i.e. a whole sweep. With the default single firing, the
  // first cell to reach the trigger absorbs the fault and the rest of
  // the sweep runs clean. Skipped if the caller already owns a scope.
  if (!runtime::fault::enabled()) {
    runtime::fault::FaultPlan plan = runtime::fault::FaultPlan::from_env();
    if (plan.active()) fault_scope_.emplace(plan);
  }

  data::MnistOptions mnist_opt;
  mnist_opt.train_samples = options_.mnist_train;
  mnist_opt.test_samples = options_.mnist_test;
  mnist_opt.seed = options_.data_seed;
  mnist_ = data::synthetic_mnist(mnist_opt);

  data::CifarOptions cifar_opt;
  cifar_opt.train_samples = options_.cifar_train;
  cifar_opt.test_samples = options_.cifar_test;
  cifar_opt.seed = options_.data_seed + 1;
  cifar_ = data::synthetic_cifar10(cifar_opt);
}

const data::Dataset& Harness::train_set(DatasetId id) const {
  return id == DatasetId::kMnist ? mnist_.train : cifar_.train;
}

const data::Dataset& Harness::test_set(DatasetId id) const {
  return id == DatasetId::kMnist ? mnist_.test : cifar_.test;
}

frameworks::TrainOptions Harness::train_options_for(
    const frameworks::TrainingConfig& config, DatasetId data,
    const nn::NetworkSpec& spec) const {
  frameworks::TrainOptions opts;
  opts.seed = options_.train_seed;
  opts.min_steps_floor = static_cast<std::int64_t>(
      options_.iteration_fraction *
      static_cast<double>(config.paper_max_iterations));
  opts.guard = frameworks::GuardOptions::from_env();
  opts.scale = runtime::ScaleConfig::from_env(runtime::ScaleConfig());
  if (opts.scale.max_step_cap == 0) {
    // Convert the per-run compute budget into a step cap: one training
    // step costs roughly 3x the forward pass (fwd + param/input grads).
    const double budget = data == DatasetId::kMnist
                              ? options_.mnist_flop_budget
                              : options_.cifar_flop_budget;
    const double step_flops = 3.0 *
                              static_cast<double>(nn::spec_forward_flops(spec)) *
                              static_cast<double>(config.batch_size);
    std::int64_t cap = static_cast<std::int64_t>(budget / step_flops);
    if (config.batch_size < 32)
      cap = std::min(cap, options_.small_batch_step_cap);
    opts.scale.max_step_cap = std::max<std::int64_t>(10, cap);
  }
  return opts;
}

Harness::TrainedModel Harness::train_model(FrameworkKind fw,
                                           FrameworkKind setting_fw,
                                           DatasetId setting_data,
                                           DatasetId data,
                                           const Device& device) {
  return train_model_with_fc_width(fw, setting_fw, setting_data, data, device,
                                   /*fc_width=*/0);
}

Harness::TrainedModel Harness::train_model_with_fc_width(
    FrameworkKind fw, FrameworkKind setting_fw, DatasetId setting_data,
    DatasetId data, const Device& device, std::int64_t fc_width) {
  return train_cell(fw, setting_fw, setting_data, data, device, fc_width,
                    /*dp_workers=*/0, /*dp_shards=*/0);
}

Harness::TrainedModel Harness::train_model_data_parallel(
    FrameworkKind fw, FrameworkKind setting_fw, DatasetId setting_data,
    DatasetId data, const Device& device, int workers, int shards) {
  DLB_CHECK(workers >= 1, "data-parallel cell needs at least one worker");
  return train_cell(fw, setting_fw, setting_data, data, device,
                    /*fc_width=*/0, workers, shards);
}

Harness::TrainedModel Harness::train_cell(
    FrameworkKind fw, FrameworkKind setting_fw, DatasetId setting_data,
    DatasetId data, const Device& device, std::int64_t fc_width,
    int dp_workers, int dp_shards) {
  auto framework = frameworks::make_framework(fw);
  frameworks::TrainingConfig config =
      frameworks::default_training_config(setting_fw, setting_data);
  nn::NetworkSpec spec =
      frameworks::default_network_spec(setting_fw, setting_data);
  if (fc_width > 0) spec = spec.with_first_fc_width(fc_width);

  // Working copies: the setting's preprocessing is fitted on the train
  // split and applied to both (the originals stay raw for other runs).
  const data::Dataset& train_base = train_set(data);
  data::Dataset train =
      config.train_fraction < 1.0
          ? train_base.take(static_cast<std::int64_t>(
                train_base.size() * config.train_fraction))
          : data::clone_dataset(train_base);
  data::Dataset test = data::clone_dataset(test_set(data));
  data::apply_preprocessing(config.preprocessing, train, test);

  // Cross-dataset settings keep the structure but adapt the input
  // geometry to the dataset actually trained (paper §III-C).
  spec.input_channels = train.channels();
  spec.input_height = train.height();
  spec.input_width = train.width();

  util::Rng model_rng(options_.train_seed ^ 0x5eed);
  TrainedModel out;
  out.model = framework->build_model(spec, device, model_rng);

  out.record.framework = framework->name();
  out.record.setting = config.label;
  out.record.dataset = train.name;
  out.record.device = device.name();
  // Env-armed per-cell tracing (DLB_TRACE=1): each cell gets its own
  // scope so its report lands in the record and its chrome trace (when
  // DLB_TRACE_OUT is set) in a per-cell file. Skipped when the caller
  // already owns a scope (e.g. a bench binary tracing a whole sweep).
  std::optional<runtime::trace::TraceScope> cell_trace;
  {
    runtime::trace::TraceOptions trace_opts =
        runtime::trace::TraceOptions::from_env();
    if (trace_opts.armed && runtime::trace::compiled() &&
        !runtime::trace::enabled()) {
      if (!trace_opts.out_path.empty()) {
        const std::string tag = sanitize_cell_tag(
            out.record.framework + "_" + out.record.setting + "_" +
            out.record.dataset + "_" + out.record.device);
        trace_opts.out_path = per_cell_path(trace_opts.out_path, tag);
      }
      cell_trace.emplace(std::move(trace_opts));
    }
  }

  // Guarded execution: a cell whose train/eval throws is returned as a
  // failed record (with the trainer's divergence/recovery stats intact)
  // instead of killing the sweep that requested it.
  try {
    if (dp_workers >= 1) {
      frameworks::DataParallelOptions dp;
      dp.workers = dp_workers;
      dp.shards = dp_shards;
      dp.train = train_options_for(config, data, spec);
      frameworks::DataParallelTrainer trainer(*framework, dp);
      out.record.train = trainer.train(out.model, train, config, device);
    } else {
      out.record.train = framework->train(
          out.model, train, config, device,
          train_options_for(config, data, spec));
    }
    out.record.eval = framework->evaluate(out.model, test, device);
  } catch (const dlbench::Error& e) {
    out.record.error = e.what();
  }
  if (cell_trace) {
    out.record.trace = cell_trace->report();
    cell_trace.reset();  // deactivate; writes the chrome JSON if requested
  }
  out.test = std::move(test);
  return out;
}

RunRecord Harness::run(FrameworkKind fw, FrameworkKind setting_fw,
                       DatasetId setting_data, DatasetId data,
                       const Device& device) {
  return train_model(fw, setting_fw, setting_data, data, device).record;
}

RunRecord Harness::run_default(FrameworkKind fw, DatasetId data,
                               const Device& device) {
  return run(fw, fw, data, data, device);
}

}  // namespace dlbench::core
