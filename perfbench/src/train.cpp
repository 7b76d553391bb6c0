// train_tf_mnist, and the cell/training helpers the serving workload
// reuses.

#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "core/harness.hpp"
#include "data/preprocess.hpp"
#include "frameworks/registry.hpp"
#include "runtime/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fw = dlbench::frameworks;
namespace nn = dlbench::nn;
namespace optim = dlbench::optim;
using dlbench::runtime::Device;

namespace {

// The golden bands the repo's golden tests hold training to.
constexpr double kAccuracyBandPp = 0.75;
constexpr double kLossBand = 5e-3;

/// Times every optimizer step from outside: the framework builds its
/// optimizer through the virtual make_optimizer, so wrapping it sees
/// each step of Framework::train without touching the training loop.
class TimedOptimizer final : public optim::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<optim::Optimizer> inner,
                 std::vector<Clock::time_point>& step_ends,
                 std::vector<double>& step_cpu_ends,
                 const std::function<void(std::int64_t)>& before_step)
      : inner_(std::move(inner)), step_ends_(step_ends),
        step_cpu_ends_(step_cpu_ends), before_step_(before_step) {}

  std::string name() const override { return inner_->name(); }

  void step(const std::vector<dlbench::tensor::Tensor*>& params,
            const std::vector<dlbench::tensor::Tensor*>& grads,
            std::int64_t step, const Device& dev) override {
    if (before_step_) before_step_(step);
    {
      spans::Span span("optim.step");
      inner_->step(params, grads, step, dev);
    }
    step_ends_.push_back(Clock::now());
    step_cpu_ends_.push_back(process_cpu_s());
  }

 private:
  std::unique_ptr<optim::Optimizer> inner_;
  std::vector<Clock::time_point>& step_ends_;
  std::vector<double>& step_cpu_ends_;
  const std::function<void(std::int64_t)>& before_step_;
};

/// A framework emulation whose optimizer is a TimedOptimizer; every
/// other decision is delegated unchanged.
class TimedFramework final : public fw::Framework {
 public:
  explicit TimedFramework(std::unique_ptr<fw::Framework> inner)
      : inner_(std::move(inner)) {}

  fw::FrameworkKind kind() const override { return inner_->kind(); }
  fw::Regularizer regularizer() const override {
    return inner_->regularizer();
  }
  nn::Sequential build_model(const nn::NetworkSpec& spec, const Device& device,
                             dlbench::util::Rng& rng) const override {
    return inner_->build_model(spec, device, rng);
  }
  std::unique_ptr<optim::Optimizer> make_optimizer(
      const fw::TrainingConfig& config, std::int64_t steps_per_epoch,
      std::int64_t total_steps) const override {
    return std::make_unique<TimedOptimizer>(
        inner_->make_optimizer(config, steps_per_epoch, total_steps),
        step_ends, step_cpu_ends, before_step);
  }
  void prepare(nn::Sequential& model, const dlbench::tensor::Tensor& sample,
               const nn::Context& ctx) const override {
    inner_->prepare(model, sample, ctx);
  }
  std::int64_t eval_batch_size() const override {
    return inner_->eval_batch_size();
  }

  /// Wall and process CPU time at the end of every optimizer step.
  mutable std::vector<Clock::time_point> step_ends;
  mutable std::vector<double> step_cpu_ends;
  /// Called with the step index before each optimizer step.
  std::function<void(std::int64_t)> before_step;

 private:
  std::unique_ptr<fw::Framework> inner_;
};

// train_tf_mnist: the TF-default MNIST setting on the parallel device.
constexpr FrameworkKind kKind = FrameworkKind::kTensorFlow;
constexpr std::int64_t kSteps = 40;  // optimizer steps per training rep
constexpr std::int64_t kTrainSamples = 1200;
constexpr std::int64_t kTestSamples = 1000;
// Plausibility floor on test accuracy after one rep, for any seed.
constexpr double kMinAccuracyPct = 60.0;
constexpr int kSetups = 3;
// Evaluation passes after each training rep, each over the test split
// in kTestChunks chunks timed on their own.
constexpr int kEvalPasses = 2;
constexpr std::int64_t kTestChunks = 5;
// CPU time is read per window of this many optimizer steps.
constexpr std::size_t kCpuWindowSteps = 10;
// Wall-clock step intervals are summarised per window of this many
// consecutive steps, then the median over windows is reported, so a
// slow spell on a shared host moves one window rather than the figure.
constexpr std::size_t kWindowSteps = 50;

struct Rep {
  fw::TrainResult train;
  std::vector<double> train_cpu_rate;  // samples per CPU-second, per window
  std::int64_t correct = 0;            // test samples classified right
  std::vector<double> eval_rate;       // samples/s of each evaluated chunk
  std::vector<double> eval_cpu_rate;   // samples per CPU-second, per chunk
  std::vector<double> step_s;          // intervals between optimizer steps
  std::optional<nn::Sequential> model;  // kept for the first rep only
};

/// `d` cut into `parts` consecutive chunks of (nearly) equal size.
std::vector<dlbench::data::Dataset> split(const dlbench::data::Dataset& d,
                                          std::int64_t parts) {
  std::vector<dlbench::data::Dataset> out;
  const std::int64_t sample = d.channels() * d.height() * d.width();
  for (std::int64_t p = 0; p < parts; ++p) {
    const std::int64_t begin = d.size() * p / parts;
    const std::int64_t end = d.size() * (p + 1) / parts;
    dlbench::data::Dataset chunk;
    chunk.name = d.name;
    chunk.num_classes = d.num_classes;
    chunk.images = dlbench::tensor::Tensor(
        dlbench::tensor::Shape({end - begin, d.channels(), d.height(), d.width()}),
        d.images.data().subspan(static_cast<std::size_t>(begin * sample),
                                static_cast<std::size_t>((end - begin) * sample)));
    chunk.labels.assign(d.labels.begin() + begin, d.labels.begin() + end);
    out.push_back(std::move(chunk));
  }
  return out;
}

Rep run_rep(TimedFramework& timed, Cell& cell,
            const std::vector<dlbench::data::Dataset>& test_chunks,
            const Device& device, std::int64_t steps, bool keep_model) {
  Rep rep;
  nn::Sequential model = cell.model.clone();
  timed.step_ends.clear();
  timed.step_cpu_ends.clear();
  rep.train = train_steps(timed, cell, model, steps, device);
  const auto& cpu = timed.step_cpu_ends;
  for (std::size_t i = kCpuWindowSteps; i < cpu.size(); i += kCpuWindowSteps)
    rep.train_cpu_rate.push_back(
        static_cast<double>(kCpuWindowSteps * cell.config.batch_size) /
        (cpu[i] - cpu[i - kCpuWindowSteps]));
  for (std::size_t i = 1; i < timed.step_ends.size(); ++i)
    rep.step_s.push_back(std::chrono::duration<double>(
                             timed.step_ends[i] - timed.step_ends[i - 1])
                             .count());
  for (int pass = 0; pass < kEvalPasses; ++pass) {
    rep.correct = 0;
    for (const dlbench::data::Dataset& chunk : test_chunks) {
      spans::Span span("frameworks.evaluate");
      const double cpu0 = process_cpu_s();
      const fw::EvalResult e = timed.evaluate(model, chunk, device);
      const auto total = static_cast<double>(e.total);
      rep.eval_cpu_rate.push_back(total / (process_cpu_s() - cpu0));
      rep.eval_rate.push_back(total / e.test_time_s);
      rep.correct += e.correct;
    }
  }
  if (keep_model) rep.model = std::move(model);
  return rep;
}

}  // namespace

Cell make_cell(FrameworkKind kind, std::int64_t train_samples,
               std::int64_t test_samples, std::uint64_t seed,
               const Device& model_device) {
  // Harness always builds CIFAR too; it is generated at a token size.
  dlbench::core::HarnessOptions opt;
  opt.mnist_train = train_samples;
  opt.mnist_test = test_samples;
  opt.cifar_train = 20;
  opt.cifar_test = 10;
  opt.data_seed = seed;
  opt.train_seed = seed * 7919 + 17;

  Cell cell;
  cell.train_seed = opt.train_seed;
  const double cpu0 = process_cpu_s();
  dlbench::core::Harness harness(opt);
  cell.dataset_gen_s = process_cpu_s() - cpu0;

  cell.framework = fw::make_framework(kind);
  cell.config = fw::default_training_config(kind, DatasetId::kMnist);
  const auto& base = harness.train_set(DatasetId::kMnist);
  cell.train = cell.config.train_fraction < 1.0
                   ? base.take(static_cast<std::int64_t>(
                         base.size() * cell.config.train_fraction))
                   : dlbench::data::clone_dataset(base);
  cell.test = dlbench::data::clone_dataset(harness.test_set(DatasetId::kMnist));
  dlbench::data::apply_preprocessing(cell.config.preprocessing, cell.train,
                                     cell.test);
  dlbench::util::Rng rng(opt.train_seed ^ 0x5eed);
  cell.model = cell.framework->build_model(
      fw::default_network_spec(kind, DatasetId::kMnist), model_device, rng);
  return cell;
}

fw::TrainResult train_steps(const fw::Framework& framework, Cell& cell,
                            nn::Sequential& model, std::int64_t steps,
                            const Device& device) {
  fw::TrainOptions options;
  options.scale = dlbench::runtime::ScaleConfig{};
  options.scale.max_step_cap = steps;
  options.seed = cell.train_seed;
  options.loss_record_interval = 1;
  options.guard = fw::GuardOptions{};
  spans::Span span("frameworks.train");
  return framework.train(model, cell.train, cell.config, device, options);
}

TrainedCell trained_caffe_mnist(std::uint64_t seed, const Device& device) {
  TrainedCell t;
  t.cell = make_cell(FrameworkKind::kCaffe, /*train_samples=*/1200,
                     /*test_samples=*/300, seed, device);
  t.model = t.cell.model.clone();
  t.train = train_steps(*t.cell.framework, t.cell, t.model, /*steps=*/30, device);
  return t;
}

void framework_layer_metrics(const fw::TrainResult& train,
                             const fw::EvalResult& eval, Outcome& out) {
  const double steps = static_cast<double>(std::max<std::int64_t>(1, train.steps));
  const auto& p = train.phases;
  out.set_layer("frameworks.data_ms_per_step", p.data_s / steps * 1e3, "ms");
  out.set_layer("frameworks.forward_ms_per_step", p.forward_s / steps * 1e3, "ms");
  out.set_layer("frameworks.backward_ms_per_step", p.backward_s / steps * 1e3, "ms");
  out.set_layer("frameworks.optimizer_ms_per_step", p.optimizer_s / steps * 1e3, "ms");
  out.set_layer("frameworks.guard_ms_per_step", p.guard_s / steps * 1e3, "ms");
  out.set_layer("frameworks.other_ms_per_step",
                (train.train_time_s - p.total()) / steps * 1e3, "ms");
  out.set_layer("frameworks.accuracy_pct", eval.accuracy_pct, "%");
  out.set_layer("frameworks.eval_us_per_sample",
                eval.test_time_s / static_cast<double>(std::max<std::int64_t>(1, eval.total)) * 1e6,
                "us");
}

Outcome run_train_workload(const RunContext& ctx) {
  const Device& device = ctx.parallel;
  Outcome out;

  // Set-up: seeded dataset generation, preprocessing, model build.
  std::vector<double> setup_s;
  Cell cell;
  for (int i = 0; i < (ctx.args.trace ? 1 : kSetups); ++i) {
    const double cpu0 = process_cpu_s();
    Cell fresh =
        make_cell(kKind, kTrainSamples, kTestSamples, ctx.args.seed, device);
    setup_s.push_back(process_cpu_s() - cpu0);
    cell = std::move(fresh);
  }

  TimedFramework timed(fw::make_framework(kKind));
  const std::int64_t batch = cell.config.batch_size;
  const std::vector<dlbench::data::Dataset> test_chunks =
      split(cell.test, kTestChunks);
  std::vector<Rep> reps;
  auto run_for = [&](double budget_s, std::size_t min_reps) {
    std::vector<Rep> done;
    const auto t0 = Clock::now();
    while (done.size() < min_reps || seconds_since(t0) < budget_s)
      done.push_back(
          run_rep(timed, cell, test_chunks, device, kSteps, done.empty()));
    return done;
  };
  auto train_rate = [](const Rep& r) { return median(r.train_cpu_rate); };

  if (!ctx.args.trace) {
    reps = run_for(ctx.args.seconds, 2);
  } else {
    // Untraced half, then the same loop with benchmark spans and the
    // program's TraceScope armed; their rate difference is the trace
    // overhead.
    reps = run_for(ctx.args.seconds / 2, 1);
    spans::enable();
    std::optional<dlbench::runtime::trace::TraceScope> scope;
    if (dlbench::runtime::trace::compiled()) scope.emplace();
    // Counters read at two steps after the plan has started replaying
    // (warmup + measure), so the difference is the steady-state cost.
    const std::int64_t first = std::max<std::int64_t>(4, kSteps / 4);
    const std::int64_t last = kSteps - 1;
    std::int64_t allocs[2] = {0, 0}, tasks[2] = {0, 0};
    timed.before_step = [&](std::int64_t step) {
      if (!scope || (step != first && step != last)) return;
      const auto report = scope->report();
      allocs[step == last] = trace_counter(report, "tensor.allocs");
      tasks[step == last] = trace_counter(report, "pool.tasks");
    };
    std::vector<double> base, traced;
    for (const Rep& r : reps) base.push_back(train_rate(r));
    const auto traced_start = Clock::now();
    const Rep first_traced =
        run_rep(timed, cell, test_chunks, device, kSteps, false);
    timed.before_step = nullptr;
    traced.push_back(train_rate(first_traced));
    for (const Rep& r :
         run_for(ctx.args.seconds / 2 - seconds_since(traced_start), 0))
      traced.push_back(train_rate(r));
    scope.reset();

    const double span = static_cast<double>(last - first);
    out.set_layer("core.dataset_gen_s", cell.dataset_gen_s, "s");
    framework_layer_metrics(
        reps[0].train, cell.framework->evaluate(*reps[0].model, cell.test, device),
        out);
    out.set_layer("nn.step_allocs", (allocs[1] - allocs[0]) / span, "count");
    out.set_layer("runtime.pool_tasks_per_step", (tasks[1] - tasks[0]) / span,
                  "count");
    out.set_layer("nn.arena_mib",
                  static_cast<double>(reps[0].train.plan_arena_bytes) / 1048576.0,
                  "MiB");
    out.set_layer("trace_overhead_pct",
                  (median(base) / median(traced) - 1.0) * 100.0, "%");

    nn::Sequential& trained = *reps[0].model;
    const nn::FrozenModel frozen = nn::FrozenModel::freeze(trained);
    const ServeRun probe = serve_probe(frozen, cell.test, ctx.args.seed);
    serve_layer_metrics(probe, probe, out);
    module_probes(cell, trained, batch, device, probe.mean_batch, out);
    craft_probe(trained, cell.test, ctx.threads, out);
  }

  // ---- end-to-end metrics (CPU time) and their wall-clock readings ----
  std::vector<double> train_rates, test_rates, window_rate, window_p90, step_s,
      wall_test;
  for (const Rep& r : reps) {
    train_rates.insert(train_rates.end(), r.train_cpu_rate.begin(),
                       r.train_cpu_rate.end());
    test_rates.insert(test_rates.end(), r.eval_cpu_rate.begin(),
                      r.eval_cpu_rate.end());
    const std::size_t width = std::min(kWindowSteps, r.step_s.size());
    for (std::size_t w = 0; w + width <= r.step_s.size(); w += width) {
      const std::vector<double> win(r.step_s.begin() + w,
                                    r.step_s.begin() + w + width);
      double sum = 0.0;
      for (const double s : win) sum += s;
      window_rate.push_back(static_cast<double>(width * batch) / sum);
      window_p90.push_back(quantile(win, 0.9));
    }
    step_s.insert(step_s.end(), r.step_s.begin(), r.step_s.end());
    wall_test.insert(wall_test.end(), r.eval_rate.begin(), r.eval_rate.end());
  }
  out.set_e2e("setup_s", median(setup_s), "s");
  out.set_e2e("work_per_cpu_s", median(train_rates), "1/s");
  out.set_e2e("test_per_cpu_s", median(test_rates), "1/s");
  out.set_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  out.set_layer("wall.throughput_per_s", median(window_rate), "1/s");
  out.set_layer("wall.latency_p50_ms", median(step_s) * 1e3, "ms");
  out.set_layer("wall.latency_tail_ms", median(window_p90) * 1e3, "ms");
  out.set_layer("wall.test_samples_per_s", median(wall_test), "1/s");

  // ---- operations and output checks ----
  for (const Rep& r : reps) {
    out.attempted += kSteps;
    out.failed += kSteps - r.train.steps + r.train.recovery_attempts;
    out.check(!r.train.diverged && !r.train.timed_out,
              "a training rep diverged or timed out");
  }
  const Rep& ref = reps[0];
  for (const Rep& r : reps) {
    bool same = r.train.loss_curve.size() == ref.train.loss_curve.size() &&
                r.correct == ref.correct;
    for (std::size_t i = 0; same && i < r.train.loss_curve.size(); ++i)
      same = r.train.loss_curve[i].second == ref.train.loss_curve[i].second;
    out.check(same, "training reps from one initial model differ");
  }
  const double accuracy_pct = 100.0 * static_cast<double>(ref.correct) /
                             static_cast<double>(cell.test.size());
  out.check(accuracy_pct >= kMinAccuracyPct,
            "accuracy below the workload's plausibility floor");

  // Reference 1: the first steps retrained on the serial device must
  // follow the measured loss curve within the golden loss band.
  {
    nn::Sequential model = cell.model.clone();
    const fw::TrainResult serial =
        train_steps(*cell.framework, cell, model, 3, Device::cpu());
    bool close = serial.loss_curve.size() == 3;
    for (std::size_t i = 0; close && i < 3; ++i)
      close = std::abs(serial.loss_curve[i].second -
                       ref.train.loss_curve[i].second) <= kLossBand;
    out.check(close, "serial-device reference loss outside the golden band");
  }
  // Reference 2: the frozen inference path classifies the test split
  // like Framework::evaluate, within the golden accuracy band.
  {
    const auto predicted = nn::FrozenModel::freeze(*ref.model)
                               .predict(cell.test.images, device);
    std::int64_t correct = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i)
      correct += predicted[i] == cell.test.labels[i];
    const double acc = 100.0 * static_cast<double>(correct) /
                       static_cast<double>(cell.test.size());
    out.check(std::abs(acc - accuracy_pct) <= kAccuracyBandPp,
              "frozen-model accuracy outside the golden band");
  }
  return out;
}

}  // namespace perfbench
