#pragma once

// The Framework abstraction: one emulation per framework in the study.
//
// A Framework owns the pieces that travel with the *framework* in the
// paper's methodology — execution model, regularizer, weight
// initialization quirks, conv kernel selection, evaluation batching —
// while the *setting* (TrainingConfig + NetworkSpec) travels separately
// and can come from any framework/dataset pair in the registry. This
// split is exactly what lets the harness reproduce the paper's
// dataset-dependent (Fig 3/4) and framework-dependent (Fig 6/7)
// cross-experiments.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "frameworks/config.hpp"
#include "nn/network_spec.hpp"
#include "optim/optimizer.hpp"
#include "runtime/device.hpp"
#include "runtime/scale.hpp"

namespace dlbench::frameworks {

using runtime::Device;

/// Divergence-detection and bounded-recovery policy for the guarded
/// training loop. A "divergent" step is one whose loss or gradients go
/// non-finite (or whose gradient L2 norm exceeds `grad_norm_limit`,
/// when that check is enabled). On divergence the trainer rolls the
/// model back to its last in-memory snapshot, rebuilds the optimizer
/// with a backed-off learning rate, and retries; when retries are
/// exhausted it returns a TrainResult marked diverged instead of
/// grinding through NaN weights or throwing.
struct GuardOptions {
  /// Rollback/retry attempts before giving up. 0 disables recovery
  /// (detection still records the divergence step).
  int max_recoveries = 2;
  /// Steps between in-memory parameter snapshots.
  std::int64_t snapshot_interval = 50;
  /// Multiplier applied to the setting's learning rate per recovery.
  double lr_backoff = 0.1;
  /// Gradient L2-norm limit for the explosion check; 0 disables it
  /// (non-finite gradients are always divergent).
  double grad_norm_limit = 0.0;
  /// Watchdog wall-clock budget per training run, seconds; 0 disables.
  /// A run that exceeds it is aborted and marked timed_out.
  double timeout_s = 0.0;

  /// Reads DLB_GUARD_MAX_RECOVERIES / DLB_GUARD_SNAPSHOT_INTERVAL /
  /// DLB_GUARD_LR_BACKOFF / DLB_GUARD_GRAD_LIMIT / DLB_TRAIN_TIMEOUT_S
  /// overrides on top of `fallback` (defaults when omitted).
  static GuardOptions from_env(GuardOptions fallback);
  static GuardOptions from_env() { return from_env(GuardOptions{}); }
};

/// Harness-level knobs for one training run.
struct TrainOptions {
  runtime::ScaleConfig scale = runtime::ScaleConfig::bench_default();
  std::uint64_t seed = 1234;
  /// Loss curve sampling interval, in optimizer steps.
  std::int64_t loss_record_interval = 10;
  /// Floor on optimizer steps (before the cap). The paper's settings
  /// budget *iterations* (Tables II/III); shrinking the dataset while
  /// holding epochs would shrink the optimization budget 30-50x, so the
  /// harness floors steps at a fraction of the paper's iterations.
  std::int64_t min_steps_floor = 0;
  /// Divergence recovery + watchdog policy.
  GuardOptions guard;
};

/// Wall-clock decomposition of one training run. Measured
/// unconditionally (a few steady-clock reads per step, far below the
/// noise floor); phase times sum to slightly less than train_time_s
/// because session prepare and loop bookkeeping are unattributed.
struct PhaseBreakdown {
  double data_s = 0.0;       // loader/batch assembly (+ shard slicing)
  double forward_s = 0.0;    // forward pass + loss head
  double backward_s = 0.0;   // backpropagation
  double optimizer_s = 0.0;  // parameter updates
  double guard_s = 0.0;      // divergence checks, snapshots, rollbacks
  /// Gradient reduce + parameter broadcast (data-parallel runs only;
  /// always 0 for Framework::train).
  double comm_s = 0.0;

  double total() const {
    return data_s + forward_s + backward_s + optimizer_s + guard_s + comm_s;
  }
};

/// Outcome of a training run (Figures 1–7 left panels + Figure 5).
struct TrainResult {
  double train_time_s = 0.0;
  std::int64_t steps = 0;
  double epochs_run = 0.0;
  /// (step, mean batch loss) samples.
  std::vector<std::pair<std::int64_t, double>> loss_curve;
  double final_loss = 0.0;
  /// False when training failed to beat chance-level loss — the
  /// paper's Caffe-on-CIFAR-with-MNIST-settings outcome.
  bool converged = false;
  /// First step whose loss/gradients went non-finite (or exceeded the
  /// guard's norm limit); -1 when no step diverged. Recorded even when
  /// a rollback later recovered the run.
  std::int64_t divergence_step = -1;
  /// Rollback + learning-rate-backoff recoveries performed.
  int recovery_attempts = 0;
  /// True when recovery was exhausted and training aborted early.
  bool diverged = false;
  /// True when the watchdog expired before the step budget completed.
  bool timed_out = false;
  /// Where the wall clock went, by training phase.
  PhaseBreakdown phases;
  /// Always 0: kept only because perfbench/ still reads it.
  std::int64_t plan_arena_bytes = 0;
};

/// Outcome of an evaluation run (middle/right panels).
struct EvalResult {
  double test_time_s = 0.0;
  double accuracy_pct = 0.0;
  std::int64_t correct = 0;
  std::int64_t total = 0;
};

/// One emulated deep-learning framework.
class Framework {
 public:
  virtual ~Framework() = default;

  virtual FrameworkKind kind() const = 0;
  std::string name() const { return to_string(kind()); }

  /// The regularizer this framework's reference models apply.
  virtual Regularizer regularizer() const = 0;

  /// Materializes `spec` the way this framework would: applying its
  /// conv kernel choice for `device` and injecting its regularizer
  /// (e.g. TF inserts dropout before the classifier layer).
  virtual nn::Sequential build_model(const nn::NetworkSpec& spec,
                                     const Device& device,
                                     util::Rng& rng) const = 0;

  /// Builds this framework's optimizer for the given setting.
  /// `steps_per_epoch` converts the setting's epoch-based lr phases
  /// into step boundaries.
  virtual std::unique_ptr<optim::Optimizer> make_optimizer(
      const TrainingConfig& config, std::int64_t steps_per_epoch,
      std::int64_t total_steps) const = 0;

  /// One-time session setup before the first step (e.g. TF's graph
  /// compilation dry-run). Included in measured training time.
  virtual void prepare(nn::Sequential& model, const tensor::Tensor& sample,
                       const nn::Context& ctx) const;

  /// Test-time batch size (frameworks shipped different eval drivers;
  /// Torch's demos classified sample-by-sample).
  virtual std::int64_t eval_batch_size() const = 0;

  /// Runs the full training loop; wall-clock measured inside.
  TrainResult train(nn::Sequential& model, const data::Dataset& train_set,
                    const TrainingConfig& config, const Device& device,
                    const TrainOptions& options) const;

  /// Runs test-set evaluation; wall-clock measured inside.
  EvalResult evaluate(nn::Sequential& model, const data::Dataset& test_set,
                      const Device& device) const;
};

/// Factory for the three emulations.
std::unique_ptr<Framework> make_framework(FrameworkKind kind);

}  // namespace dlbench::frameworks
