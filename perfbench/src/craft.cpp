// Crafting probe: an FGSM untargeted and a JSMA targeted sweep over a
// workload's own model, for the adversarial.* per-layer metrics. Units
// run on the serial device by the engine's contract, fanned over
// `threads` crafting workers.

#include "adversarial/attacks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace adv = dlbench::adversarial;
namespace nn = dlbench::nn;
using dlbench::runtime::Device;

void craft_probe(const nn::Sequential& model,
                 const dlbench::data::Dataset& test, int threads,
                 Outcome& out) {
  nn::Context ctx;
  ctx.device = Device::cpu();

  // JSMA crafts from one source class into every other; pick one the
  // model gets right at least once, or the sweep has no units.
  std::int64_t source = 0;
  const nn::FrozenModel frozen = nn::FrozenModel::freeze(model);
  for (std::int64_t i = 0; i < test.size(); ++i) {
    const std::int64_t label = test.labels[static_cast<std::size_t>(i)];
    if (frozen.predict(test.sample(i), Device::cpu())[0] == label) {
      source = label;
      break;
    }
  }

  adv::FgsmOptions fgsm_opt;
  fgsm_opt.epsilon = 0.02f;
  fgsm_opt.max_iterations = 30;
  adv::JsmaOptions jsma_opt;
  jsma_opt.theta = 1.0f;
  jsma_opt.max_distortion = 0.005;
  adv::UntargetedSweep fgsm;
  adv::TargetedSweep jsma;
  {
    spans::Span span("adversarial.fgsm_sweep");
    fgsm = adv::fgsm_sweep(model, test, fgsm_opt, ctx, /*max_per_class=*/1,
                           threads);
  }
  {
    spans::Span span("adversarial.jsma_sweep");
    jsma = adv::jsma_sweep(model, test, source, jsma_opt, ctx,
                           /*samples_per_target=*/1, threads);
  }

  const double wall_s = fgsm.timing.craft_wall_s + jsma.timing.craft_wall_s;
  const double unit_s =
      fgsm.timing.craft_time.total_s() + jsma.timing.craft_time.total_s();
  const std::int64_t units = fgsm.total_attacks + jsma.total_attacks;
  out.set_layer("adversarial.screening_s",
                fgsm.timing.screening_s + jsma.timing.screening_s, "s");
  out.set_layer("adversarial.craft_wall_s", wall_s, "s");
  // Sum of unit times over the workers' wall time: units are striped
  // statically, so the slowest worker sets the wall and this shows the
  // imbalance.
  out.set_layer("adversarial.worker_busy_pct",
                unit_s / (threads * wall_s) * 100.0, "%");
  out.set_layer("adversarial.fgsm_unit_ms_p50",
                fgsm.timing.craft_time.percentile(50.0) * 1e3, "ms");
  out.set_layer("adversarial.jsma_unit_ms_p50",
                jsma.timing.craft_time.percentile(50.0) * 1e3, "ms");
  out.set_layer("adversarial.iterations",
                static_cast<double>(fgsm.total_iterations + jsma.total_iterations),
                "count");
  out.set_layer("adversarial.success_pct",
                100.0 * static_cast<double>(fgsm.total_successes +
                                            jsma.total_successes) /
                    static_cast<double>(std::max<std::int64_t>(1, units)),
                "%");
}

}  // namespace perfbench
