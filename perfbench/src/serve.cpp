// serve_caffe_mnist: open-loop Poisson load against ModelServer over
// the frozen Caffe-default MNIST net, at three fixed offered rates.
//
// The generator is the benchmark's own, not serve::run_load: run_load
// times each request from its submit call, so a generator that falls
// behind makes latency look *lower*. Here each request is timed from
// its scheduled send time (submit lateness + Prediction::total_s), and
// the lateness itself is reported.

#include <cmath>
#include <future>
#include <optional>
#include <thread>

#include "serve/loadgen.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nn = dlbench::nn;
namespace serve = dlbench::serve;
using dlbench::runtime::Device;

namespace {

// Offered rates, requests/s. Two serial replicas of this net saturate
// near 4,500 req/s on a 4-core AVX-512 Xeon: low keeps them ~25 % busy,
// mid ~55 % (batches start to form), high ~80 %, where a slower server
// starts missing the latency limit first.
constexpr double kLowRps = 500.0;
constexpr double kMidRps = 2000.0;
constexpr double kHighRps = 3500.0;

// The rates take turns in segments this long, so slow spells on a
// shared host land on every rate alike instead of on whichever rate was
// running; each rate's figures are medians over its segments. At the
// mid rate a segment holds ~1,000 requests: ten beyond its p99.
constexpr double kSegmentS = 0.5;

constexpr int kSetups = 3;

// A request that completes OK within this counts toward goodput.
constexpr double kServeLatencyLimitS = 0.025;

std::vector<std::int64_t> reference_labels(const nn::FrozenModel& model,
                                           const dlbench::data::Dataset& d) {
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < d.size(); ++i)
    labels.push_back(model.predict(d.sample(i), Device::cpu())[0]);
  return labels;
}

}  // namespace

std::int64_t ServeRun::count(std::int64_t Segment::*field) const {
  std::int64_t n = 0;
  for (const Segment& s : segments) n += s.*field;
  return n;
}

double ServeRun::segment_quantile(double q, bool lag) const {
  std::vector<double> per_segment;
  for (const Segment& s : segments)
    per_segment.push_back(quantile(lag ? s.lag_s : s.latency_s, q));
  return median(per_segment);
}

std::unique_ptr<serve::ModelServer> make_server(
    const nn::FrozenModel& model, const dlbench::data::Dataset& inputs) {
  serve::ServerOptions opt;
  opt.sample_shape = dlbench::tensor::Shape(
      {inputs.channels(), inputs.height(), inputs.width()});
  opt.replicas = 2;
  opt.max_batch = 8;
  opt.max_batch_delay_s = 0.001;
  // No admission shedding: the open loop must see its backlog grow, not
  // have it refused.
  opt.queue_capacity = std::size_t{1} << 20;
  opt.reject_watermark = opt.queue_capacity;
  opt.device = Device::cpu();
  opt.compute_probabilities = false;
  return std::make_unique<serve::ModelServer>(model, opt);
}

void serve_segment(serve::ModelServer& server,
                   const dlbench::data::Dataset& inputs,
                   const std::vector<std::int64_t>& reference_labels,
                   double duration_s, std::uint64_t seed, ServeRun& run) {
  Segment seg;
  // Inputs and schedule are fixed before the clock starts.
  std::vector<dlbench::tensor::Tensor> samples;
  for (std::int64_t i = 0; i < inputs.size(); ++i)
    samples.push_back(inputs.sample(i).reshape(server.options().sample_shape));
  dlbench::util::Rng rng(seed);
  std::vector<double> at_s;
  std::vector<std::size_t> pick;
  for (double t = 0.0;;) {
    t += serve::poisson_gap_s(rng, run.rate_rps);
    if (t >= duration_s) break;
    at_s.push_back(t);
    pick.push_back(static_cast<std::size_t>(
        rng.uniform_index(static_cast<std::uint64_t>(inputs.size()))));
  }

  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(at_s.size());
  seg.lag_s.reserve(at_s.size());
  const double process0 = process_cpu_s(), generator0 = thread_cpu_s();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t k = 0; k < at_s.size(); ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(at_s[k]));
    // Sleep to just short of the due time, then spin: a plain sleep
    // wakes up late, and that lateness would dominate the tail being
    // measured. The spin is kept short so the generator does not take a
    // core of its own.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    seg.lag_s.push_back(
        std::chrono::duration<double>(Clock::now() - due).count());
    spans::Span span("serve.ModelServer.submit", static_cast<std::int64_t>(k));
    futures.push_back(server.submit(samples[pick[k]]));
  }

  for (std::size_t k = 0; k < futures.size(); ++k) {
    const serve::Prediction p = futures[k].get();
    ++seg.sent;
    const double latency = seg.lag_s[k] + p.total_s;
    seg.latency_s.push_back(latency);
    switch (p.status) {
      case serve::RequestStatus::kOk:
        ++seg.ok;
        seg.within_limit += latency <= kServeLatencyLimitS;
        seg.label_mismatches += p.label != reference_labels[pick[k]];
        break;
      case serve::RequestStatus::kRejected: ++seg.rejected; break;
      case serve::RequestStatus::kExpired: ++seg.expired; break;
      default: ++seg.errors; break;
    }
  }
  run.server_cpu_s +=
      (process_cpu_s() - process0) - (thread_cpu_s() - generator0);
  run.duration_s += duration_s;
  run.segments.push_back(std::move(seg));
}

void read_server_stats(const serve::ModelServer& server, ServeRun& run) {
  serve::ServerStats stats;
  {
    spans::Span span("serve.ModelServer.stats");
    stats = server.stats();
  }
  const auto& lat = stats.latency;
  run.queue_wait_p50_s = lat.queue_wait.percentile(50.0);
  run.queue_wait_p99_s = lat.queue_wait.percentile(99.0);
  run.assemble_p50_s = lat.assemble.percentile(50.0);
  run.forward_p50_s = lat.forward.percentile(50.0);
  run.scatter_p50_s = lat.scatter.percentile(50.0);
  run.mean_batch = stats.mean_batch_size();
  run.busy_pct = stats.busy_s /
                 (static_cast<double>(server.options().replicas) * run.duration_s) *
                 100.0;
  run.max_queue_depth = stats.max_queue_depth;
  run.batches = stats.batches;
  run.arena_bytes = stats.plan_arena_bytes;
}

void serve_layer_metrics(const ServeRun& mid, const ServeRun& low,
                         Outcome& out) {
  out.set_layer("serve.queue_wait_p50_ms", mid.queue_wait_p50_s * 1e3, "ms");
  out.set_layer("serve.queue_wait_p99_ms", mid.queue_wait_p99_s * 1e3, "ms");
  out.set_layer("serve.assemble_ms_p50", mid.assemble_p50_s * 1e3, "ms");
  out.set_layer("serve.forward_ms_p50", mid.forward_p50_s * 1e3, "ms");
  out.set_layer("serve.scatter_ms_p50", mid.scatter_p50_s * 1e3, "ms");
  out.set_layer("serve.mean_batch", mid.mean_batch, "req");
  out.set_layer("serve.replica_busy_pct", mid.busy_pct, "%");
  out.set_layer("serve.max_queue_depth",
                static_cast<double>(mid.max_queue_depth), "count");
  out.set_layer("serve.p99_ms_low", low.segment_quantile(0.99) * 1e3, "ms");
  out.set_layer("serve.gen_lag_p99_ms", mid.segment_quantile(0.99, true) * 1e3,
                "ms");
  out.set_layer("serve.rejected",
                static_cast<double>(mid.count(&Segment::rejected) +
                                    low.count(&Segment::rejected)),
                "count");
  out.set_layer("serve.expired",
                static_cast<double>(mid.count(&Segment::expired) +
                                    low.count(&Segment::expired)),
                "count");
}

ServeRun serve_probe(const nn::FrozenModel& model,
                     const dlbench::data::Dataset& inputs, std::uint64_t seed) {
  const auto server = make_server(model, inputs);
  ServeRun run;
  run.rate_rps = 100.0;
  const auto labels = reference_labels(model, inputs);
  for (std::uint64_t i = 0; i < 2; ++i)
    serve_segment(*server, inputs, labels, kSegmentS, seed * 31 + i, run);
  read_server_stats(*server, run);
  return run;
}

Outcome run_serve_workload(const RunContext& ctx) {
  Outcome out;
  const Device& device = ctx.parallel;

  // Set-up: data, model build, a short training run so the served
  // labels mean something, freezing, and one server per rate.
  struct Setup {
    TrainedCell trained;
    nn::FrozenModel frozen;
    std::vector<std::unique_ptr<serve::ModelServer>> servers;
  };
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < (ctx.args.trace ? 1 : kSetups); ++i) {
    setup.reset();  // the previous set-up's servers stop first
    const double cpu0 = process_cpu_s();
    auto s = std::make_unique<Setup>();
    s->trained = trained_caffe_mnist(ctx.args.seed, device);
    s->frozen = nn::FrozenModel::freeze(s->trained.model);
    for (int r = 0; r < 3; ++r)
      s->servers.push_back(make_server(s->frozen, s->trained.cell.test));
    setup_s.push_back(process_cpu_s() - cpu0);
    setup = std::move(s);
  }
  const auto& inputs = setup->trained.cell.test;
  const std::vector<std::int64_t> labels =
      reference_labels(setup->frozen, inputs);

  // Measured: the rates take turns, one segment each per round; a
  // FrozenModel::predict pass per sample follows each round (the
  // paper's testing time at batch 1, and the serving reference). The
  // traced run does the same for half the time, then serves the mid
  // rate traced on a fourth server; the server CPU per request of the
  // two mid-rate runs gives the tracing overhead.
  const std::size_t rates = 3;
  std::vector<ServeRun> runs(ctx.args.trace ? 4 : 3);
  runs[0].rate_rps = kLowRps;
  runs[1].rate_rps = kMidRps;
  runs[2].rate_rps = kHighRps;
  if (ctx.args.trace) {
    runs[3].rate_rps = kMidRps;
    setup->servers.push_back(make_server(setup->frozen, inputs));
  }
  std::vector<double> predict_rate, predict_cpu_rate;
  std::uint64_t segment_seed = ctx.args.seed * 1000003;
  auto serve_rounds = [&](std::size_t first, std::size_t last,
                          double budget_s) {
    for (const auto t0 = Clock::now(); seconds_since(t0) < budget_s;) {
      for (std::size_t r = first; r <= last; ++r)
        serve_segment(*setup->servers[r], inputs, labels, kSegmentS,
                      ++segment_seed, runs[r]);
      const auto t1 = Clock::now();
      const double cpu1 = thread_cpu_s();
      const auto again = reference_labels(setup->frozen, inputs);
      const auto n = static_cast<double>(inputs.size());
      predict_cpu_rate.push_back(n / (thread_cpu_s() - cpu1));
      predict_rate.push_back(n / seconds_since(t1));
      out.check(again == labels, "FrozenModel::predict is not deterministic");
    }
  };
  dlbench::runtime::trace::TraceReport counters;
  serve_rounds(0, rates - 1, ctx.args.trace ? ctx.args.seconds / 2 : ctx.args.seconds);
  if (ctx.args.trace) {
    spans::enable();
    std::optional<dlbench::runtime::trace::TraceScope> scope;
    if (dlbench::runtime::trace::compiled()) scope.emplace();
    serve_rounds(rates, rates, ctx.args.seconds / 2);
    if (scope) counters = scope->report();
  }
  std::int64_t ok = 0;
  double server_cpu_s = 0.0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    read_server_stats(*setup->servers[r], runs[r]);
    out.attempted += runs[r].count(&Segment::sent);
    out.failed += runs[r].count(&Segment::sent) - runs[r].count(&Segment::ok);
    out.check(runs[r].count(&Segment::label_mismatches) == 0,
              "a served label differs from FrozenModel::predict");
    if (r < rates) {
      ok += runs[r].count(&Segment::ok);
      server_cpu_s += runs[r].server_cpu_s;
    }
  }
  setup->servers.clear();
  const ServeRun &low = runs[0], &mid = runs[1], &high = runs[2];

  out.set_e2e("setup_s", median(setup_s), "s");
  out.set_e2e("work_per_cpu_s", static_cast<double>(ok) / server_cpu_s, "1/s");
  out.set_e2e("test_per_cpu_s", median(predict_cpu_rate), "1/s");
  out.set_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  out.set_layer("wall.throughput_per_s",
                static_cast<double>(high.count(&Segment::within_limit)) /
                    high.duration_s,
                "1/s");
  out.set_layer("wall.latency_p50_ms", mid.segment_quantile(0.50) * 1e3, "ms");
  out.set_layer("wall.latency_tail_ms", mid.segment_quantile(0.99) * 1e3, "ms");
  out.set_layer("wall.test_samples_per_s", median(predict_rate), "1/s");

  if (ctx.args.trace) {
    const ServeRun& traced = runs[3];
    Cell& cell = setup->trained.cell;
    out.set_layer("core.dataset_gen_s", cell.dataset_gen_s, "s");
    framework_layer_metrics(
        setup->trained.train,
        cell.framework->evaluate(setup->trained.model, cell.test, device), out);
    serve_layer_metrics(mid, low, out);
    // A served batch is this workload's step.
    const double batches =
        static_cast<double>(std::max<std::int64_t>(1, traced.batches));
    out.set_layer("nn.arena_mib",
                  static_cast<double>(traced.arena_bytes) / 1048576.0, "MiB");
    out.set_layer("nn.step_allocs",
                  trace_counter(counters, "tensor.allocs") / batches, "count");
    out.set_layer("runtime.pool_tasks_per_step",
                  trace_counter(counters, "pool.tasks") / batches, "count");
    const auto cpu_per_request = [](const ServeRun& r) {
      return r.server_cpu_s / static_cast<double>(r.count(&Segment::ok));
    };
    out.set_layer("trace_overhead_pct",
                  (cpu_per_request(traced) / cpu_per_request(mid) - 1.0) * 100.0,
                  "%");
    module_probes(cell, setup->trained.model,
                  std::max<std::int64_t>(1, std::llround(mid.mean_batch)),
                  Device::cpu(), mid.mean_batch, out);
    craft_probe(setup->trained.model, inputs, ctx.threads, out);
  }
  return out;
}

}  // namespace perfbench
