// perfbench: the repo benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--source-id <sha>]
//
// Runs one workload in this process, prints a host/build fingerprint,
// a table of metrics, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Normally launched through perfbench/run.py, which builds it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "runtime/device.hpp"
#include "runtime/trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"train_tf_mnist", "serve_caffe_mnist"};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::stoull(val);
    else if (key == "--seconds") args.seconds = std::stod(val);
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--trace-dir") args.trace_dir = val;
    else if (key == "--source-id") args.source_id = val;
    else return false;
  }
  if (argc % 2 == 0 || !(args.seconds > 0)) return false;
  for (const char* w : kWorkloads)
    if (args.workload == w) return true;
  return false;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// The program reads ~50 DLB_* knobs (thread caps, step caps, plan and
// SIMD switches, fault plans the Harness arms by itself). Any one left
// in the environment would silently change what is measured.
std::string dlb_environment() {
  std::string found;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "DLB_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      found += std::string(*e, eq ? static_cast<std::size_t>(eq - *e)
                                  : std::strlen(*e)) + " ";
    }
  return found;
}

std::string fingerprint(const Args& args, const RunContext& ctx) {
  std::ostringstream o;
  o << "{\"cores\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
    << ", \"simd\": \""
    << dlbench::runtime::simd_level_name(dlbench::runtime::active_simd_level())
    << "\", \"threads\": " << ctx.threads
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
    << ", \"trace_compiled\": "
    << (dlbench::runtime::trace::compiled() ? "true" : "false")
    << ", \"source\": \"" << json_escape(args.source_id) << "\"}";
  return o.str();
}

void print_result(const Outcome& out, bool trace) {
  const auto& metrics = trace ? out.layer : out.e2e;
  for (const auto* list : {&out.e2e, &out.layer}) {
    std::printf("%s\n", list == &out.e2e ? "end-to-end:" : "per-layer:");
    for (const Metric& m : *list)
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  for (const std::string& f : out.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (out.check_failures.empty() ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <train_tf_mnist|"
                 "serve_caffe_mnist> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  const bool optimized = false;
#else
  const bool optimized = true;
#endif
  if (!optimized || std::strlen(PERFBENCH_SANITIZE) > 0 ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build%s%s\n",
                 build_type.c_str(),
                 std::strlen(PERFBENCH_SANITIZE) ? " with sanitizers " : "",
                 PERFBENCH_SANITIZE);
    return 2;
  }
  if (const std::string knobs = dlb_environment(); !knobs.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with DLB_* knobs set: %s\n",
                 knobs.c_str());
    return 2;
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  // Half the cores, at most two. With every vCPU of a shared 4-vCPU host
  // busy, the hypervisor stole 25-35 % of its time and the CPU cost of
  // the same work swung by 10-15 % from run to run; with half of them
  // busy it stole ~5 % and the cost repeated within a few percent.
  const int threads = static_cast<int>(std::max(1u, std::min(4u, cores) / 2));
  RunContext ctx{args, dlbench::runtime::Device::parallel(threads), threads};
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host %s\n", fingerprint(args, ctx).c_str());
  std::fflush(stdout);

  const auto start = Clock::now();
  const double steal0 = host_steal_s();
  Outcome out = args.workload == "train_tf_mnist" ? run_train_workload(ctx)
                                                  : run_serve_workload(ctx);

  // Share of this host's CPU time the hypervisor gave to other guests
  // while the run was measuring: the context every wall-clock figure
  // needs.
  out.set_layer("host.steal_pct",
                (host_steal_s() - steal0) /
                    (seconds_since(start) * static_cast<double>(cores)) * 100.0,
                "%");
  for (const Metric& m : args.trace ? out.layer : out.e2e)
    out.check(std::isfinite(m.value), m.name + " is not a finite number");
  if (args.trace) {
    std::printf("%s", spans::self_time_table().c_str());
    if (!args.trace_dir.empty())
      spans::write(args.trace_dir + "/" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".spans.jsonl");
  }
  print_result(out, args.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
