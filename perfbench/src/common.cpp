#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void Outcome::set_e2e(const std::string& name, double value,
                      const char* unit) {
  e2e.push_back({name, value, unit});
}

void Outcome::set_layer(const std::string& name, double value,
                        const char* unit) {
  layer.push_back({name, value, unit});
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::int64_t trace_counter(const dlbench::runtime::trace::TraceReport& report,
                           const char* name) {
  for (const auto& c : report.counters)
    if (c.name == name) return c.value;
  return 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long field[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (long long& f : field) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace spans {
namespace {

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  std::int64_t request;
};

bool g_enabled = false;
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
thread_local std::vector<std::int64_t> t_open;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct NameStat {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

// Self time: each closed span's duration minus its closed children's.
std::map<std::string, NameStat> aggregate() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<double> child_s(g_records.size(), 0.0);
  for (const Record& r : g_records)
    if (r.end_ns >= 0 && r.parent >= 0)
      child_s[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  std::map<std::string, NameStat> out;
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    if (r.end_ns < 0) continue;
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    NameStat& s = out[r.name];
    ++s.count;
    s.total_s += dur;
    s.self_s += dur - child_s[i];
  }
  return out;
}

}  // namespace

void enable() { g_enabled = true; }

Span::Span(const char* name, std::int64_t request) {
  if (!g_enabled) return;
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  {
    std::lock_guard<std::mutex> lock(g_mu);
    id_ = static_cast<std::int64_t>(g_records.size());
    g_records.push_back({name, now_ns(), -1, parent, request});
  }
  t_open.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  t_open.pop_back();
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(g_mu);
  g_records[static_cast<std::size_t>(id_)].end_ns = end;
}

std::string self_time_table() {
  std::string out = "span                          count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, s] : aggregate()) {
    std::snprintf(line, sizeof line, "%-28s %6lld %11.3f %11.3f\n",
                  name.c_str(), static_cast<long long>(s.count),
                  s.total_s * 1e3, s.self_s * 1e3);
    out += line;
  }
  return out;
}

void write(const std::string& path) {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(g_mu);
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    out << "{\"id\":" << i << ",\"name\":\"" << r.name
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent;
    if (r.request >= 0) out << ",\"request\":" << r.request;
    out << "}\n";
  }
}

}  // namespace spans

}  // namespace perfbench
