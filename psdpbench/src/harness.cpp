#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace psdpbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ----------------------------------------------------------------- params --

void Params::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Params::has(const std::string& key) const {
  return values_.count(key) > 0;
}

const std::string& Params::text(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("workload parameter missing: " + key);
  }
  return it->second;
}

double Params::num(const std::string& key) const {
  const std::string& t = text(key);
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(t, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != t.size() || !std::isfinite(v)) {
    throw std::runtime_error("workload parameter " + key +
                             " is not a number: " + t);
  }
  return v;
}

long Params::integer(const std::string& key) const {
  const double v = num(key);
  if (v != std::floor(v)) {
    throw std::runtime_error("workload parameter " + key +
                             " is not an integer: " + text(key));
  }
  return static_cast<long>(v);
}

std::vector<std::string> Params::list(const std::string& key) const {
  std::vector<std::string> out;
  std::stringstream in(text(key));
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// ----------------------------------------------------------------- tracer --

namespace {
thread_local std::vector<int> t_open_scopes;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now() const { return seconds_between(origin_, Clock::now()); }

int Tracer::begin(const std::string& name, long job, int parent) {
  if (!enabled_) return -1;
  if (parent == -2) parent = t_open_scopes.empty() ? -1 : t_open_scopes.back();
  Span span;
  span.name = name;
  span.parent = parent;
  span.job = job;
  span.start = now();
  span.end = -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::finish(int id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

Tracer::Scope::Scope(Tracer& tracer, const std::string& name, long job)
    : tracer_(tracer), id_(tracer.begin(name, job)) {
  if (id_ >= 0) t_open_scopes.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_.finish(id_);
  t_open_scopes.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= 0) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::self_time_locked(int id) const {
  const Span& parent = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans_) {
    if (s.parent != id || s.end < 0) continue;
    covered.emplace_back(std::max(s.start, parent.start),
                         std::min(s.end, parent.end));
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0;
  double reach = parent.start;
  for (const auto& [a, b] : covered) {
    const double from = std::max(a, reach);
    if (b > from) {
      busy += b - from;
      reach = b;
    }
  }
  return (parent.end - parent.start) - busy;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && spans_[i].end >= 0) {
      out.push_back(self_time_locked(static_cast<int>(i)));
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out.precision(12);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": " << s.parent << ", \"job\": " << s.job << "}";
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------- outcome --

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

void Outcome::add_layer(const std::string& name, double value,
                        const std::string& unit) {
  per_layer.push_back({name, value, unit});
}

void Outcome::add_end_to_end(const std::vector<double>& setup_s,
                             double jobs_per_s,
                             const std::vector<double>& latency,
                             double slo_attainment,
                             const std::vector<double>& brackets) {
  const double ok_frac =
      attempted > 0
          ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
          : 0;
  end_to_end = {{"setup_s", median(setup_s), "s"},
                {"jobs_per_s", jobs_per_s, "1/s"},
                {"latency_p50_s", median(latency), "s"},
                {"latency_p90_s", quantile(latency, 0.9), "s"},
                {"slo_attainment", slo_attainment, "ratio"},
                {"ok_frac", ok_frac, "ratio"},
                {"bracket_ratio_p50", median(brackets), "ratio"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

// ------------------------------------------------------------------ stats --

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double s = 0;
  for (double v : values) s += v;
  return s;
}

CpuSample cpu_sample() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuSample s;
  s.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec);
  s.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
  s.voluntary_switches = usage.ru_nvcsw;
  s.involuntary_switches = usage.ru_nivcsw;
  s.wall = Clock::now();
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void add_par_metrics(Outcome& outcome, const CpuSample& from,
                     const CpuSample& to, int pool_width, long jobs) {
  const double wall = seconds_between(from.wall, to.wall);
  const double user = to.user_s - from.user_s;
  const double sys = to.sys_s - from.sys_s;
  const double cpu = user + sys;
  outcome.add_layer("par.cpu_util",
                    wall > 0 ? cpu / (wall * pool_width) : 0, "ratio");
  outcome.add_layer("par.sys_frac", cpu > 0 ? sys / cpu : 0, "ratio");
  const long switches = (to.voluntary_switches - from.voluntary_switches) +
                        (to.involuntary_switches - from.involuntary_switches);
  outcome.add_layer("par.ctx_switches_per_job",
                    jobs > 0 ? static_cast<double>(switches) /
                                   static_cast<double>(jobs)
                             : 0,
                    "count");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<std::uint64_t>(in.tellg());
}

}  // namespace psdpbench
