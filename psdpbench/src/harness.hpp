// Shared plumbing of the benchmark runner: workload parameters, the
// outside-in span recorder, summary statistics, process counters and the
// result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace psdpbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
double seconds_between(Clock::time_point from, Clock::time_point to);

/// One workload's fixed load definition: the flattened key=value pairs of
/// its object in workloads.json (nested keys joined with '.', lists with
/// ','). Every getter throws on a missing or malformed key, so a typo in
/// the definition fails the run instead of silently falling back.
class Params {
 public:
  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;
  const std::string& text(const std::string& key) const;
  double num(const std::string& key) const;
  long integer(const std::string& key) const;
  std::vector<std::string> list(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The run as the command line describes it.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch files of this run (inside the checkout)
};

/// One recorded span: a named interval, the span that caused it (-1 for a
/// root), and the job it belongs to (-1 when none).
struct Span {
  std::string name;
  double start = 0;  ///< seconds since the tracer's origin
  double end = 0;
  int parent = -1;
  long job = -1;
};

/// Outside-in span recorder. Spans are recorded only from the benchmark's
/// own code, around calls into the library's public functions, kept in
/// memory and written out once the run ends. Disabled tracers record
/// nothing and cost a branch per scope. Thread safe: lanes, builder
/// closures and the client reader all record concurrently. Nested scopes on
/// one thread find their parent through a per-thread stack; spans opened on
/// one thread and closed on another (a job from submit to result) use
/// begin()/finish() with an explicit parent.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (-1 when disabled). `parent` = -2 picks
  /// the innermost open Scope of the calling thread.
  int begin(const std::string& name, long job = -1, int parent = -2);
  void finish(int id);

  /// RAII span that also becomes the calling thread's current parent.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, long job = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Durations of every finished span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Self times (duration minus the union of its children's intervals)
  /// of every finished span with this name.
  std::vector<double> self_times(const std::string& name) const;

  /// Write every span as JSON to `path`.
  void write_json(const std::string& path) const;

 private:
  double now() const;
  double self_time_locked(int id) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced: correctness tallies and its metrics.
struct Outcome {
  long attempted = 0;
  long failed = 0;  ///< failed + shed + identity mismatches + bad certificates
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// Count one failed job and remember why (the first few reasons only).
  void fail(const std::string& why);
  void add_layer(const std::string& name, double value,
                 const std::string& unit);

  /// The eight end-to-end metrics: setup_s (median of the repeated
  /// set-ups), jobs_per_s, latency_p50_s / latency_p90_s over the correct
  /// jobs' latencies, slo_attainment, ok_frac (from the tallies),
  /// bracket_ratio_p50 and peak_rss_mb.
  void add_end_to_end(const std::vector<double>& setup_s, double jobs_per_s,
                      const std::vector<double>& latency,
                      double slo_attainment,
                      const std::vector<double>& brackets);
};

/// q-quantile (0..1) of a sample by linear interpolation; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);

/// Process CPU and scheduling counters (getrusage).
struct CpuSample {
  double user_s = 0;
  double sys_s = 0;
  long voluntary_switches = 0;
  long involuntary_switches = 0;
  Clock::time_point wall;
};
CpuSample cpu_sample();

/// Peak resident set size of the process (VmHWM), in MB.
double peak_rss_mb();

/// Adds par.cpu_util, par.sys_frac and par.ctx_switches_per_job for the
/// interval between two samples.
void add_par_metrics(Outcome& outcome, const CpuSample& from,
                     const CpuSample& to, int pool_width, long jobs);

/// A 64-bit mix of (seed, salt): distinct instance seeds per template.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Size of a file in bytes (0 when unreadable).
std::uint64_t file_bytes(const std::string& path);

}  // namespace psdpbench
