// Shared pieces of the rtpool benchmark program: run options, the outcome a
// workload reports, sample statistics, digests and the span recorder used
// by the traced run.
//
// Every workload runs in its own process (perfbench/run.py starts one per
// workload). With tracing off a workload reports the end-to-end metrics;
// with tracing on it first runs part of its untraced measurement, then
// replays the same operations through its own per-layer calls with a span
// around each, and reports the per-layer metrics it measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark) or "tiny" (the self-test: small inputs, a
  /// short run, every metric still printed).
  std::string size = "full";
  /// Self-test fault injection: "serve" corrupts one serve reference
  /// report, "admission" flips one cold verdict. Both must raise failed.
  std::string corrupt;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
  /// Directory for files the workload writes and reads back.
  std::string scratch_dir = ".";
  int threads = 1;  ///< Engine/worker threads: the host's core count.

  bool tiny() const { return size == "tiny"; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t runs = 0;           ///< Timed batches (points, corpus runs, phases, replays).
  std::vector<Metric> metrics;
  std::string digest;               ///< Hex digest of the checked outputs.
  std::vector<std::string> notes;   ///< Extra human-readable lines.

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Sorted-sample statistics (nearest-rank percentiles).
class Samples {
 public:
  void add(double v) { values_.push_back(v); sorted_ = false; }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double percentile(double p) const;  ///< p in [0, 100]; 0 when empty.
  double median() const { return percentile(50.0); }
  double sum() const;
  /// Samples strictly above the p-th percentile.
  std::size_t beyond(double p) const;

 private:
  void sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// FNV-1a 64-bit digest accumulator (hex on output).
class Digest {
 public:
  void add(const std::string& bytes);
  void add(std::uint64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Median of the setup times of several setups (the reported setup_s).
double median_of(std::vector<double> values);

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// CPU seconds the hypervisor has taken from this machine so far ("steal"
/// in /proc/stat, summed over CPUs); 0 where the kernel does not report it.
double host_steal_s();

/// Host steal (CPUs) up to which a stretch of a run counts as quiet.
constexpr double kQuietSteal = 0.03;

/// The steal above which a stretch of a run is set aside: the median of
/// `steals` (CPUs, one per stretch), or kQuietSteal if that is larger. On a
/// shared host the workloads' rates and tails follow the CPU time the
/// hypervisor takes from the machine, in spells of seconds; the stretches
/// with at most this much steal are what the metrics come from (all of them
/// where the kernel reports no steal).
double quiet_cut(const std::vector<double>& steals);

/// The timed part of a closed-loop workload, cut into slices of at least
/// `slice_s` seconds with the host steal of each.
class Slices {
 public:
  struct Slice {
    Samples latency_ms;
    double ops = 0.0;     ///< Operations completed.
    double busy_s = 0.0;  ///< Time spent in them.
    double steal = 0.0;   ///< CPUs the hypervisor took during the slice.
  };

  explicit Slices(double slice_s);
  /// The slice being filled.
  Slice& current() { return current_; }
  /// Close the current slice once it has lasted `slice_s` (call between
  /// operations).
  void tick();
  /// Close the current slice if it holds any operation.
  void finish();
  /// The slices with at most quiet_cut() steal, merged.
  Slice quiet() const;
  std::size_t size() const { return closed_.size(); }
  /// "k of n slices kept (steal cut c CPUs)".
  std::string summary() const;

 private:
  void close();
  double slice_s_;
  Slice current_;
  Clock::time_point start_;
  double steal0_ = 0.0;
  std::vector<Slice> closed_;
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_end_to_end(Outcome& out, double setup_s, double ops_per_s, double p50_ms,
                    double p99_ms, double light_p99_ms, double max_rate_rps);

/// End-to-end metrics of a closed-loop workload: its latency samples give
/// p50 and p99, and with no arrival queue light_p99_ms is latency_p99_ms and
/// max_rate_rps is ops_per_s (see perfbench/README.md).
void add_closed_loop(Outcome& out, double setup_s, double ops_per_s,
                     const Samples& latency_ms);

// ---------------------------------------------------------------------------
// Span recorder for the traced run. Spans live in per-thread buffers (no
// lock on the recording path) and are merged when the run ends.

namespace trace {

struct Span {
  const char* name = "";      ///< Static string: "<layer>.<call>".
  std::uint64_t op = 0;       ///< Operation the span belongs to.
  std::uint32_t id = 0;       ///< 1-based; unique within the run.
  std::uint32_t parent = 0;   ///< Enclosing span on the same thread, 0 = none.
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the trace epoch.
  std::int64_t end_ns = 0;
};

void set_enabled(bool on);

/// RAII span: records [construction, destruction) when tracing is on.
class Scope {
 public:
  Scope(const char* name, std::uint64_t op);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  const char* name_ = "";
  std::uint64_t op_ = 0;
  Clock::time_point start_;
};

/// Every span recorded so far, merged across threads, ordered by id.
std::vector<Span> collect();

/// Per-name call statistics over `spans` (durations in ms).
std::map<std::string, Samples> by_name(const std::vector<Span>& spans);

/// Share of the wall time of spans named `op_name` that none of their
/// direct children covers (children of one op never overlap).
double unattributed_share(const std::vector<Span>& spans,
                          const std::string& op_name);

/// Write spans as JSON ({"spans": [{name, op, id, parent, start_ns,
/// end_ns}, ...]}). Returns false when the file cannot be written.
bool write_json(const std::vector<Span>& spans, const std::string& path);

}  // namespace trace

// ---------------------------------------------------------------------------
// Workloads. Each throws std::runtime_error on a set-up failure.

Outcome run_sweep(const Options& opt);
Outcome run_corpus(const Options& opt);
Outcome run_serve(const Options& opt);
Outcome run_admission(const Options& opt);

}  // namespace perfbench
