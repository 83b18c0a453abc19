#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Samples / digests / process facts

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  sort();
  // Nearest rank: the smallest value with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values_.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values_.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values_[index];
}

std::size_t Samples::beyond(double p) const {
  const double cut = percentile(p);
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(), [&](double v) { return v > cut; }));
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void Digest::add(const std::string& bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  add(static_cast<std::uint64_t>(bytes.size()));
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double median_of(std::vector<double> values) {
  Samples s;
  for (double v : values) s.add(v);
  return s.median();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu  user nice system idle iowait irq softirq steal ...
  double fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : fields)
    if (!(stat >> f)) return 0.0;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0.0;
}

double quiet_cut(const std::vector<double>& steals) {
  return std::max(median_of(steals), kQuietSteal);
}

Slices::Slices(double slice_s) : slice_s_(slice_s), start_(Clock::now()), steal0_(host_steal_s()) {}

void Slices::close() {
  const Clock::time_point now = Clock::now();
  const double steal = host_steal_s();
  const double span = seconds_between(start_, now);
  current_.steal = span > 0.0 ? (steal - steal0_) / span : 0.0;
  closed_.push_back(std::move(current_));
  current_ = Slice{};
  start_ = now;
  steal0_ = steal;
}

void Slices::tick() {
  if (seconds_between(start_, Clock::now()) >= slice_s_) close();
}

void Slices::finish() {
  if (current_.ops > 0.0 || !current_.latency_ms.empty()) close();
}

Slices::Slice Slices::quiet() const {
  std::vector<double> steals;
  for (const Slice& s : closed_) steals.push_back(s.steal);
  const double cut = quiet_cut(steals);
  Slice merged;
  for (const Slice& s : closed_) {
    if (s.steal > cut) continue;
    merged.latency_ms.append(s.latency_ms);
    merged.ops += s.ops;
    merged.busy_s += s.busy_s;
    merged.steal = std::max(merged.steal, s.steal);
  }
  return merged;
}

std::string Slices::summary() const {
  std::vector<double> steals;
  for (const Slice& s : closed_) steals.push_back(s.steal);
  const double cut = quiet_cut(steals);
  std::size_t kept = 0;
  for (double v : steals) kept += v <= cut ? 1 : 0;
  char line[128];
  std::snprintf(line, sizeof line, "%zu of %zu slices kept (steal cut %.3f CPUs; per slice:", kept,
                closed_.size(), cut);
  std::string out = line;
  for (double v : steals) {
    std::snprintf(line, sizeof line, " %.2f", v);
    out += line;
  }
  return out + ")";
}

void add_end_to_end(Outcome& out, double setup_s, double ops_per_s, double p50_ms,
                    double p99_ms, double light_p99_ms, double max_rate_rps) {
  out.add("setup_s", setup_s, "s");
  out.add("ops_per_s", ops_per_s, "1/s");
  out.add("latency_p50_ms", p50_ms, "ms");
  out.add("latency_p99_ms", p99_ms, "ms");
  out.add("light_p99_ms", light_p99_ms, "ms");
  out.add("max_rate_rps", max_rate_rps, "req/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_closed_loop(Outcome& out, double setup_s, double ops_per_s,
                     const Samples& latency_ms) {
  const double p99 = latency_ms.percentile(99.0);
  add_end_to_end(out, setup_s, ops_per_s, latency_ms.median(), p99, p99, ops_per_s);
  out.note("latency samples: " + std::to_string(latency_ms.size()) + " (" +
           std::to_string(latency_ms.beyond(99.0)) + " beyond p99)");
}

// ---------------------------------------------------------------------------
// Span recorder

namespace trace {
namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  ///< Stack of open span ids.
};

std::atomic<bool> g_enabled{false};
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::atomic<std::uint32_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_buffers_mutex;
// Buffers outlive their threads (pool workers may exit before collect()).
std::vector<std::shared_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::shared_ptr<ThreadBuffer>> all;
  return all;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t op) {
  if (!enabled()) return;
  ThreadBuffer& buf = local_buffer();
  active_ = true;
  name_ = name;
  op_ = op;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.open.empty() ? 0 : buf.open.back();
  buf.open.push_back(id_);
  start_ = Clock::now();
}

Scope::~Scope() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  ThreadBuffer& buf = local_buffer();
  buf.open.pop_back();
  buf.spans.push_back(
      {name_, op_, id_, parent_,
       std::chrono::duration_cast<std::chrono::nanoseconds>(start_ - g_epoch).count(),
       std::chrono::duration_cast<std::chrono::nanoseconds>(end - g_epoch).count()});
}

std::vector<Span> collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : buffers()) all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, Samples> by_name(const std::vector<Span>& spans) {
  std::map<std::string, Samples> out;
  for (const Span& s : spans)
    out[s.name].add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

double unattributed_share(const std::vector<Span>& spans, const std::string& op_name) {
  std::unordered_map<std::uint32_t, std::int64_t> covered;  // op span id -> ns
  std::int64_t wall = 0;
  for (const Span& s : spans)
    if (op_name == s.name) {
      covered.emplace(s.id, 0);
      wall += s.end_ns - s.start_ns;
    }
  for (const Span& s : spans) {
    auto it = covered.find(s.parent);
    if (it != covered.end()) it->second += s.end_ns - s.start_ns;
  }
  std::int64_t attributed = 0;
  for (const auto& [id, ns] : covered) attributed += ns;
  return wall > 0 ? std::max(0.0, 1.0 - static_cast<double>(attributed) /
                                            static_cast<double>(wall))
                  : 0.0;
}

bool write_json(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name << "\", \"op\": " << s.op
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace trace
}  // namespace perfbench
