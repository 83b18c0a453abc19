// Workload "serve": closed-loop, pipelined load on the admission service
// over real loopback TCP. Every phase starts a fresh serve::AdmissionService
// (default ServiceConfig) behind a serve::TcpServer, so documents that are
// fresh in a phase are unseen by that instance's memos. Requests carry ids
// and are pipelined: each connection keeps a fixed number of requests in
// flight, and an answer makes the connection's next request due at once.
// Latency runs from the due time, so the generator's own delay counts.
//
// The mix: 40% fresh documents (never sent before in the phase), 30%
// repeats (byte copies of a document sent earlier in the phase: the
// pre-parse memo), 30% mutants (one WCET of an earlier fresh document's
// lowest-priority task changed: the incremental donor). Every embedded
// report is byte-compared with a reference rendered in set-up through
// lint::render_json, the renderer rtpool_cli --format=json uses.
//
// Phases: light (one request in flight: service time without queueing),
// loaded (one request in flight per connection, one connection per core:
// the latency metrics and ops_per_s) and saturated (four per connection:
// max_rate_rps, the rate the service sustains; its p99 is printed against
// kLimitMs).
// Closed loop, not open loop: on a host whose CPU time is shared with
// neighbours, an open-loop phase turns each slow spell into a queue whose
// tail outlives the spell, and fixed-rate percentiles then vary from run to
// run by far more than any code change this benchmark must show.
#include <poll.h>

#include <atomic>
#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "bench.h"
#include "gen/taskset_generator.h"
#include "lint/raw_model.h"
#include "lint/render.h"
#include "model/io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rtpool;

// Phase shapes, fixed so that every commit is measured at the same load.
// Each phase sends a fixed number of requests on a fresh service, so every
// repetition of a shape is the same amount of work.
struct Shape {
  int connections;     ///< 0: one per core.
  int depth;           ///< Requests in flight per connection.
  std::size_t requests;
  /// The load generator polls without sleeping, so that its own wake-up is
  /// not charged to the service: only where it leaves cores idle.
  bool spin;
};
constexpr Shape kLight{1, 1, 500, true};        // one request at a time
constexpr Shape kLoaded{0, 1, 1000, false};     // one per connection
constexpr Shape kSaturated{0, 4, 1000, false};
constexpr std::uint64_t kVariants = 4;  // request sequences per shape
// The p99 within which the saturated phases should stay (printed only).
constexpr double kLimitMs = 50.0;

enum class Kind : unsigned char { kFresh, kRepeat, kMutant };

/// One document of the pool. Fresh document j is docs[2j], its mutant
/// docs[2j + 1]. Only the JSON form of the .taskset text is kept (the pool
/// is the workload's largest memory consumer).
struct Doc {
  std::string taskset_json;  ///< JSON string literal of the .taskset text.
  std::string expected;      ///< lint::render_json(report, ts).
};

struct Send {
  std::size_t doc = 0;
  Kind kind = Kind::kFresh;
};

gen::TaskSetParams family_params() {
  // Big enough that parsing a document (~1.4 ms) dominates its analysis.
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 16;
  params.total_utilization = 0.6 * 8.0;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  return params;
}

model::TaskSet generate_family(std::uint64_t seed) {
  const gen::TaskSetParams params = family_params();
  for (std::uint64_t salt = 0;; ++salt) {
    util::Rng rng(seed * 1000003 + salt);
    try {
      return gen::generate_task_set(params, rng);
    } catch (const gen::GenerationError&) {
      if (salt > 50) throw;
    }
  }
}

/// Scale the first node WCET of the lowest-priority task (largest
/// `priority=`): same task names, so the same family and shard, with one
/// dirty task at the end of the priority order.
std::string mutate_lowest_priority_task(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::size_t task_line = lines.size();
  long best = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t at = lines[i].rfind("priority=");
    if (lines[i].rfind("task ", 0) != 0 || at == std::string::npos) continue;
    const long priority = std::stol(lines[i].substr(at + 9));
    if (priority > best) {
      best = priority;
      task_line = i;
    }
  }
  for (std::size_t i = task_line + 1; i < lines.size(); ++i) {
    if (lines[i].rfind("endtask", 0) == 0) break;
    const std::size_t at = lines[i].find("wcet=");
    if (lines[i].rfind("node ", 0) != 0 || at == std::string::npos) continue;
    std::size_t end = lines[i].find(' ', at);
    if (end == std::string::npos) end = lines[i].size();
    std::ostringstream patched;
    patched << lines[i].substr(0, at + 5)
            << std::stod(lines[i].substr(at + 5, end - at - 5)) * 1.05
            << lines[i].substr(end);
    lines[i] = patched.str();
    break;
  }
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

std::string reference_report(const std::string& text) {
  std::istringstream in(text);
  const model::TaskSet ts = model::read_task_set(in);
  analysis::RtaContext ctx(ts);
  const analysis::Report report =
      analysis::get_analyzer("global-limited").analyze(ts, ctx, {});
  return lint::render_json(report, ts);
}

Doc make_doc(const std::string& text) {
  Doc doc;
  std::ostringstream literal;
  util::JsonWriter w(literal);
  w.value(text);
  doc.taskset_json = literal.str();
  doc.expected = reference_report(text);
  return doc;
}

std::string text_of(const Doc& doc) { return util::parse_json(doc.taskset_json).as_string(); }

/// Fresh documents 0..fresh-1 and their mutants, built on `threads` threads.
/// Document j's task names start with `<prefix><j>_`: the generator names
/// the tasks of every set alike, and the service groups documents by their
/// task names (family: shard routing, incremental donor), so without the
/// prefix every document would be one family on one shard.
std::vector<Doc> build_docs(std::uint64_t seed, const std::string& prefix, std::size_t fresh,
                            int threads) {
  std::vector<Doc> docs(2 * fresh);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&] {
    try {
      for (std::size_t j; (j = next.fetch_add(1)) < fresh;) {
        std::ostringstream os;
        model::write_task_set(os, generate_family(seed * 7919 + j));
        std::string text = os.str();
        const std::string name = "task name=", tag = prefix + std::to_string(j) + "_";
        for (std::size_t at = text.find(name); at != std::string::npos;
             at = text.find(name, at))
          text.insert(at += name.size(), tag);
        docs[2 * j] = make_doc(text);
        docs[2 * j + 1] = make_doc(mutate_lowest_priority_task(text));
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return docs;
}

/// Seeded request sequence of `count` requests with the mix above. Fresh
/// documents are taken in order from 0 in every phase. Repeats and mutants
/// refer to one of the last kRecent documents (fresh documents for mutants):
/// resubmissions follow their originals closely, and the service's memo and
/// donor caches are sized for such a working set.
std::vector<Send> make_schedule(std::uint64_t seed, std::uint64_t salt, std::size_t count) {
  constexpr std::size_t kRecent = 32;
  util::Rng rng(seed * 0x2545F4914F6CDD1Dull + salt);
  std::vector<Send> out;
  std::vector<std::size_t> sent;         // docs sent so far (repeat pool)
  std::vector<std::size_t> unmutated;    // fresh j whose mutant is unsent
  std::size_t next_fresh = 0;
  while (out.size() < count) {
    const double roll = rng.uniform(0.0, 1.0);
    Send s;
    std::erase_if(unmutated, [&](std::size_t j) { return j + kRecent < next_fresh; });
    if (roll >= 0.4 && roll < 0.7 && !sent.empty()) {
      s.kind = Kind::kRepeat;
      const std::size_t window = std::min(sent.size(), kRecent);
      s.doc = sent[sent.size() - 1 - rng.index(window)];
    } else if (roll >= 0.7 && !unmutated.empty()) {
      const std::size_t pick = rng.index(unmutated.size());
      s.kind = Kind::kMutant;
      s.doc = 2 * unmutated[pick] + 1;
      unmutated[pick] = unmutated.back();
      unmutated.pop_back();
    } else {
      s.kind = Kind::kFresh;
      s.doc = 2 * next_fresh;
      unmutated.push_back(next_fresh++);
    }
    sent.push_back(s.doc);
    out.push_back(s);
  }
  return out;
}

std::size_t fresh_needed(const std::vector<Send>& schedule) {
  std::size_t n = 0;
  for (const Send& s : schedule)
    if (s.kind == Kind::kFresh) n = std::max(n, s.doc / 2 + 1);
  return n;
}

std::string request_body(std::size_t index, const Doc& doc) {
  return "{\"id\":\"r" + std::to_string(index) + "\",\"taskset\":" + doc.taskset_json + "}";
}

struct PhaseResult {
  Samples latency_ms;     ///< Response minus due time, answered requests.
  Samples late_ms;        ///< Start of the send minus due time.
  std::uint64_t sent = 0, answered = 0, errors = 0, mismatches = 0;
  double wall_s = 0.0;    ///< First due time to last response.
  double steal = 0.0;     ///< CPUs the hypervisor took from the machine.
  serve::ServiceStats stats;
  std::string digest;     ///< Over the reports, in request order.
  std::uint64_t warm_failed = 0;  ///< Wrong or missing warm-up answers.

  std::uint64_t failed() const { return (sent - answered) + errors + mismatches + warm_failed; }
  std::uint64_t correct() const { return answered - errors - mismatches; }
  double rate() const { return wall_s > 0.0 ? static_cast<double>(correct()) / wall_s : 0.0; }
  /// Latencies with every failed request counted as over any limit.
  Samples with_failures() const {
    Samples s = latency_ms;
    for (std::uint64_t i = 0; i < failed(); ++i) s.add(1e9);
    return s;
  }
};

/// One closed-loop phase on a fresh service: `depth` requests in flight on
/// each of `connections` connections; an answer frees its slot, and the
/// next request of the schedule is due at that moment on that connection.
PhaseResult run_phase(const std::vector<Doc>& docs, const std::vector<Doc>& warm,
                      const std::vector<Send>& schedule, int connections, int depth,
                      bool spin, const std::string* corrupt_expected) {
  PhaseResult result;
  serve::AdmissionService service(serve::ServiceConfig{});
  serve::TcpServer server(service, "127.0.0.1", 0);
  server.start();
  std::vector<util::Socket> sockets;
  for (int c = 0; c < connections; ++c)
    sockets.push_back(util::tcp_connect("127.0.0.1", server.port()));

  // Warm the fresh instance up outside the measurement: on every connection
  // a cold, an incremental and a memo answer for documents the phase never
  // sends, so first-use costs (threads, arenas, contexts) are not charged to
  // the phase's first requests.
  for (int c = 0; c < connections; ++c) {
    const std::size_t j = static_cast<std::size_t>(c) % (warm.size() / 2);
    for (const Doc* doc : {&warm[2 * j], &warm[2 * j + 1], &warm[2 * j + 1]}) {
      util::write_frame(sockets[c], request_body(0, *doc));
      const std::optional<std::string> frame = util::read_frame(sockets[c]);
      if (!frame.has_value() || serve::extract_member(*frame, "report") + '\n' != doc->expected)
        ++result.warm_failed;
    }
  }

  // One thread sends and receives, so that the load generator takes as few
  // of the cores the service runs on as it can.
  const std::size_t n = schedule.size();
  std::vector<Clock::time_point> due(n);
  std::vector<double> latency(n, 0.0);
  std::vector<std::string> reports(n);
  std::vector<unsigned char> status(n, 0);  // 1 ok, 2 error, 3 mismatch
  std::size_t next = 0, answered = 0;
  const auto send = [&](std::size_t c, Clock::time_point due_at) {
    if (next >= n) return;
    const std::size_t i = next++;
    due[i] = due_at;
    const std::string body = request_body(i, docs[schedule[i].doc]);
    result.late_ms.add(ms_between(due_at, Clock::now()));
    util::write_frame(sockets[c], body);
  };
  const auto record = [&](const std::string& frame, Clock::time_point now) {
    const std::string id = serve::extract_member(frame, "id");
    if (id.size() < 4 || id[1] != 'r') return;
    const std::size_t i = std::stoul(id.substr(2, id.size() - 3));
    if (i >= next || status[i] != 0) return;
    latency[i] = ms_between(due[i], now);
    ++answered;
    if (frame.find("\"ok\":true") == std::string::npos) {
      status[i] = 2;
      return;
    }
    reports[i] = serve::extract_member(frame, "report") + '\n';
    const std::string& expected_report = corrupt_expected != nullptr && i == 0
                                             ? *corrupt_expected
                                             : docs[schedule[i].doc].expected;
    status[i] = reports[i] == expected_report ? 1 : 3;
  };

  const double steal0 = host_steal_s();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last = t0;
  for (int d = 0; d < depth; ++d)
    for (std::size_t c = 0; c < sockets.size(); ++c) send(c, t0);
  std::vector<pollfd> fds;
  for (const util::Socket& s : sockets) fds.push_back({s.fd(), POLLIN, 0});
  std::size_t open = fds.size();
  // A phase ends when every request is answered, every connection is torn,
  // or nothing arrives for 5 s; what is unanswered then counts as dropped.
  while (answered < n && open > 0) {
    const int ready = ::poll(fds.data(), fds.size(), spin ? 0 : 100);
    if (ready <= 0) {
      if (Clock::now() - last > std::chrono::seconds(5)) break;
      continue;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].fd < 0 || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::optional<std::string> frame;
      try {
        frame = util::read_frame(sockets[c]);
      } catch (const std::exception&) {
        // Torn connection: its unanswered requests count as dropped.
      }
      if (!frame.has_value()) {
        fds[c].fd = -1;
        --open;
        continue;
      }
      last = Clock::now();
      record(*frame, last);
      send(c, last);
    }
  }
  for (util::Socket& s : sockets) s.close();  // lets the connection threads end
  result.stats = service.stats();
  service.request_shutdown();
  server.stop();

  Digest digest;
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == 0) continue;
    ++result.answered;
    if (status[i] == 2) ++result.errors;
    if (status[i] == 3) ++result.mismatches;
    result.latency_ms.add(latency[i]);
    digest.add(static_cast<std::uint64_t>(i));
    digest.add(reports[i]);
  }
  result.sent = n;  // requests never sent count as dropped
  result.digest = digest.hex();
  result.wall_s = seconds_between(t0, last);
  result.steal = (host_steal_s() - steal0) / seconds_between(t0, Clock::now());
  return result;
}

}  // namespace

Outcome run_serve(const Options& opt) {
  const double scale = opt.tiny() ? 0.1 : 1.0;  // tiny: a tenth of the requests
  const int setups = opt.tiny() ? 2 : 3;
  const auto requests = [&](const Shape& shape) {
    return static_cast<std::size_t>(static_cast<double>(shape.requests) * scale);
  };
  const auto connections = [&](const Shape& shape) {
    return shape.connections > 0 ? shape.connections : opt.threads;
  };
  Outcome out;

  // Set-up: the request sequences, the document pool with its reference
  // reports, and one short phase on a warm-up service. Repeated; the median
  // counts. Every repetition of a shape cycles through kVariants sequences
  // of its own.
  const Shape shapes[] = {kLight, kLoaded, kSaturated};
  std::vector<std::vector<Send>> schedules[3];
  std::vector<Doc> docs, warm;  // warm: per-phase warm-up documents
  std::vector<double> setup_times;
  for (int s = 0; s < setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    std::size_t fresh = 0;
    for (int k = 0; k < 3; ++k) {
      schedules[k].clear();
      for (std::uint64_t v = 0; v < kVariants; ++v) {
        schedules[k].push_back(make_schedule(opt.seed, 1 + k + 10 * v, requests(shapes[k])));
        fresh = std::max(fresh, fresh_needed(schedules[k].back()));
      }
    }
    docs = build_docs(opt.seed, "d", fresh, opt.threads);
    warm = build_docs(opt.seed + 0x5eed0000, "w", static_cast<std::size_t>(opt.threads),
                      opt.threads);
    const std::vector<Send> first(schedules[0][0].begin(), schedules[0][0].begin() + 8);
    const PhaseResult w = run_phase(docs, warm, first, 1, 1, false, nullptr);
    if (s == 0) {
      out.attempted += w.sent;
      out.failed += w.failed();
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  std::size_t text_bytes = 0;
  for (const Doc& d : docs) text_bytes += d.taskset_json.size();
  out.note("document pool: " + std::to_string(docs.size() / 2) +
           " fresh documents and their mutants, " +
           std::to_string(docs.empty() ? 0 : text_bytes / docs.size()) + " bytes each");

  std::string corrupted;
  const std::string* corrupt = nullptr;
  if (opt.corrupt == "serve") {
    corrupted = docs[schedules[1][0][0].doc].expected;
    corrupted[corrupted.size() / 2] ^= 1;
    corrupt = &corrupted;
  }
  const auto measure = [&](int k, std::size_t rep, const std::string* corrupt_ref) {
    const Shape& shape = shapes[k];
    PhaseResult r = run_phase(docs, warm, schedules[k][rep % kVariants], connections(shape),
                              shape.depth, shape.spin, corrupt_ref);
    ++out.runs;
    out.attempted += r.sent;
    out.failed += r.failed();
    return r;
  };

  if (!opt.trace) {
    // Cycles of a light, a loaded and a saturated phase until the window is
    // used (at least one cycle; none that would overrun it).
    std::vector<PhaseResult> phases[3];
    const Clock::time_point start = Clock::now();
    double cycle_s = 0.0;
    for (std::size_t rep = 0;
         rep == 0 || seconds_between(start, Clock::now()) + cycle_s <= opt.seconds; ++rep) {
      const Clock::time_point c0 = Clock::now();
      for (int k = 0; k < 3; ++k)
        phases[k].push_back(measure(k, rep, k == 1 && rep == 0 ? corrupt : nullptr));
      if (rep == 0) out.digest = phases[1][0].digest;
      cycle_s = seconds_between(c0, Clock::now());
    }
    // Each shape's metrics come from its quiet phases (see quiet_cut):
    // light_p99_ms as the p99 of their pooled samples (light phases are
    // short, so that quiet ones can be picked out of a busy spell), the
    // other percentiles as the median over those phases, rates as
    // answered-correct requests over their summed time.
    const auto kept = [&](int k) {
      std::vector<double> steals;
      for (const PhaseResult& r : phases[k]) steals.push_back(r.steal);
      const double cut = quiet_cut(steals);
      std::vector<const PhaseResult*> out_phases;
      for (const PhaseResult& r : phases[k])
        if (r.steal <= cut) out_phases.push_back(&r);
      return out_phases;
    };
    Samples light_ms, loaded_p50, loaded_p99, late_p99, saturated_p99;
    std::size_t light_phases = 0, loaded_n = 0, loaded_beyond = 0;
    double loaded_ok = 0.0, loaded_s = 0.0, saturated_ok = 0.0, saturated_s = 0.0;
    for (const PhaseResult* r : kept(0)) {
      light_ms.append(r->with_failures());
      ++light_phases;
    }
    for (const PhaseResult* r : kept(1)) {
      const Samples l = r->with_failures();
      loaded_p50.add(l.median());
      loaded_p99.add(l.percentile(99.0));
      loaded_n = l.size();
      loaded_beyond = l.beyond(99.0);
      late_p99.add(r->late_ms.percentile(99.0));
      loaded_ok += static_cast<double>(r->correct());
      loaded_s += r->wall_s;
    }
    for (const PhaseResult* r : kept(2)) {
      saturated_p99.add(r->with_failures().percentile(99.0));
      saturated_ok += static_cast<double>(r->correct());
      saturated_s += r->wall_s;
    }
    std::string per_cycle;
    for (std::size_t rep = 0; rep < phases[0].size(); ++rep) {
      char line[160];
      std::snprintf(line, sizeof line, " [%.2f ms %.3f, %.0f/s %.3f, %.0f/s %.3f]",
                    phases[0][rep].with_failures().percentile(99.0), phases[0][rep].steal,
                    phases[1][rep].rate(), phases[1][rep].steal, phases[2][rep].rate(),
                    phases[2][rep].steal);
      per_cycle += line;
    }
    const std::string cycles = " of " + std::to_string(phases[0].size()) + " phases";
    out.note("light: " + std::to_string(light_phases) + cycles + ", 1 in flight, " +
             std::to_string(light_ms.size()) + " samples (" +
             std::to_string(light_ms.beyond(99.0)) + " beyond p99)");
    out.note("loaded: " + std::to_string(loaded_p99.size()) + cycles + " of " +
             std::to_string(loaded_n) + " requests, " +
             std::to_string(connections(kLoaded) * kLoaded.depth) + " in flight (" +
             std::to_string(loaded_beyond) + " beyond p99 each), generator late p99 " +
             std::to_string(late_p99.median()) + " ms");
    out.note("saturated: " + std::to_string(saturated_p99.size()) + cycles + ", " +
             std::to_string(connections(kSaturated) * kSaturated.depth) + " in flight, p99 " +
             std::to_string(saturated_p99.median()) + " ms (limit " + std::to_string(kLimitMs) +
             " ms)");
    out.note("per cycle [light p99, steal CPUs; loaded rate, steal; saturated rate, steal]:" +
             per_cycle);
    add_end_to_end(out, median_of(setup_times), loaded_s > 0 ? loaded_ok / loaded_s : 0.0,
                   loaded_p50.median(), loaded_p99.median(), light_ms.percentile(99.0),
                   saturated_s > 0 ? saturated_ok / saturated_s : 0.0);
    return out;
  }

  // Traced run. First the loaded phase over TCP, untraced, for the
  // service's own counters and the generator's lateness.
  const std::vector<Send>& schedule = schedules[1][0];
  const PhaseResult h = measure(1, 0, corrupt);
  out.digest = h.digest;
  const serve::ServiceStats& st = h.stats;
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const std::uint64_t served = st.completed + st.errors;
  out.add("serve.memo_hit_ratio", ratio(st.memo_hits, served), "ratio");
  out.add("serve.fast_hit_ratio", ratio(st.fast_hits, served), "ratio");
  out.add("serve.incremental_ratio", ratio(st.incremental, served), "ratio");
  out.add("serve.cold_ratio", ratio(st.cold, served), "ratio");
  // Fast-memo hits are answered before dispatch; everything else is batched.
  out.add("serve.mean_batch", ratio(st.completed - st.fast_hits, st.batches), "count");
  out.add("loadgen.late_p99_ms", h.late_ms.percentile(99.0), "ms");

  // Then the first requests of the same schedule in process, one at a
  // time: a warm-up pass, a timed untraced pass, and a pass with a span
  // around every layer call.
  const std::size_t count = std::min<std::size_t>(schedule.size(), opt.tiny() ? 40 : 400);
  // Each pass returns the time spent in the request region (what the
  // traced pass covers with its serve.request spans).
  const auto pass = [&](bool traced) {
    serve::AdmissionService service(serve::ServiceConfig{});
    trace::set_enabled(traced);
    double request_s = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const Doc& doc = docs[schedule[i].doc];
      const std::string body = request_body(i, doc);
      std::string response;
      const Clock::time_point t0 = Clock::now();
      {
        trace::Scope root("serve.request", i);
        serve::Request request;
        {
          trace::Scope span("serve.decode", i);
          request = serve::decode_request(util::parse_json(body));
        }
        const char* name = schedule[i].kind == Kind::kFresh    ? "serve.submit_fresh"
                           : schedule[i].kind == Kind::kRepeat ? "serve.submit_repeat"
                                                               : "serve.submit_mutant";
        trace::Scope span(name, i);
        // Shared, so the promise outlives a callback still returning.
        auto answer = std::make_shared<std::promise<std::string>>();
        std::future<std::string> answered = answer->get_future();
        service.submit(std::move(request),
                       [answer](const std::string& r) { answer->set_value(r); });
        response = answered.get();
      }
      request_s += seconds_between(t0, Clock::now());
      ++out.attempted;
      if (serve::extract_member(response, "report") + '\n' != doc.expected) ++out.failed;
      if (!traced) continue;
      // The layers a fresh request pays for, called one by one.
      const std::string text = text_of(doc);
      trace::Scope root("serve.layers", i);
      std::optional<model::TaskSet> ts;
      {
        trace::Scope span("model.read", i);
        std::istringstream in(text);
        ts.emplace(model::read_task_set(in));
      }
      {
        trace::Scope span("lint.read_raw", i);
        std::istringstream in(text);
        (void)lint::read_raw_task_set(in);
      }
      {
        trace::Scope span("model.write", i);
        std::ostringstream os;
        model::write_task_set(os, *ts);
      }
      analysis::RtaContext ctx(*ts);
      analysis::Report report;
      {
        trace::Scope span("analysis.analyze", i);
        report = analysis::get_analyzer("global-limited").analyze(*ts, ctx, {});
      }
      trace::Scope span("lint.render_json", i);
      (void)lint::render_json(report, *ts);
    }
    trace::set_enabled(false);
    return request_s;
  };
  (void)pass(false);
  const double untraced_s = pass(false);
  const double traced_s = pass(true);
  const std::vector<trace::Span> spans = trace::collect();
  const auto calls = trace::by_name(spans);
  const auto p50 = [&](const char* name) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.median();
  };
  out.add("model.read_ms", p50("model.read"), "ms");
  out.add("lint.read_raw_ms", p50("lint.read_raw"), "ms");
  out.add("lint.render_json_ms", p50("lint.render_json"), "ms");
  out.add("model.write_ms", p50("model.write"), "ms");
  out.add("analysis.analyze_ms", p50("analysis.analyze"), "ms");
  out.add("serve.decode_ms", p50("serve.decode"), "ms");
  out.add("serve.submit_fresh_ms", p50("serve.submit_fresh"), "ms");
  out.add("serve.submit_repeat_ms", p50("serve.submit_repeat"), "ms");
  out.add("serve.submit_mutant_ms", p50("serve.submit_mutant"), "ms");
  out.add("unattributed_share", trace::unattributed_share(spans, "serve.request"), "ratio");
  out.add("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");

  // Loopback round trip of a stats request on an idle service.
  {
    serve::AdmissionService service(serve::ServiceConfig{});
    serve::TcpServer server(service, "127.0.0.1", 0);
    server.start();
    util::Socket socket = util::tcp_connect("127.0.0.1", server.port());
    Samples rtt;
    for (int i = 0; i < (opt.tiny() ? 20 : 400); ++i) {
      const Clock::time_point t0 = Clock::now();
      util::write_frame(socket, "{\"cmd\":\"stats\"}");
      if (!util::read_frame(socket).has_value()) throw std::runtime_error("stats: no reply");
      rtt.add(ms_between(t0, Clock::now()));
    }
    socket.close();
    service.request_shutdown();
    server.stop();
    out.add("util.rtt_ms", rtt.median(), "ms");
  }
  out.note("traced: " + std::to_string(spans.size()) + " spans over " + std::to_string(count) +
           " in-process requests; loaded phase " + std::to_string(h.sent) + " requests");
  if (!opt.spans_path.empty() && !trace::write_json(spans, opt.spans_path))
    throw std::runtime_error("cannot write spans to " + opt.spans_path);
  return out;
}

}  // namespace perfbench
