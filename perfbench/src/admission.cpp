// Workload "admission": exec::ModeChangeController (global-limited) with an
// attached exec::ThreadPool of one worker per core, driven by one
// closed-loop caller through many seeded exp::make_elastic_scenario streams
// of moderate length, each replayed on a fresh controller and pool. One
// operation is one admit/evict/resize decision. Many short streams rather
// than one long one: in a long stream admits stop fitting after a few dozen
// tasks and evictions then target names that were never admitted, so the
// mix degenerates into cheap rejections.
//
// Outside the timed calls every analyzed proposal is re-analyzed cold and
// must equal the controller's (incremental/warm) verdict by value, and each
// replay's render_log_json(false) must equal the stream's reference log,
// recorded by a replay in set-up.
#include <optional>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "bench.h"
#include "exec/mode_change.h"
#include "exec/thread_pool.h"
#include "exp/elastic_scenarios.h"

namespace perfbench {
namespace {

using namespace rtpool;

const char* span_name(exec::ModeRequestKind kind) {
  switch (kind) {
    case exec::ModeRequestKind::kAdmit: return "exec.admit";
    case exec::ModeRequestKind::kEvict: return "exec.evict";
    case exec::ModeRequestKind::kResize: return "exec.resize";
  }
  return "exec.unknown";
}

exec::ModeTransition decide(exec::ModeChangeController& controller,
                            const exp::ElasticRequest& req) {
  switch (req.kind) {
    case exec::ModeRequestKind::kAdmit: return controller.admit(*req.task);
    case exec::ModeRequestKind::kEvict: return controller.evict(req.evict_name);
    case exec::ModeRequestKind::kResize: return controller.resize(req.new_workers);
  }
  throw std::logic_error("unknown request kind");
}

/// Totals of one or more replays.
struct ReplayStats {
  Samples decision_ms;
  std::uint64_t decisions = 0, comparable = 0, mismatches = 0;
  std::uint64_t committed = 0, admits = 0, warm_seeded = 0;
  std::uint64_t incremental_hits = 0, analyzed_tasks = 0;
  double comparable_decision_ms = 0.0;
  double decision_total_ms = 0.0;

  void add(const ReplayStats& o) {
    decision_ms.append(o.decision_ms);
    decisions += o.decisions;
    comparable += o.comparable;
    mismatches += o.mismatches;
    committed += o.committed;
    admits += o.admits;
    warm_seeded += o.warm_seeded;
    incremental_hits += o.incremental_hits;
    analyzed_tasks += o.analyzed_tasks;
    comparable_decision_ms += o.comparable_decision_ms;
    decision_total_ms += o.decision_total_ms;
  }
};

/// Replay one stream on a fresh pool + controller. With `traced`, every
/// call gets a span (op ids from `op_base`). `corrupt` flips the first cold
/// verdict (self-test: must count as a mismatch).
std::string replay(const std::vector<exp::ElasticRequest>& stream, int threads,
                   ReplayStats& stats, bool traced, std::uint64_t op_base,
                   bool corrupt) {
  exec::ModeChangeConfig config;
  config.analyzer = "global-limited";
  exec::ThreadPool pool(static_cast<std::size_t>(threads));
  exec::ModeChangeController controller(config, &pool);
  const analysis::Analyzer& analyzer = analysis::get_analyzer(config.analyzer);

  for (std::size_t step = 0; step < stream.size(); ++step) {
    const exp::ElasticRequest& req = stream[step];
    const std::uint64_t op = op_base + step;
    std::optional<trace::Scope> step_span;
    if (traced) step_span.emplace("admission.step", op);

    const Clock::time_point t0 = Clock::now();
    std::optional<exec::ModeTransition> tr;
    {
      trace::Scope span(span_name(req.kind), op);
      tr.emplace(decide(controller, req));
    }
    const double ms = ms_between(t0, Clock::now());
    stats.decision_ms.add(ms);
    stats.decision_total_ms += ms;
    ++stats.decisions;
    if (tr->committed) ++stats.committed;
    if (req.kind == exec::ModeRequestKind::kAdmit) {
      ++stats.admits;
      if (tr->warm_seeded) ++stats.warm_seeded;
    }

    // Out of band: the independent cold verdict must equal the controller's.
    if (tr->proposed != nullptr && !tr->report.analyzer.empty()) {
      analysis::Report cold;
      {
        trace::Scope span("exec.cold_analyze", op);
        cold = controller.cold_analyze(*tr->proposed);
      }
      if (traced) {
        analysis::RtaContext ctx(*tr->proposed);
        trace::Scope span("analysis.analyze", op);
        (void)analyzer.analyze(*tr->proposed, ctx);
      }
      if (corrupt && stats.comparable == 0) cold.schedulable = !cold.schedulable;
      ++stats.comparable;
      stats.comparable_decision_ms += ms;
      stats.incremental_hits += tr->incremental_hits;
      stats.analyzed_tasks += tr->proposed->tasks().size();
      if (!(cold == tr->report)) ++stats.mismatches;
    }
  }
  return controller.render_log_json(/*include_timings=*/false);
}

}  // namespace

Outcome run_admission(const Options& opt) {
  const std::size_t stream_count = opt.tiny() ? 3 : 128;
  exp::ElasticScenarioParams params;
  params.steps = opt.tiny() ? 10 : 50;
  const int setups = opt.tiny() ? 2 : 5;
  const std::uint64_t kTracedReplays = 2 * stream_count;
  Outcome out;

  // Set-up: generate the streams and replay each once for its reference
  // transition log (which also warms up). Repeated; the median counts.
  std::vector<std::vector<exp::ElasticRequest>> streams;
  std::vector<std::string> reference_logs;
  std::vector<double> setup_times;
  for (int s = 0; s < setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    streams.clear();
    reference_logs.clear();
    ReplayStats reference;
    for (std::size_t i = 0; i < stream_count; ++i) {
      streams.push_back(exp::make_elastic_scenario(params, opt.seed * 7000003 + i));
      reference_logs.push_back(replay(streams[i], opt.threads, reference, false, 0, false));
    }
    if (s == 0) {
      out.attempted += reference.decisions;
      out.failed += reference.mismatches;
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  Digest digest;
  for (const std::string& log : reference_logs) digest.add(log);
  out.digest = digest.hex();

  // Timed: replays cycling over the streams until the window is used up;
  // each log must equal its stream's reference.
  const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  // The metrics come from the quiet one-second slices (see quiet_cut).
  ReplayStats stats;
  Slices slices(1.0);
  std::uint64_t replays = 0, log_mismatches = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < window) {
    const std::size_t i = replays % stream_count;
    const bool corrupt = opt.corrupt == "admission" && replays == 0;
    ReplayStats one;
    if (replay(streams[i], opt.threads, one, false, 0, corrupt) != reference_logs[i])
      ++log_mismatches;
    ++replays;
    Slices::Slice& slice = slices.current();
    slice.latency_ms.append(one.decision_ms);
    slice.ops += static_cast<double>(one.decisions);
    slice.busy_s += one.decision_ms.sum() / 1000.0;
    slices.tick();
    one.decision_ms = Samples{};  // kept once, in the slice
    stats.add(one);
  }
  slices.finish();
  out.runs = replays;
  out.attempted += stats.decisions;
  out.failed += stats.mismatches + log_mismatches;
  out.note("replays: " + std::to_string(replays) + " of " + std::to_string(params.steps) +
           "-step streams (" + std::to_string(stream_count) + " distinct); decisions " +
           std::to_string(stats.decisions) + ", committed " +
           std::to_string(stats.committed) + ", cold-checked " +
           std::to_string(stats.comparable) + "; " + slices.summary());

  if (!opt.trace) {
    const Slices::Slice quiet = slices.quiet();
    add_closed_loop(out, median_of(setup_times), quiet.ops / quiet.busy_s, quiet.latency_ms);
    return out;
  }

  // Traced replay of the first replays (two passes over the streams),
  // after an untraced run of the same replays for the overhead, so that
  // neither side pays the first replays' warm-up.
  const std::uint64_t replayed = std::min(replays, kTracedReplays);
  ReplayStats untraced;
  for (std::uint64_t r = 0; r < replayed; ++r)
    (void)replay(streams[r % stream_count], opt.threads, untraced, false, 0, false);
  trace::set_enabled(true);
  ReplayStats traced;
  for (std::uint64_t r = 0; r < replayed; ++r) {
    const std::size_t i = r % stream_count;
    const std::string log = replay(streams[i], opt.threads, traced, true, r * 1000, false);
    ++out.attempted;
    if (log != reference_logs[i]) ++out.failed;
  }
  trace::set_enabled(false);
  const std::vector<trace::Span> spans = trace::collect();
  const auto calls = trace::by_name(spans);
  const auto p50 = [&](const char* name) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.median();
  };
  const auto busy_ms = [&](const char* name) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.sum();
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  out.add("analysis.analyze_ms", p50("analysis.analyze"), "ms");
  out.add("exec.admit_ms", p50("exec.admit"), "ms");
  out.add("exec.evict_ms", p50("exec.evict"), "ms");
  out.add("exec.resize_ms", p50("exec.resize"), "ms");
  out.add("exec.cold_analyze_ms", p50("exec.cold_analyze"), "ms");
  out.add("exec.controller_share",
          traced.comparable_decision_ms > 0
              ? 1.0 - busy_ms("exec.cold_analyze") / traced.comparable_decision_ms
              : 0.0,
          "ratio");
  out.add("exec.incremental_hit_ratio", ratio(traced.incremental_hits, traced.analyzed_tasks),
          "ratio");
  out.add("exec.warm_seeded_ratio", ratio(traced.warm_seeded, traced.admits), "ratio");
  out.add("exec.committed_ratio", ratio(traced.committed, traced.decisions), "ratio");
  out.add("unattributed_share", trace::unattributed_share(spans, "admission.step"), "ratio");
  out.add("trace.overhead_ratio",
          traced.decision_total_ms / untraced.decision_total_ms - 1.0, "ratio");
  out.note("traced: " + std::to_string(spans.size()) + " spans over " +
           std::to_string(traced.decisions) + " decisions");
  if (!opt.spans_path.empty() && !trace::write_json(spans, opt.spans_path))
    throw std::runtime_error("cannot write spans to " + opt.spans_path);
  return out;
}

}  // namespace perfbench
