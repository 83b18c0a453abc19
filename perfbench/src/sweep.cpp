// Workload "sweep": the four canonical Figure-2 points of bench/perf_sweep
// (l_max = 4 global and partitioned with the baseline filter on, m = 8
// global and partitioned) evaluated through exp::ExperimentEngine with one
// engine thread per core and a small certificate sample. One operation is
// one accepted trial; one batch is one evaluate_point call of kTrials
// trials, rotating over the four points with a per-batch seed.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/cert_check.h"
#include "analysis/rta_context.h"
#include "bench.h"
#include "exp/schedulability.h"
#include "gen/taskset_generator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rtpool;

struct Point {
  const char* name;
  exp::AnalyzerPair pair;
  exp::PointConfig config;
  std::uint64_t salt;
};

exp::AnalyzerPair pair_of(const char* baseline, const char* proposed) {
  return {&analysis::get_analyzer(baseline), &analysis::get_analyzer(proposed)};
}

std::vector<Point> canonical_points(int trials, int certify_sample) {
  std::vector<Point> points;
  exp::PointConfig lmax;
  lmax.gen.cores = 8;
  lmax.gen.task_count = 6;
  lmax.gen.nfj.min_branches = 3;
  lmax.gen.nfj.max_branches = 5;
  lmax.gen.blocking_window = gen::BlockingWindow{4, 4};
  lmax.filter_baseline = true;
  lmax.trials = trials;
  lmax.max_attempts = trials * 400;
  lmax.certify_sample = certify_sample;
  lmax.gen.total_utilization = 0.45 * 8.0;
  points.push_back({"lmax4_global", pair_of("global-baseline", "global-limited"),
                    lmax, 1000003});
  lmax.gen.total_utilization = 0.175 * 8.0;
  points.push_back({"lmax4_partitioned",
                    pair_of("partitioned-baseline", "partitioned-proposed"), lmax,
                    2000003});

  exp::PointConfig m8;
  m8.gen.cores = 8;
  m8.gen.task_count = 6;
  m8.gen.nfj.min_branches = 3;
  m8.gen.nfj.max_branches = 5;
  m8.gen.total_utilization = 0.3 * 8.0;
  m8.filter_baseline = false;
  m8.trials = trials;
  m8.max_attempts = trials * 100;
  m8.certify_sample = certify_sample;
  points.push_back({"m8_global", pair_of("global-baseline", "global-limited"), m8,
                    3000017});
  points.push_back({"m8_partitioned",
                    pair_of("partitioned-baseline", "partitioned-proposed"), m8,
                    4000037});
  return points;
}

util::Rng batch_rng(std::uint64_t seed, const Point& p, std::uint64_t batch) {
  return util::Rng((seed * p.salt + 17) ^ (batch * 0x9e3779b97f4a7c15ull));
}

/// A PointResult is correct when it is complete, internally consistent and
/// every sampled certificate passed the independent checker.
bool result_ok(const exp::PointResult& r, int trials) {
  std::size_t base = 0, prop = 0;
  for (const exp::SetVerdict& v : r.verdicts) {
    base += v.baseline ? 1 : 0;
    prop += v.proposed ? 1 : 0;
  }
  return !r.attempts_exhausted && r.accepted == static_cast<std::size_t>(trials) &&
         r.verdicts.size() == r.accepted && base == r.baseline_schedulable &&
         prop == r.proposed_schedulable && r.cert_failures == 0;
}

void digest_result(Digest& d, std::uint64_t batch, const exp::PointResult& r) {
  d.add(batch);
  for (std::size_t v : {r.accepted, r.baseline_schedulable, r.proposed_schedulable,
                        r.discarded, r.generation_errors, r.certified, r.cert_failures})
    d.add(static_cast<std::uint64_t>(v));
  for (const exp::SetVerdict& v : r.verdicts)
    d.add(static_cast<std::uint64_t>((v.baseline ? 1 : 0) | (v.proposed ? 2 : 0)));
}

// Same salt as exp::ExperimentEngine's certificate sampling, so the traced
// replica samples the same sets (the replica's result is compared with the
// engine's, so a drift shows up as a failed operation).
constexpr std::uint64_t kCertifySalt = 0x9e3779b97f4a7c15ULL;

/// Analyze through the layer calls: an explicit partition step for
/// partition-based analyzers, then the analysis itself.
bool traced_analyze(const analysis::Analyzer& a, const model::TaskSet& ts,
                    analysis::RtaContext& ctx, std::uint64_t op,
                    analysis::AnalyzerOptions options, analysis::Report* full) {
  std::optional<analysis::PartitionResult> partition;
  if (a.capabilities().uses_partition) {
    trace::Scope span("analysis.partition", op);
    partition = a.make_partition(ts);
  }
  if (partition.has_value() && partition->success())
    options.partition = &*partition->partition;
  trace::Scope span("analysis.analyze", op);
  analysis::Report report = a.analyze(ts, ctx, options);
  const bool schedulable = report.schedulable;
  if (full != nullptr) *full = std::move(report);
  return schedulable;
}

std::size_t traced_certify(const analysis::Analyzer& a, const model::TaskSet& ts,
                           analysis::RtaContext& ctx, std::uint64_t op) {
  analysis::AnalyzerOptions options;
  options.diagnostics = true;
  analysis::Report report;
  traced_analyze(a, ts, ctx, op, options, &report);
  if (report.certificate == nullptr) return 1;
  trace::Scope span("analysis.cert_check", op);
  return analysis::cert::check_certificate(ts, *report.certificate).ok() ? 0 : 1;
}

struct TracedOutcome {
  bool generated = false;
  exp::SetVerdict verdict;
  bool certified = false;
  std::size_t cert_failures = 0;
};

/// exp::ExperimentEngine::evaluate_point rebuilt from public calls, with a
/// span around each layer call. Runs on the same engine (run_attempts), so
/// attempt seeding and commit order are the engine's own.
exp::PointResult traced_point(exp::ExperimentEngine& engine, const Point& p,
                              const util::Rng& rng, std::uint64_t op_base) {
  const exp::PointConfig& config = p.config;
  exp::PointResult result;
  const exp::AttemptLoopStats stats = engine.run_attempts(
      static_cast<std::size_t>(config.trials),
      static_cast<std::size_t>(config.max_attempts), rng,
      [&](std::size_t attempt, util::Rng& arng) {
        const std::uint64_t op = op_base + attempt;
        trace::Scope trial("sweep.trial", op);
        TracedOutcome out;
        std::optional<model::TaskSet> ts;
        try {
          trace::Scope span("gen.generate_task_set", op);
          ts.emplace(gen::generate_task_set(config.gen, arng));
        } catch (const gen::GenerationError&) {
          return out;
        }
        out.generated = true;
        thread_local std::optional<analysis::RtaContext> tls_ctx;
        {
          trace::Scope span("analysis.context_reset", op);
          if (!tls_ctx.has_value()) tls_ctx.emplace(*ts);
          else tls_ctx->reset(*ts);
        }
        analysis::RtaContext& ctx = *tls_ctx;
        out.verdict.baseline = traced_analyze(*p.pair.baseline, *ts, ctx, op, {}, nullptr);
        const bool discarded = config.filter_baseline && !out.verdict.baseline;
        if (!discarded)
          out.verdict.proposed = traced_analyze(*p.pair.proposed, *ts, ctx, op, {}, nullptr);
        if (!discarded && config.certify_sample > 0) {
          const double share = std::min(1.0, static_cast<double>(config.certify_sample) /
                                                  static_cast<double>(config.trials));
          util::Rng crng = arng.fork_with(kCertifySalt);
          if (crng.bernoulli(share)) {
            out.certified = true;
            out.cert_failures = traced_certify(*p.pair.baseline, *ts, ctx, op) +
                                traced_certify(*p.pair.proposed, *ts, ctx, op);
          }
        }
        return out;
      },
      [&](std::size_t, TracedOutcome& out) {
        if (!out.generated) {
          ++result.generation_errors;
          return false;
        }
        if (config.filter_baseline && !out.verdict.baseline) {
          ++result.discarded;
          return false;
        }
        ++result.accepted;
        if (out.verdict.baseline) ++result.baseline_schedulable;
        if (out.verdict.proposed) ++result.proposed_schedulable;
        if (out.certified) {
          ++result.certified;
          result.cert_failures += out.cert_failures;
        }
        result.verdicts.push_back(out.verdict);
        return true;
      });
  result.attempts_exhausted = stats.exhausted;
  return result;
}

}  // namespace

Outcome run_sweep(const Options& opt) {
  const int trials = opt.tiny() ? 10 : 100;
  const int certify_sample = opt.tiny() ? 2 : 4;
  const int reference_trials = opt.tiny() ? 5 : 20;
  const int setups = opt.tiny() ? 2 : 7;
  const std::uint64_t digest_batches = 8;
  const std::size_t kTracedBatches = 100;
  Outcome out;

  // Set-up: points, the engine (its worker pool), and the reference
  // outputs — a short run of every point on one thread and on the full
  // engine, which must agree (the engine's thread-count invariance) —
  // which also warms the per-thread contexts. Repeated; the median counts.
  std::vector<double> setup_times;
  std::optional<exp::ExperimentEngine> engine;
  std::vector<Point> points;
  for (int s = 0; s < setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    engine.reset();
    engine.emplace(opt.threads);
    points = canonical_points(reference_trials, certify_sample);
    exp::ExperimentEngine single(1);
    for (const Point& p : points) {
      const util::Rng rng = batch_rng(opt.seed, p, ~0ull);
      const exp::PointResult ref = single.evaluate_point(p.pair, p.config, rng);
      const exp::PointResult got = engine->evaluate_point(p.pair, p.config, rng);
      if (s == 0) {
        ++out.attempted;
        if (!(ref == got) || !result_ok(got, reference_trials)) ++out.failed;
      }
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  points = canonical_points(trials, certify_sample);

  // Timed: batches until the measuring window is used up.
  const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  // The metrics come from the quiet one-second slices (see quiet_cut).
  Slices slices(1.0);
  std::vector<exp::PointResult> results;
  Digest digest;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t b = 0; seconds_between(start, Clock::now()) < window; ++b) {
    const Point& p = points[b % points.size()];
    const util::Rng rng = batch_rng(opt.seed, p, b);
    const Clock::time_point t0 = Clock::now();
    exp::PointResult r = engine->evaluate_point(p.pair, p.config, rng);
    const Clock::time_point t1 = Clock::now();
    Slices::Slice& slice = slices.current();
    slice.latency_ms.add(ms_between(t0, t1));
    slice.busy_s += seconds_between(t0, t1);
    slice.ops += static_cast<double>(r.accepted);
    slices.tick();
    out.attempted += static_cast<std::uint64_t>(trials);
    // A wrong point result fails every trial of its batch.
    if (!result_ok(r, trials)) out.failed += static_cast<std::uint64_t>(trials);
    if (b < digest_batches) digest_result(digest, b, r);
    results.push_back(std::move(r));
  }
  slices.finish();
  out.runs = results.size();
  out.digest = digest.hex() + (results.size() < digest_batches ? " (partial)" : "");
  out.note("batches: " + std::to_string(results.size()) + " of " +
           std::to_string(trials) + " trials, " + std::to_string(opt.threads) +
           " engine threads; " + slices.summary());

  if (!opt.trace) {
    const Slices::Slice quiet = slices.quiet();
    add_closed_loop(out, median_of(setup_times), quiet.ops / quiet.busy_s, quiet.latency_ms);
    return out;
  }

  // Traced replay of the first batches (enough for per-call percentiles;
  // a replay of all of them would hold about a million spans).
  // The overhead compares them with an untraced run of the same batches
  // just before, so that neither side pays the first batches' warm-up.
  const std::size_t replayed = std::min<std::size_t>(results.size(), kTracedBatches);
  double traced_s = 0.0, untraced_s = 0.0;
  for (std::uint64_t b = 0; b < replayed; ++b) {
    const Point& p = points[b % points.size()];
    const Clock::time_point t0 = Clock::now();
    (void)engine->evaluate_point(p.pair, p.config, batch_rng(opt.seed, p, b));
    untraced_s += seconds_between(t0, Clock::now());
  }
  std::size_t lmax_attempts = 0, lmax_discarded = 0, attempts = 0, errors = 0;
  trace::set_enabled(true);
  for (std::uint64_t b = 0; b < replayed; ++b) {
    const Point& p = points[b % points.size()];
    const Clock::time_point t0 = Clock::now();
    const exp::PointResult r =
        traced_point(*engine, p, batch_rng(opt.seed, p, b), b * 1000000);
    traced_s += seconds_between(t0, Clock::now());
    ++out.attempted;
    if (!(r == results[b])) ++out.failed;
    const std::size_t used = r.accepted + r.discarded + r.generation_errors;
    attempts += used;
    errors += r.generation_errors;
    if (p.config.filter_baseline) {
      lmax_attempts += used;
      lmax_discarded += r.discarded;
    }
  }
  trace::set_enabled(false);
  const std::vector<trace::Span> spans = trace::collect();
  const auto calls = trace::by_name(spans);
  const auto p50 = [&](const char* name) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.median();
  };
  const auto busy = [&](const char* name) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.sum() / 1000.0;
  };
  out.add("gen.set_ms", p50("gen.generate_task_set"), "ms");
  out.add("gen.discard_ratio",
          lmax_attempts ? static_cast<double>(lmax_discarded) / lmax_attempts : 0.0,
          "ratio");
  out.add("gen.error_ratio", attempts ? static_cast<double>(errors) / attempts : 0.0,
          "ratio");
  out.add("analysis.partition_ms", p50("analysis.partition"), "ms");
  out.add("analysis.analyze_ms", p50("analysis.analyze"), "ms");
  out.add("analysis.cert_check_ms", p50("analysis.cert_check"), "ms");
  // Both sides of the efficiency come from the traced replay, so tracing
  // cost inflates neither alone.
  out.add("exp.parallel_efficiency", busy("sweep.trial") / (opt.threads * traced_s), "ratio");
  out.add("unattributed_share", trace::unattributed_share(spans, "sweep.trial"), "ratio");
  out.add("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
  out.note("traced: " + std::to_string(replayed) + " batches, " +
           std::to_string(spans.size()) + " spans; gen busy " +
           std::to_string(busy("gen.generate_task_set")) + " s, analysis busy " +
           std::to_string(busy("analysis.analyze") + busy("analysis.partition") +
                          busy("analysis.cert_check")) + " s, trial busy " +
           std::to_string(busy("sweep.trial")) + " s");
  if (!opt.spans_path.empty() && !trace::write_json(spans, opt.spans_path))
    throw std::runtime_error("cannot write spans to " + opt.spans_path);
  return out;
}

}  // namespace perfbench
