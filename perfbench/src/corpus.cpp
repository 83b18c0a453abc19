// Workload "corpus": corpus::CorpusRunner at the CI shape (m = 4, three
// oracle windows) with the default analyzer specs, scenario space and shard
// count, one engine thread per core, no checkpoint and no witness
// directory. One operation is one generated set; one batch is one
// CorpusRunner run over the whole fixed seed range [0, 256) of root seed 1,
// repeated until the measuring window is used up (at least once).
//
// The range is fixed, not drawn from --seed: per-set cost is so heavy-tailed
// (see perfbench/README.md: median a few ms, single sets of 3-8 s) that the
// throughput of a seed-drawn range of the size one run covers varies
// several-fold from seed to seed. A fixed range keeps the tail in the
// measurement and the runs comparable.
#include <array>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "bench.h"
#include "corpus/corpus.h"
#include "exp/sharded_runner.h"
#include "gen/scenario_space.h"
#include "gen/taskset_generator.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rtpool;

corpus::CorpusConfig range_config(std::uint64_t sets) {
  corpus::CorpusConfig config;
  config.seed_begin = 0;
  config.seed_end = sets;
  config.root_seed = 1;
  config.cores = 4;
  config.windows = 3.0;
  return config;
}

std::string gap_csv(const corpus::CorpusResult& result, const Options& opt) {
  const std::string path = opt.scratch_dir + "/corpus_gap.csv";
  corpus::write_gap_csv(path, result);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in) throw std::runtime_error("cannot read back " + path);
  return bytes.str();
}

/// The per-analyzer counts the traced replica recomputes.
struct Tally {
  std::uint64_t sets = 0, generation_errors = 0;
  std::vector<std::array<std::uint64_t, 8>> per_analyzer;
};

std::array<std::uint64_t, 8> counts_of(const corpus::AnalyzerStats& s) {
  return {s.sets, s.analysis_schedulable, s.partition_failures, s.sim_checked,
          s.sim_safe, s.sim_deadline_miss, s.sim_deadlock, s.optimistic};
}

bool same_counts(const corpus::CorpusResult& r, const Tally& t) {
  if (r.sets != t.sets || r.generation_errors != t.generation_errors ||
      r.per_analyzer.size() != t.per_analyzer.size())
    return false;
  for (std::size_t i = 0; i < r.per_analyzer.size(); ++i)
    if (counts_of(r.per_analyzer[i]) != t.per_analyzer[i]) return false;
  return true;
}

struct SetOutcome {
  bool generated = false;
  // Per analyzer: partition failure, schedulable, sim checked, outcome.
  std::vector<std::array<int, 4>> per_analyzer;
};

/// CorpusRunner's per-set pipeline rebuilt from public calls, with a span
/// around each layer call, on the same sharded runner and seed streams.
Tally traced_range(exp::ShardedRunner& runner, const corpus::CorpusConfig& config,
                   const std::vector<corpus::AnalyzerSpec>& specs,
                   const gen::ScenarioSpace& space) {
  Tally tally;
  tally.per_analyzer.assign(specs.size(), {});
  const auto eval = [&](std::uint64_t seed, util::Rng& srng) {
    trace::Scope set_span("corpus.set", seed);
    SetOutcome out;
    std::optional<model::TaskSet> ts;
    try {
      trace::Scope span("gen.scenario_make", seed);
      ts.emplace(space.pick(seed).make(config.cores, srng));
    } catch (const gen::GenerationError&) {
      return out;
    }
    out.generated = true;
    thread_local std::optional<analysis::RtaContext> tls_ctx;
    {
      trace::Scope span("analysis.context_reset", seed);
      if (!tls_ctx.has_value()) tls_ctx.emplace(*ts);
      else tls_ctx->reset(*ts);
    }
    std::optional<sim::SimVerdict> global_verdict;
    for (const corpus::AnalyzerSpec& spec : specs) {
      const analysis::Analyzer& analyzer = analysis::get_analyzer(spec.name);
      std::array<int, 4> pa{0, 0, 0, 0};
      analysis::PartitionResult partition;
      analysis::AnalyzerOptions options;
      if (analyzer.capabilities().uses_partition) {
        {
          trace::Scope span("analysis.partition", seed);
          partition = analyzer.make_partition(*ts);
        }
        if (!partition.success()) {
          pa[0] = 1;
          out.per_analyzer.push_back(pa);
          continue;
        }
        options.partition = &*partition.partition;
      }
      bool schedulable = false;
      {
        trace::Scope span("analysis.analyze", seed);
        schedulable = analyzer.analyze(*ts, *tls_ctx, options).schedulable;
      }
      pa[1] = schedulable ? 1 : 0;
      if (spec.mode != corpus::OracleMode::kNoSim) {
        sim::SimVerdict verdict;
        bool checked = true;
        if (spec.policy == sim::SchedulingPolicy::kGlobal) {
          if (!global_verdict.has_value()) {
            trace::Scope span("sim.oracle_global", seed);
            sim::OracleOptions oracle;
            oracle.policy = sim::SchedulingPolicy::kGlobal;
            oracle.windows = config.windows;
            global_verdict = sim::oracle_verdict(*ts, oracle);
          }
          verdict = *global_verdict;
        } else if (partition.success()) {
          trace::Scope span("sim.oracle_partitioned", seed);
          sim::OracleOptions oracle;
          oracle.policy = sim::SchedulingPolicy::kPartitioned;
          oracle.partition = partition.partition;
          oracle.windows = config.windows;
          verdict = sim::oracle_verdict(*ts, oracle);
        } else {
          checked = false;
        }
        if (checked) {
          pa[2] = 1;
          pa[3] = static_cast<int>(verdict.outcome);
        }
      }
      out.per_analyzer.push_back(pa);
    }
    return out;
  };
  const auto fold = [&](std::uint64_t, SetOutcome& out) {
    if (!out.generated) {
      ++tally.generation_errors;
      return;
    }
    ++tally.sets;
    for (std::size_t i = 0; i < out.per_analyzer.size(); ++i) {
      const std::array<int, 4>& pa = out.per_analyzer[i];
      std::array<std::uint64_t, 8>& t = tally.per_analyzer[i];
      ++t[0];
      if (pa[0]) {
        ++t[2];
        continue;
      }
      if (pa[1]) ++t[1];
      if (!pa[2]) continue;
      ++t[3];
      const auto outcome = static_cast<sim::SimOutcome>(pa[3]);
      if (outcome == sim::SimOutcome::kOk) ++t[4];
      if (outcome == sim::SimOutcome::kDeadlineMiss) ++t[5];
      if (outcome == sim::SimOutcome::kDeadlock) ++t[6];
      if (pa[1] && outcome != sim::SimOutcome::kOk) ++t[7];
    }
  };
  exp::RangeOptions range;
  range.range = {config.seed_begin, config.seed_end};
  range.shards = config.shards;
  runner.run_range(range, util::Rng(config.root_seed), eval, fold,
                   [] { return std::string(); }, [](const std::string&) {});
  return tally;
}

}  // namespace

Outcome run_corpus(const Options& opt) {
  const std::uint64_t sets_per_run = opt.tiny() ? 8 : 256;
  const std::uint64_t reference_sets = opt.tiny() ? 4 : 12;
  const int setups = opt.tiny() ? 2 : 5;
  const corpus::CorpusConfig config = range_config(sets_per_run);
  const corpus::CorpusConfig ref = range_config(reference_sets);
  Outcome out;

  // Set-up: the reference outputs, the first seeds of the range on one
  // thread, which also warm the contexts. Repeated; the median counts. One
  // thread, so that the set-up time does not depend on how the heavy-tailed
  // sets fall onto threads.
  std::vector<double> setup_times;
  std::optional<corpus::CorpusResult> one;
  for (int s = 0; s < setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    one = corpus::CorpusRunner(ref, 1).run();
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed: whole runs over the range (at least one) until the window is used.
  const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  // Every run is a slice of its own; the metrics come from the quiet runs
  // (see quiet_cut).
  Slices slices(0.0);
  std::size_t run_count = 0;
  std::optional<corpus::CorpusResult> first;
  double busy_s = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    corpus::CorpusResult r = corpus::CorpusRunner(config, opt.threads).run();
    const Clock::time_point t1 = Clock::now();
    Slices::Slice& slice = slices.current();
    slice.latency_ms.add(ms_between(t0, t1));
    slice.busy_s += seconds_between(t0, t1);
    slice.ops += static_cast<double>(r.sets);
    slices.tick();
    ++run_count;
    busy_s += seconds_between(t0, t1);
    out.attempted += sets_per_run;
    out.failed += r.safety_violations;
    if (!r.complete || r.sets + r.generation_errors != sets_per_run) out.failed += sets_per_run;
    if (!first.has_value()) {
      Digest d;
      d.add(gap_csv(r, opt));
      out.digest = d.hex();
      first = std::move(r);
    } else if (!(r == *first)) {
      out.failed += sets_per_run;  // a rerun must reproduce the result
    }
  } while (seconds_between(start, Clock::now()) < window);
  out.runs = run_count;

  // Thread-count invariance, after the timed runs: the reference range on
  // one thread per core must equal the one-thread reference field for field
  // and byte for byte in the gap CSV.
  const corpus::CorpusResult all = corpus::CorpusRunner(ref, opt.threads).run();
  ++out.attempted;
  if (!(*one == all) || gap_csv(*one, opt) != gap_csv(all, opt) || all.safety_violations != 0)
    ++out.failed;
  out.note("runs: " + std::to_string(run_count) + " over seeds [0, " +
           std::to_string(sets_per_run) + "), shards " + std::to_string(config.shards) +
           "; sets " + std::to_string(first->sets) + ", generation errors " +
           std::to_string(first->generation_errors) + ", safety violations " +
           std::to_string(first->safety_violations) + "; " + slices.summary());

  if (!opt.trace) {
    const Slices::Slice quiet = slices.quiet();
    add_closed_loop(out, median_of(setup_times), quiet.ops / quiet.busy_s, quiet.latency_ms);
    return out;
  }

  // Traced replay of the same runs.
  const std::vector<corpus::AnalyzerSpec> specs = corpus::default_analyzer_specs();
  const gen::ScenarioSpace space = gen::ScenarioSpace::corpus_default();
  exp::ShardedRunner runner(opt.threads);
  trace::set_enabled(true);
  double traced_s = 0.0;
  for (std::size_t c = 0; c < run_count; ++c) {
    const Clock::time_point t0 = Clock::now();
    const Tally tally = traced_range(runner, config, specs, space);
    traced_s += seconds_between(t0, Clock::now());
    ++out.attempted;
    if (!same_counts(*first, tally)) ++out.failed;
  }
  trace::set_enabled(false);
  const std::vector<trace::Span> spans = trace::collect();
  const auto calls = trace::by_name(spans);
  const auto stat = [&](const char* name, double p) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.percentile(p);
  };
  const auto busy = [&](const char* name) {
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.sum() / 1000.0;
  };
  const double set_busy = busy("corpus.set");
  const double seeds = static_cast<double>(sets_per_run);
  out.add("gen.set_ms", stat("gen.scenario_make", 50), "ms");
  out.add("gen.error_ratio", static_cast<double>(first->generation_errors) / seeds, "ratio");
  out.add("analysis.partition_ms", stat("analysis.partition", 50), "ms");
  out.add("analysis.analyze_ms", stat("analysis.analyze", 50), "ms");
  out.add("sim.oracle_global_p50_ms", stat("sim.oracle_global", 50), "ms");
  out.add("sim.oracle_global_p99_ms", stat("sim.oracle_global", 99), "ms");
  out.add("sim.oracle_partitioned_p50_ms", stat("sim.oracle_partitioned", 50), "ms");
  out.add("sim.oracle_partitioned_p99_ms", stat("sim.oracle_partitioned", 99), "ms");
  out.add("sim.share",
          set_busy > 0 ? (busy("sim.oracle_global") + busy("sim.oracle_partitioned")) / set_busy
                       : 0.0,
          "ratio");
  out.add("exp.parallel_efficiency", set_busy / (opt.threads * traced_s), "ratio");
  out.add("unattributed_share", trace::unattributed_share(spans, "corpus.set"), "ratio");
  out.add("trace.overhead_ratio", traced_s / busy_s - 1.0, "ratio");
  out.note("traced: " + std::to_string(spans.size()) + " spans; set busy " +
           std::to_string(set_busy) + " s, analysis share " +
           std::to_string(set_busy > 0 ? (busy("analysis.analyze") +
                                          busy("analysis.partition")) / set_busy
                                       : 0.0));
  if (!opt.spans_path.empty() && !trace::write_json(spans, opt.spans_path))
    throw std::runtime_error("cannot write spans to " + opt.spans_path);
  return out;
}

}  // namespace perfbench
