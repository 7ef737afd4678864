// cpc_perfbench — the same-host benchmark behind BENCHMARK.json (README.md).
//
//   cpc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <path>]
//
// Generates the workload's traces from the seed (set-up, timed five times),
// then runs sweeps of its trace-major grid through
// sim::SweepRunner::run_contained on one thread, one call per trace, until
// `seconds` have passed and three sweeps are done. --trace 0 reports the
// end-to-end metrics. --trace 1 runs one sweep in which each trace's cells
// run untraced and then traced (one span per cell) back to back, probes
// each layer on the workload's probe traces and reports the per-layer
// metrics. Host times are scaled to nominal host speed (host_reference.hpp).
// Human-readable lines come first; the last line is "RESULT {json}".
// Exit 2 on bad usage, 1 when the run itself fails.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cpp_hierarchy.hpp"
#include "host_reference.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "sim/bench_meter.hpp"
#include "sim/sweep_runner.hpp"
#include "verify/metadata_auditor.hpp"

namespace {

using cpc::sim::Stopwatch;
using perfbench::HostReference;
using perfbench::SpanRecorder;

constexpr unsigned kSetupReps = 5;
// Host speed drifts in phases of seconds, so each cell's host time is its
// median over at least this many untraced sweeps.
constexpr std::size_t kMinSweeps = 3;
constexpr unsigned kCodecReps = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
      have[1] = used == value.size();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      have[2] = used == value.size() && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace 0|1");
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (bool ok : have) {
    if (!ok) {
      throw std::invalid_argument(
          "need --workload, --seed, --seconds (> 0) and --trace 0|1");
    }
  }
  return args;
}

std::string cell_id(const perfbench::TraceKey& key, const perfbench::ConfigSpec& config) {
  return key.id() + "/" + config.label;
}

double span_seconds(const SpanRecorder& recorder, int index) {
  return recorder.spans()[static_cast<std::size_t>(index)].seconds();
}

// ---------------------------------------------------------------------------
// Set-up: trace generation
// ---------------------------------------------------------------------------

struct Setup {
  std::vector<std::shared_ptr<const cpc::cpu::Trace>> traces;
  std::vector<double> rep_seconds;  ///< host time of each full generation
  std::uint64_t ops = 0;            ///< ops generated per repetition
  double time_scale = 1.0;          ///< host reference over the set-up

  /// Median generation time, scaled to nominal host speed.
  double seconds() const { return perfbench::median(rep_seconds) * time_scale; }
};

Setup generate_traces(const perfbench::Plan& plan, SpanRecorder& recorder,
                      HostReference& reference) {
  Setup setup;
  reference.start_window();
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    reference.slice();
    setup.traces.clear();  // free the previous repetition's traces first
    setup.ops = 0;
    const Stopwatch watch;
    for (const perfbench::TraceKey& key : plan.traces) {
      const SpanRecorder::Scope span(recorder, "workload.generate", key.id(), key.ops);
      setup.traces.push_back(std::make_shared<const cpc::cpu::Trace>(
          cpc::workload::generate(*key.kernel, {key.ops, key.seed})));
      setup.ops += setup.traces.back()->size();
    }
    setup.rep_seconds.push_back(watch.seconds());
  }
  reference.slice();
  setup.time_scale = reference.time_scale();
  return setup;
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

struct CellRun {
  double seconds = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t traffic = 0;  ///< L2<->memory TrafficMeter half-units
  bool ok = false;
};

struct Sweep {
  double seconds = 0.0;        ///< host time in run_contained calls
  double time_scale = 1.0;     ///< host reference over the sweep
  std::vector<CellRun> cells;  ///< job order
  std::uint64_t digest = 0;    ///< FNV-1a over the cells' stats fingerprints
  std::size_t failed = 0;
};

/// Folds one finished job into `sweep`. A cell fails when the job threw
/// (validate(), the auditor or any other check), when a load saw another
/// value than the trace recorded, or when not every op committed.
void add_cell(Sweep& sweep, const cpc::sim::JobResult& result,
              std::size_t trace_ops) {
  CellRun cell;
  cell.ok = result.ok && result.run.core.value_mismatches == 0 &&
            result.run.core.committed == trace_ops;
  cell.seconds = result.wall_seconds;
  cell.committed = result.run.core.committed;
  cell.cycles = result.run.core.cycles;
  cell.traffic = result.run.hierarchy.traffic.half_units();
  const std::uint64_t fp = cell.ok ? cpc::sim::stats_fingerprint(result.run) : 0;
  for (int byte = 0; byte < 8; ++byte) {
    sweep.digest ^= (fp >> (8 * byte)) & 0xffu;
    sweep.digest *= 0x100000001b3ull;
  }
  sweep.failed += cell.ok ? 0 : 1;
  sweep.cells.push_back(cell);
}

Sweep new_sweep() {
  Sweep sweep;
  sweep.digest = 0xcbf29ce484222325ull;
  return sweep;
}

cpc::sim::RunOptions run_options() {
  cpc::sim::RunOptions options;
  options.quiet = true;
  return options;
}

/// Jobs [begin, end) in one run_contained call, added to `sweep`.
void run_block(const cpc::sim::SweepRunner& runner,
               const std::vector<cpc::sim::Job>& jobs, std::size_t begin,
               std::size_t end, Sweep& sweep) {
  const std::vector<cpc::sim::Job> block(jobs.begin() + static_cast<std::ptrdiff_t>(begin),
                                         jobs.begin() + static_cast<std::ptrdiff_t>(end));
  const Stopwatch watch;
  const cpc::sim::RunReport report = runner.run_contained(block, run_options());
  sweep.seconds += watch.seconds();
  for (std::size_t i = 0; i < block.size(); ++i) {
    add_cell(sweep, report.results[i], block[i].trace->size());
  }
}

/// The untraced path: one run_contained call per trace, with host
/// reference slices between calls.
Sweep run_sweep(const cpc::sim::SweepRunner& runner,
                const std::vector<cpc::sim::Job>& jobs,
                std::size_t cells_per_trace, HostReference& reference) {
  Sweep sweep = new_sweep();
  reference.start_window();
  reference.slice();
  for (std::size_t begin = 0; begin < jobs.size(); begin += cells_per_trace) {
    run_block(runner, jobs, begin, begin + cells_per_trace, sweep);
    reference.maybe_slice();
  }
  sweep.time_scale = reference.time_scale();
  return sweep;
}

/// The traced path. Each trace's cells run once untraced in one call
/// (into `untraced`) and then once more with one call and one span per
/// cell (into `traced`), back to back, so host-speed drift cancels out of
/// the tracing overhead.
void run_traced_sweep(const cpc::sim::SweepRunner& runner,
                      const std::vector<cpc::sim::Job>& jobs,
                      const std::vector<std::string>& cell_ids,
                      std::size_t cells_per_trace, SpanRecorder& recorder,
                      HostReference& reference, Sweep& untraced, Sweep& traced) {
  for (std::size_t begin = 0; begin < jobs.size(); begin += cells_per_trace) {
    const std::size_t end = begin + cells_per_trace;
    {
      const std::string& id = cell_ids[begin];
      SpanRecorder::Scope span(recorder, "sim.block", id.substr(0, id.find('/')));
      run_block(runner, jobs, begin, end, untraced);
      span.set_count(cells_per_trace);
    }
    reference.maybe_slice();
    for (std::size_t i = begin; i < end; ++i) {
      {
        SpanRecorder::Scope span(recorder, "sim.cell", cell_ids[i]);
        run_block(runner, jobs, i, i + 1, traced);
        span.set_count(traced.cells.back().committed);
      }
      reference.maybe_slice();
    }
  }
}

// ---------------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    std::printf("  %-44s %.6g %s\n", name.c_str(), value, unit.c_str());
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// A metric that is not finite (a failed cell's zero time or op count went
/// into it) is written as 0, which JSON can hold, and makes the run incorrect.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::ostringstream values;
  values.precision(17);
  for (std::size_t i = 0; i < metrics.list().size(); ++i) {
    const Metric& m = metrics.list()[i];
    const bool finite = std::isfinite(m.value);
    correct = correct && finite;
    values << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << (finite ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "RESULT {\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << values.str() << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// The measured grid
// ---------------------------------------------------------------------------

struct GridSummary {
  std::vector<Sweep> sweeps;  ///< untraced sweeps
  std::vector<Sweep> traced;  ///< per-cell traced sweeps (--trace 1 only)
  std::vector<std::size_t> cell_trace;         ///< job -> trace index
  std::vector<std::string> cell_config;        ///< job -> config label
  /// job -> median over sweeps of the host time scaled to nominal speed
  std::vector<double> cell_median_seconds;

  std::uint64_t committed() const {
    std::uint64_t n = 0;
    for (const Sweep& s : sweeps) for (const CellRun& c : s.cells) n += c.committed;
    return n;
  }
  double seconds() const {
    double t = 0.0;
    for (const Sweep& s : sweeps) t += s.seconds;
    return t;
  }
  /// Host time of one sweep made of every cell's median run.
  double median_sweep_seconds() const {
    double t = 0.0;
    for (double s : cell_median_seconds) t += s;
    return t;
  }
  std::uint64_t committed_per_sweep() const {
    std::uint64_t n = 0;
    for (const CellRun& c : sweeps[0].cells) n += c.committed;
    return n;
  }

  /// Fills cell_median_seconds once every sweep's time_scale is known.
  void finish() {
    cell_median_seconds.clear();
    for (std::size_t i = 0; i < sweeps[0].cells.size(); ++i) {
      std::vector<double> walls;
      for (const Sweep& s : sweeps) walls.push_back(s.cells[i].seconds * s.time_scale);
      cell_median_seconds.push_back(perfbench::median(walls));
    }
  }
};

GridSummary run_grid(const perfbench::Plan& plan, const Setup& setup,
                     double seconds, SpanRecorder& recorder,
                     HostReference& reference) {
  const std::vector<cpc::sim::Job> jobs = perfbench::make_jobs(plan, setup.traces);
  GridSummary grid;
  std::vector<std::string> ids;
  for (std::size_t t = 0; t < plan.traces.size(); ++t) {
    for (const perfbench::ConfigSpec& config : plan.cells) {
      grid.cell_trace.push_back(t);
      grid.cell_config.push_back(config.label);
      ids.push_back(cell_id(plan.traces[t], config));
    }
  }
  const cpc::sim::SweepRunner runner(1);
  if (recorder.enabled()) {
    // One paired sweep: the probes that follow take the rest of the run,
    // and the caller scales the whole run by one reference window.
    grid.sweeps.push_back(new_sweep());
    grid.traced.push_back(new_sweep());
    run_traced_sweep(runner, jobs, ids, plan.cells.size(), recorder, reference,
                     grid.sweeps.back(), grid.traced.back());
  } else {
    const Stopwatch phase;
    while (phase.seconds() < seconds || grid.sweeps.size() < kMinSweeps) {
      grid.sweeps.push_back(run_sweep(runner, jobs, plan.cells.size(), reference));
    }
    grid.finish();
  }
  return grid;
}

/// CPP/BC geomean of one per-cell quantity over one sweep's cells.
template <typename Field>
double cpp_vs_bc(const GridSummary& grid, const Sweep& sweep, Field field) {
  std::vector<perfbench::CellValue> values;
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    values.push_back({grid.cell_trace[i], grid.cell_config[i],
                      static_cast<double>(field(sweep.cells[i]))});
  }
  return perfbench::geomean_cpp_vs_bc(values);
}

void report_end_to_end(const GridSummary& grid, const Setup& setup,
                       std::size_t reference_bytes, Metrics& metrics) {
  std::vector<double> ns_per_op;
  for (std::size_t i = 0; i < grid.cell_median_seconds.size(); ++i) {
    ns_per_op.push_back(grid.cell_median_seconds[i] * 1e9 /
                        static_cast<double>(grid.sweeps[0].cells[i].committed));
  }
  const auto tail = perfbench::tail_percentile(ns_per_op);
  if (!tail) throw std::runtime_error("too few cells for a tail percentile");
  std::vector<double> host_ratios;
  for (const Sweep& s : grid.sweeps) {
    host_ratios.push_back(cpp_vs_bc(grid, s, [](const CellRun& c) { return c.seconds; }));
  }

  metrics.add("throughput_mops",
              static_cast<double>(grid.committed_per_sweep()) / grid.median_sweep_seconds() / 1e6,
              "Mops/s");
  metrics.add("cell_ns_per_op_p50", perfbench::median(ns_per_op), "ns");
  metrics.add("cell_ns_per_op_tail", tail->value, "ns");
  std::printf("    (tail = p%u of %zu cells, %zu cells beyond it)\n",
              tail->percentile, tail->cells, tail->beyond);
  metrics.add("cpp_vs_bc_host_time", perfbench::median(host_ratios), "ratio");
  metrics.add("sim_cycles_cpp_vs_bc",
              cpp_vs_bc(grid, grid.sweeps[0], [](const CellRun& c) { return c.cycles; }),
              "ratio");
  metrics.add("traffic_cpp_vs_bc",
              cpp_vs_bc(grid, grid.sweeps[0], [](const CellRun& c) { return c.traffic; }),
              "ratio");
  metrics.add("setup_s", setup.seconds(), "s");
  metrics.add("peak_rss_mib",
              static_cast<double>(cpc::sim::peak_rss_bytes() - reference_bytes) /
                  (1024.0 * 1024.0),
              "MiB");
}

// ---------------------------------------------------------------------------
// Layer probes (--trace 1)
// ---------------------------------------------------------------------------

/// Sums over the probe traces for one hierarchy config.
struct ConfigProbe {
  std::uint64_t accesses = 0;
  std::uint64_t ops = 0;
  double bare_seconds = 0.0;
  double guarded_seconds = 0.0;
  cpc::cache::HierarchyStats stats;  ///< summed counters of the bare replays
  /// CPP victims kept as affiliated lines, L1 + L2, from CppCache (the
  /// HierarchyStats::affiliated_demotions field is never incremented).
  std::uint64_t demotions = 0;
  std::uint64_t committed = 0;       ///< from this config's cells
  std::uint64_t cycles = 0;
  std::vector<double> guarded_by_trace;  ///< probe trace -> guarded replay s
};

struct CodecProbe {
  std::uint64_t words = 0;
  std::uint64_t compressible = 0;
};

struct Probes {
  std::vector<double> core_seconds;  ///< probe trace -> OooCore on FlatHierarchy
  std::map<std::string, ConfigProbe> configs;
  std::map<std::string, CodecProbe> codecs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

void add_stats(cpc::cache::HierarchyStats& sum, const cpc::cache::HierarchyStats& s) {
  sum.reads += s.reads;
  sum.writes += s.writes;
  sum.l1_misses += s.l1_misses;
  sum.l2_misses += s.l2_misses;
  sum.l1_affiliated_hits += s.l1_affiliated_hits;
  sum.l1_pbuf_hits += s.l1_pbuf_hits;
  sum.l2_pbuf_hits += s.l2_pbuf_hits;
  sum.l1_prefetch_inserts += s.l1_prefetch_inserts;
  sum.l2_prefetch_inserts += s.l2_prefetch_inserts;
  sum.partial_promotions += s.partial_promotions;
}

std::string replay_span_name(const perfbench::ConfigSpec& config) {
  return (config.is_cpp() ? "core." : "cache.") + config.label + ".replay";
}

Probes run_probes(const perfbench::Plan& plan, const Setup& setup,
                  const GridSummary& grid, SpanRecorder& recorder,
                  HostReference& reference) {
  Probes probes;
  const cpc::sim::SweepRunner runner(1);
  for (std::size_t t = 0; t < plan.probe_traces; ++t) {
    const perfbench::TraceKey& key = plan.traces[t];
    const cpc::cpu::Trace& trace = *setup.traces[t];
    const SpanRecorder::Scope probe_span(recorder, "probe", key.id(), trace.size());

    // Core: OooCore over the 1-cycle functional hierarchy.
    perfbench::FlatHierarchy flat;
    cpc::cpu::CoreStats core_stats;
    int core_span = -1;
    {
      SpanRecorder::Scope span(recorder, "cpu.core", key.id());
      cpc::cpu::OooCore core(cpc::cpu::CoreConfig{}, flat);
      core_stats = core.run(trace);
      span.set_count(core_stats.committed);
      core_span = span.index();
    }
    probes.core_seconds.push_back(span_seconds(recorder, core_span));
    reference.maybe_slice();
    ++probes.attempted;
    if (core_stats.value_mismatches != 0 || core_stats.committed != trace.size()) {
      ++probes.failed;
      std::printf("  FAILED probe cpu.core on %s\n", key.id().c_str());
    }

    // Hierarchies: bare replay, then guarded replay at the default stride.
    for (const perfbench::ConfigSpec& config : perfbench::all_configs()) {
      ConfigProbe& cp = probes.configs[config.label];
      const std::string id = cell_id(key, config);
      ++probes.attempted;
      cp.guarded_by_trace.push_back(0.0);
      bool ok = true;
      try {
        auto bare = config.make();
        perfbench::ReplayResult r;
        int index = -1;
        {
          SpanRecorder::Scope span(recorder, replay_span_name(config), id);
          r = perfbench::replay(trace, *bare);
          span.set_count(r.accesses);
          index = span.index();
        }
        cp.bare_seconds += span_seconds(recorder, index);
        bare->validate();
        add_stats(cp.stats, bare->stats());
        if (const auto* cpp = dynamic_cast<const cpc::core::CppHierarchy*>(bare.get())) {
          cp.demotions += cpp->l1().demotions() + cpp->l2().demotions();
        }
        cp.accesses += r.accesses;
        cp.ops += trace.size();
        ok = r.mismatches == 0;

        auto inner = config.make();
        cpc::verify::GuardedHierarchy guarded(
            *inner, cpc::verify::MetadataAuditor::stride_from_env());
        {
          SpanRecorder::Scope span(recorder, "verify." + config.label + ".replay", id);
          r = perfbench::replay(trace, guarded);
          span.set_count(r.accesses);
          index = span.index();
        }
        guarded.validate();
        cp.guarded_seconds += span_seconds(recorder, index);
        cp.guarded_by_trace.back() = span_seconds(recorder, index);
        ok = ok && r.mismatches == 0;
      } catch (const std::exception& error) {
        std::printf("  probe %s threw: %s\n", id.c_str(), error.what());
        ok = false;
      }
      if (!ok) {
        ++probes.failed;
        std::printf("  FAILED probe replay on %s\n", id.c_str());
      }
      reference.maybe_slice();
    }

    // Codecs over the trace's final L1 line images.
    const perfbench::LineImages lines = perfbench::line_images(trace, flat.memory());
    for (const cpc::compress::CodecKind kind : cpc::compress::kAllCodecs) {
      const cpc::compress::Codec codec(kind);
      CodecProbe& cp = probes.codecs[codec.name()];
      const std::uint64_t words = lines.bases.size() * perfbench::LineImages::kWords;
      {
        const SpanRecorder::Scope span(
            recorder, std::string("compress.") + codec.name() + ".classify_words",
            key.id(), words * kCodecReps);
        cp.compressible += perfbench::classify_lines(codec, lines, kCodecReps);
      }
      {
        const SpanRecorder::Scope span(
            recorder, std::string("compress.") + codec.name() + ".compress_line",
            key.id(), lines.bases.size() * kCodecReps);
        perfbench::compress_lines(codec, lines, kCodecReps);
      }
      cp.words += words;
      reference.maybe_slice();
    }
  }

  // IPC per config: the grid's own cells where the workload has them,
  // otherwise one extra cell per probe trace.
  for (const perfbench::ConfigSpec& config : perfbench::all_configs()) {
    ConfigProbe& cp = probes.configs[config.label];
    bool in_grid = false;
    for (const perfbench::ConfigSpec& c : plan.cells) in_grid |= c.label == config.label;
    for (std::size_t t = 0; t < plan.probe_traces; ++t) {
      if (in_grid) {
        for (std::size_t i = 0; i < grid.cell_trace.size(); ++i) {
          if (grid.cell_trace[i] != t || grid.cell_config[i] != config.label) continue;
          cp.committed += grid.sweeps[0].cells[i].committed;
          cp.cycles += grid.sweeps[0].cells[i].cycles;
        }
        continue;
      }
      perfbench::Plan one = plan;
      one.traces = {plan.traces[t]};
      one.cells = {config};
      const auto jobs = perfbench::make_jobs(one, {setup.traces[t]});
      Sweep sweep = new_sweep();
      {
        SpanRecorder::Scope span(recorder, "sim.probe_cell", cell_id(plan.traces[t], config));
        run_block(runner, jobs, 0, jobs.size(), sweep);
        span.set_count(sweep.cells[0].committed);
      }
      reference.maybe_slice();
      ++probes.attempted;
      probes.failed += sweep.failed;
      cp.committed += sweep.cells[0].committed;
      cp.cycles += sweep.cells[0].cycles;
    }
  }
  return probes;
}

double per(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Every host time is scaled by `scale`, the host reference over the run.
void report_layers(const perfbench::Plan& plan, const Setup& setup,
                   const GridSummary& grid, const Probes& probes,
                   const SpanRecorder& recorder, double scale, Metrics& metrics) {
  const auto totals = perfbench::layer_totals(recorder.spans());
  const auto ns_per = [&](const std::string& name) {
    const perfbench::LayerTotal& total = totals.at(name);
    return per(total.self_seconds * scale * 1e9, static_cast<double>(total.count));
  };

  metrics.add("workload.gen_ns_per_op",
              setup.seconds() * 1e9 / static_cast<double>(setup.ops), "ns");
  metrics.add("cpu.core_ns_per_op", ns_per("cpu.core"), "ns");
  for (const auto& config : perfbench::all_configs()) {
    const ConfigProbe& cp = probes.configs.at(config.label);
    metrics.add("cpu.ipc." + config.label,
                per(static_cast<double>(cp.committed), static_cast<double>(cp.cycles)),
                "op/cycle");
  }
  for (const auto& config : perfbench::all_configs()) {
    const ConfigProbe& cp = probes.configs.at(config.label);
    const auto& s = cp.stats;
    const double kops = static_cast<double>(cp.ops) / 1000.0;
    const std::string prefix = (config.is_cpp() ? "core." : "cache.") + config.label;
    metrics.add(prefix + ".ns_per_access", ns_per(replay_span_name(config)), "ns");
    if (config.is_cpp()) {
      metrics.add(prefix + ".ns_per_l1_miss",
                  per(cp.bare_seconds * scale * 1e9, static_cast<double>(s.l1_misses)),
                  "ns");
      metrics.add(prefix + ".affiliated_hit_share",
                  per(static_cast<double>(s.l1_affiliated_hits),
                      static_cast<double>(s.l1_affiliated_hits + s.l1_misses)),
                  "ratio");
      metrics.add(prefix + ".promotions_per_kop",
                  static_cast<double>(s.partial_promotions) / kops, "1/kop");
      metrics.add(prefix + ".demotions_per_kop",
                  static_cast<double>(cp.demotions) / kops, "1/kop");
    } else {
      metrics.add(prefix + ".l1_miss_rate", s.l1_miss_rate(), "ratio");
      metrics.add(prefix + ".l2_misses_per_kop",
                  static_cast<double>(s.l2_misses) / kops, "1/kop");
      if (config.label == "bcp") {
        metrics.add(prefix + ".prefetch_accuracy", s.prefetch_accuracy(), "ratio");
      }
    }
  }
  for (const auto& [name, cp] : probes.codecs) {
    const std::string prefix = "compress." + name;
    metrics.add(prefix + ".classify_ns_per_word", ns_per(prefix + ".classify_words"), "ns");
    metrics.add(prefix + ".compress_line_ns", ns_per(prefix + ".compress_line"), "ns");
    metrics.add(prefix + ".compressible_share",
                per(static_cast<double>(cp.compressible), static_cast<double>(cp.words)),
                "ratio");
  }
  for (const auto& config : perfbench::all_configs()) {
    const ConfigProbe& cp = probes.configs.at(config.label);
    metrics.add("verify." + config.label + ".guard_ns_per_access",
                per((cp.guarded_seconds - cp.bare_seconds) * scale * 1e9,
                    static_cast<double>(cp.accesses)),
                "ns");
  }

  // Sum of layers against the untraced cell time, over the grid cells of
  // the probe traces: cell = core + guarded hierarchy replay + interaction.
  double cell_s = 0.0;
  double core_s = 0.0;
  double hier_s = 0.0;
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < grid.cell_trace.size(); ++i) {
    const std::size_t t = grid.cell_trace[i];
    if (t >= plan.probe_traces) continue;
    cell_s += grid.cell_median_seconds[i];
    core_s += probes.core_seconds[t] * scale;
    hier_s += probes.configs.at(grid.cell_config[i]).guarded_by_trace[t] * scale;
    ops += grid.sweeps[0].cells[i].committed;
  }
  const double interaction = perfbench::interaction_ns_per_op(cell_s, core_s, hier_s, ops);
  metrics.add("sim.interaction_ns_per_op", interaction, "ns");

  double job_s = 0.0;
  for (const Sweep& s : grid.sweeps) for (const CellRun& c : s.cells) job_s += c.seconds;
  metrics.add("sim.runner_overhead_share", (grid.seconds() - job_s) / grid.seconds(),
              "ratio");

  double traced_s = 0.0;
  std::uint64_t traced_ops = 0;
  for (const Sweep& s : grid.traced) {
    traced_s += s.seconds;
    for (const CellRun& c : s.cells) traced_ops += c.committed;
  }
  const double untraced_s_per_op = grid.seconds() / static_cast<double>(grid.committed());
  const double traced_s_per_op = traced_s / static_cast<double>(traced_ops);
  metrics.add("sim.tracing_overhead_share", traced_s_per_op / untraced_s_per_op - 1.0,
              "ratio");

  const double per_op = 1e9 / static_cast<double>(ops);
  std::printf(
      "\n  reconcile (probe-trace grid cells, untraced, ns/op): cell %.2f = core %.2f"
      " + hierarchy %.2f + interaction %.2f\n",
      cell_s * per_op, core_s * per_op, hier_s * per_op, interaction);
  std::printf("  tracing: traced %.4f Mops/s vs untraced %.4f Mops/s\n",
              1e-6 / traced_s_per_op, 1e-6 / untraced_s_per_op);

  std::printf("\n  %-40s %7s %12s %12s %14s\n", "span", "calls", "total_s", "self_s",
              "count");
  for (const auto& [name, total] : totals) {
    std::printf("  %-40s %7zu %12.6f %12.6f %14llu\n", name.c_str(), total.calls,
                total.seconds, total.self_seconds,
                static_cast<unsigned long long>(total.count));
  }
}

int run(const Args& args) {
  const perfbench::Plan plan = perfbench::make_plan(args.workload, args.seed);
  SpanRecorder recorder(args.trace);
  std::printf("workload %s seed %llu: %zu traces x %zu cells, trace %d\n",
              plan.name.c_str(), static_cast<unsigned long long>(args.seed),
              plan.traces.size(), plan.cells.size(), args.trace ? 1 : 0);

  HostReference reference;
  const Setup setup = generate_traces(plan, recorder, reference);
  std::printf("  set-up: median %.4f s raw, host time scale %.4f\n",
              perfbench::median(setup.rep_seconds), setup.time_scale);
  reference.start_window();
  GridSummary grid = run_grid(plan, setup, args.seconds, recorder, reference);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool deterministic = true;
  for (const auto* list : {&grid.sweeps, &grid.traced}) {
    for (const Sweep& s : *list) {
      attempted += s.cells.size();
      failed += s.failed;
      deterministic = deterministic && s.digest == grid.sweeps[0].digest;
    }
  }

  std::optional<Probes> probes;
  if (args.trace) {
    probes = run_probes(plan, setup, grid, recorder, reference);
    attempted += probes->attempted;
    failed += probes->failed;
    // The traced run is scaled as a whole: one window over grid and probes.
    grid.sweeps[0].time_scale = reference.time_scale();
    grid.finish();
  }

  std::printf("  sweeps: %zu untraced, %zu traced; %.3f s measured\n",
              grid.sweeps.size(), grid.traced.size(), grid.seconds());
  for (const Sweep& s : grid.sweeps) {
    std::uint64_t ops = 0;
    for (const CellRun& c : s.cells) ops += c.committed;
    std::printf("    sweep %.3f s, %.4f Mops/s raw, host time scale %.4f\n", s.seconds,
                static_cast<double>(ops) / s.seconds / 1e6, s.time_scale);
  }
  std::printf("  stats digest %016llx (%s across sweeps)\n",
              static_cast<unsigned long long>(grid.sweeps[0].digest),
              deterministic ? "identical" : "DIFFERENT");

  Metrics metrics;
  if (!probes) {
    report_end_to_end(grid, setup, reference.resident_bytes(), metrics);
  } else {
    report_layers(plan, setup, grid, *probes, recorder, grid.sweeps[0].time_scale,
                  metrics);
    if (!args.spans_path.empty()) {
      recorder.write_jsonl(args.spans_path);
      std::printf("  %zu spans written to %s\n", recorder.spans().size(),
                  args.spans_path.c_str());
    }
  }
  std::printf("  failed_cells %zu of %zu attempted\n", failed, attempted);
  print_result(failed == 0 && deterministic, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    perfbench::make_plan(args.workload, 0);
  } catch (const std::exception& error) {
    std::cerr << "cpc_perfbench: " << error.what() << "\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "cpc_perfbench: " << error.what() << "\n";
    return 1;
  }
}
