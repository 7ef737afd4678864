// Unit tests of the benchmark's own code: the 1-cycle functional hierarchy,
// the workload plans, the layer probes and the arithmetic of report.hpp.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "host_reference.hpp"
#include "probes.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

cpc::cpu::Trace small_trace(const char* kernel) {
  return cpc::workload::generate(cpc::workload::find_workload(kernel), {20'000, 7});
}

TEST(FlatHierarchy, CoreCommitsEveryOpAndLoadsMatchTheTrace) {
  std::uint64_t loads = 0;  // short traces of some kernels are all stores
  for (const auto& kernel : cpc::workload::all_workloads()) {
    const cpc::cpu::Trace trace = small_trace(kernel.name.c_str());
    FlatHierarchy flat;
    cpc::cpu::OooCore core(cpc::cpu::CoreConfig{}, flat);
    const cpc::cpu::CoreStats stats = core.run(trace);
    EXPECT_EQ(stats.committed, trace.size()) << kernel.name;
    EXPECT_EQ(stats.value_mismatches, 0u) << kernel.name;
    EXPECT_EQ(stats.loads, flat.stats().reads) << kernel.name;
    loads += stats.loads;
  }
  EXPECT_GT(loads, 0u);
}

TEST(FlatHierarchy, ReplayedLoadsReturnTheTraceValues) {
  const cpc::cpu::Trace trace = small_trace("spec2000.164.gzip");
  FlatHierarchy flat;
  const ReplayResult r = replay(trace, flat);
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (const auto& op : trace) {
    loads += op.kind == cpc::cpu::OpKind::kLoad;
    stores += op.kind == cpc::cpu::OpKind::kStore;
  }
  EXPECT_EQ(r.loads, loads);
  EXPECT_EQ(r.accesses, loads + stores);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(flat.stats().reads, loads);
  EXPECT_EQ(flat.stats().writes, stores);
}

TEST(FlatHierarchy, ReplayCountsAWrongValue) {
  cpc::cpu::Trace trace(2);
  trace[0].kind = cpc::cpu::OpKind::kStore;
  trace[0].addr = 0x1000;
  trace[0].value = 5;
  trace[1].kind = cpc::cpu::OpKind::kLoad;
  trace[1].addr = 0x1000;
  trace[1].value = 6;  // not what the store left there
  FlatHierarchy flat;
  EXPECT_EQ(replay(trace, flat).mismatches, 1u);
}

TEST(Probes, EveryConfigReplaysTheTraceValues) {
  const cpc::cpu::Trace trace = small_trace("olden.mst");
  ASSERT_EQ(all_configs().size(), 8u);
  for (const ConfigSpec& config : all_configs()) {
    auto hierarchy = config.make();
    const ReplayResult r = replay(trace, *hierarchy);
    EXPECT_EQ(r.mismatches, 0u) << config.label;
    EXPECT_EQ(hierarchy->stats().accesses(), r.accesses) << config.label;
    EXPECT_NO_THROW(hierarchy->validate()) << config.label;
  }
}

TEST(Probes, LineImagesHoldTheFinalMemory) {
  const cpc::cpu::Trace trace = small_trace("olden.treeadd");
  FlatHierarchy flat;
  replay(trace, flat);
  const LineImages lines = line_images(trace, flat.memory());
  ASSERT_FALSE(lines.bases.empty());
  ASSERT_EQ(lines.words.size(), lines.bases.size() * LineImages::kWords);
  for (std::size_t i = 0; i < lines.bases.size(); ++i) {
    EXPECT_EQ(lines.bases[i] % (LineImages::kWords * 4), 0u);
    EXPECT_EQ(lines.words[i * LineImages::kWords + 3],
              flat.memory().read_word(lines.bases[i] + 12));
  }
  const cpc::compress::Codec codec{};
  const std::uint64_t once = classify_lines(codec, lines, 1);
  EXPECT_EQ(classify_lines(codec, lines, 4), once);
  EXPECT_LE(once, lines.words.size());
  EXPECT_EQ(compress_lines(codec, lines, 3), compress_lines(codec, lines, 1));
}

TEST(Plans, ShapesAreTraceMajor) {
  const Plan paper = make_plan("paper-grid", 3);
  EXPECT_EQ(paper.traces.size(), 14u);
  EXPECT_EQ(paper.cells.size(), 5u);
  EXPECT_EQ(paper.probe_traces, 14u);
  const Plan codecs = make_plan("cpp-codec-grid", 3);
  EXPECT_EQ(codecs.traces.size(), 7u);
  EXPECT_EQ(codecs.cells.size(), 5u);
  const Plan sweep = make_plan("seed-sweep", 3);
  EXPECT_EQ(sweep.traces.size(), 14u * 8u);
  EXPECT_EQ(sweep.cells.size(), 2u);
  EXPECT_EQ(sweep.probe_traces, 14u);
  EXPECT_EQ(sweep.traces[0].seed, 3u);
  EXPECT_EQ(sweep.traces.back().seed, 10u);
  EXPECT_THROW(make_plan("hit", 3), std::invalid_argument);

  std::vector<std::shared_ptr<const cpc::cpu::Trace>> traces;
  for (std::size_t t = 0; t < codecs.traces.size(); ++t) {
    traces.push_back(std::make_shared<const cpc::cpu::Trace>(t + 1));
  }
  const auto jobs = make_jobs(codecs, traces);
  ASSERT_EQ(jobs.size(), 35u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].trace, traces[i / 5]) << i;
  }
  EXPECT_EQ(jobs[0].tag, "BC");
  EXPECT_EQ(jobs[1].tag, "CPP");
  EXPECT_EQ(jobs[4].tag, "CPP@wkdm");
}

std::vector<double> ranks(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  std::reverse(values.begin(), values.end());  // the rule must sort
  return values;
}

TEST(TailPercentile, HighestPercentileWithTenCellsBeyond) {
  struct Case {
    std::size_t cells;
    unsigned percentile;
    std::size_t beyond;
  };
  for (const Case c : {Case{35, 71, 10}, Case{70, 85, 10}, Case{224, 95, 11},
                       Case{20, 50, 10}, Case{5000, 99, 50}}) {
    const auto tail = tail_percentile(ranks(c.cells));
    ASSERT_TRUE(tail.has_value()) << c.cells;
    EXPECT_EQ(tail->percentile, c.percentile) << c.cells;
    EXPECT_EQ(tail->beyond, c.beyond) << c.cells;
    EXPECT_EQ(tail->cells, c.cells);
    // Values are 1..n, so the reported value is the nearest rank itself.
    EXPECT_DOUBLE_EQ(tail->value, static_cast<double>(c.cells - c.beyond));
  }
  EXPECT_FALSE(tail_percentile(ranks(19)).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(GeomeanCppVsBc, PairsCellsByTraceNotByPosition) {
  // Trace 0: BC 2, CPP 8 (x4). Trace 1: BC 10, CPP 10 (x1). Listed out of
  // order, so pairing by position would divide by the wrong BC cell.
  const std::vector<CellValue> cells = {{1, "cpp-paper", 10.0},
                                        {0, "bc", 2.0},
                                        {0, "cpp-paper", 8.0},
                                        {1, "hac", 99.0},
                                        {1, "bc", 10.0}};
  EXPECT_DOUBLE_EQ(geomean_cpp_vs_bc(cells), 2.0);  // sqrt(4 * 1)

  // Several CPP cells of one trace each pair with that trace's BC cell.
  const std::vector<CellValue> codecs = {{0, "bc", 1.0},
                                         {0, "cpp-paper", 2.0},
                                         {0, "cpp-fpc", 8.0}};
  EXPECT_DOUBLE_EQ(geomean_cpp_vs_bc(codecs), 4.0);

  EXPECT_THROW(geomean_cpp_vs_bc({{0, "bc", 1.0}, {1, "cpp-paper", 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(geomean_cpp_vs_bc({{0, "bc", 1.0}, {0, "bc", 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(geomean_cpp_vs_bc({{0, "bc", 1.0}}), std::invalid_argument);
}

TEST(Interaction, ReportedAsMeasuredEvenWhenNegative) {
  EXPECT_DOUBLE_EQ(interaction_ns_per_op(1.0, 0.25, 0.5, 1'000'000), 250.0);
  EXPECT_DOUBLE_EQ(interaction_ns_per_op(1.0, 0.75, 0.5, 1'000'000), -250.0);
}

TEST(SelfTime, ChildTimeIsSubtractedAndNeverClamped) {
  std::vector<Span> spans(4);
  spans[0] = {"probe", "t", -1, 0.0, 10.0, 0};
  spans[1] = {"cpu.core", "t", 0, 1.0, 4.0, 100};
  spans[2] = {"cache.bc.replay", "t/bc", 0, 4.0, 9.0, 50};
  spans[3] = {"probe", "u", -1, 20.0, 21.0, 0};
  std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);

  // Children that overrun their parent give a negative self time.
  spans[2].end = 13.0;
  self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], -2.0);

  const auto totals = layer_totals(spans);
  EXPECT_EQ(totals.at("probe").calls, 2u);
  EXPECT_DOUBLE_EQ(totals.at("probe").seconds, 11.0);
  EXPECT_DOUBLE_EQ(totals.at("probe").self_seconds, -1.0);
  EXPECT_EQ(totals.at("cpu.core").count, 100u);
}

TEST(SpanRecorder, NestsScopesAndDisabledRecordsNothing) {
  SpanRecorder recorder(true);
  {
    const SpanRecorder::Scope outer(recorder, "probe", "t");
    SpanRecorder::Scope inner(recorder, "cpu.core", "t");
    inner.set_count(42);
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].count, 42u);
  EXPECT_LE(recorder.spans()[0].start, recorder.spans()[1].start);
  EXPECT_GE(recorder.spans()[0].end, recorder.spans()[1].end);

  SpanRecorder off(false);
  {
    const SpanRecorder::Scope scope(off, "probe", "t");
    EXPECT_EQ(scope.index(), -1);
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(HostReference, KernelIsDeterministicAndScaleNeedsASlice) {
  const std::vector<std::uint32_t> stream(1u << 16, 3u);
  std::vector<std::byte> arena(1u << 20);
  EXPECT_EQ(reference_kernel(5'000, stream, arena),
            reference_kernel(5'000, stream, arena));
  EXPECT_NE(reference_kernel(5'000, stream, arena),
            reference_kernel(6'000, stream, arena));
  std::vector<std::byte> tiny(1u << 10);
  EXPECT_THROW(reference_kernel(5'000, stream, tiny), std::bad_alloc);

  HostReference reference;
  EXPECT_THROW(reference.time_scale(), std::logic_error);
  reference.slice();
  EXPECT_EQ(reference.slices(), 1u);
  EXPECT_GT(reference.time_scale(), 0.0);
  reference.start_window();
  EXPECT_EQ(reference.slices(), 0u);
  EXPECT_THROW(reference.time_scale(), std::logic_error);
}

}  // namespace
}  // namespace perfbench
