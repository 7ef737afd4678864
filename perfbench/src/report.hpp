#pragma once
// The benchmark's own arithmetic: order statistics over cells, CPP/BC ratios
// paired by trace, and span self times. Kept apart from main.cpp so the
// unit tests can check every rule on hand-made inputs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/bench_meter.hpp"

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// The tail order statistic: the highest whole percentile p in [50, 99]
/// whose nearest-rank cell (rank ceil(p * n / 100)) still has at least
/// `kTailBeyond` cells ranked above it.
struct TailPoint {
  unsigned percentile = 0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< cells ranked above the reported one
  std::size_t cells = 0;
};
inline constexpr std::size_t kTailBeyond = 10;

/// nullopt when fewer than 2 * kTailBeyond cells exist (not even the median
/// has ten cells beyond it).
std::optional<TailPoint> tail_percentile(std::vector<double> values);

/// One measured value of one cell: `trace` identifies the trace the cell
/// simulated, `config` its hierarchy label ("bc", "cpp-paper", ...).
struct CellValue {
  std::size_t trace = 0;
  std::string config;
  double value = 0.0;
};

/// Geometric mean over every CPP cell ("cpp-*") of its value divided by
/// the value of the "bc" cell of the same trace. Cells are paired by trace
/// id, never by position. Throws std::invalid_argument when a CPP cell has
/// no BC partner, a trace has two BC cells, or there is no CPP cell.
double geomean_cpp_vs_bc(const std::vector<CellValue>& cells);

/// Sum-of-layers residual: the part of a cell's host time that neither the
/// core probe nor the hierarchy replay accounts for, in ns per committed op.
/// Reported as measured: negative when the probes took longer than the cell.
double interaction_ns_per_op(double cell_seconds, double core_seconds,
                             double hierarchy_seconds, std::uint64_t ops);

/// One timed call into a layer. `parent` indexes the enclosing span (-1 at
/// top level); spans of one cell share `cell`. `count` is the work the call
/// did (ops, accesses, words) and divides its time into a per-unit cost.
struct Span {
  std::string name;
  std::string cell;
  int parent = -1;
  double start = 0.0;  ///< seconds since the recorder started
  double end = 0.0;
  std::uint64_t count = 0;

  double seconds() const { return end - start; }
};

/// Each span's duration minus the durations of its direct children.
/// Never clamped: a negative self time means the children's clock readings
/// overran the parent's and is reported as such.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Per-name totals over a span list.
struct LayerTotal {
  std::size_t calls = 0;
  double seconds = 0.0;
  double self_seconds = 0.0;
  std::uint64_t count = 0;
};
std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans);

/// Records spans in memory; written out once, when the run ends. A
/// disabled recorder hands out inert scopes, so untimed paths cost nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span on construction and closes it on destruction. Spans
  /// nest: a scope opened while another is open becomes its child.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::string cell,
          std::uint64_t count = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Sets the work count once it is known (after the call returns).
    void set_count(std::uint64_t count);
    /// Position in spans(), or -1 when the recorder is disabled.
    int index() const { return index_; }

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line, in span order.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  cpc::sim::Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
