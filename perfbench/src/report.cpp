#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<TailPoint> tail_percentile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (unsigned p = 99; p >= 50; --p) {
    const std::size_t rank = (p * n + 99) / 100;  // ceil(p * n / 100)
    if (rank == 0 || n - rank < kTailBeyond) continue;
    return TailPoint{p, values[rank - 1], n - rank, n};
  }
  return std::nullopt;
}

double geomean_cpp_vs_bc(const std::vector<CellValue>& cells) {
  std::map<std::size_t, double> bc;
  for (const CellValue& cell : cells) {
    if (cell.config != "bc") continue;
    if (!bc.emplace(cell.trace, cell.value).second) {
      throw std::invalid_argument("two bc cells for trace " +
                                  std::to_string(cell.trace));
    }
  }
  double log_sum = 0.0;
  std::size_t pairs = 0;
  for (const CellValue& cell : cells) {
    if (cell.config.rfind("cpp-", 0) != 0) continue;
    const auto partner = bc.find(cell.trace);
    if (partner == bc.end()) {
      throw std::invalid_argument("no bc cell for trace " +
                                  std::to_string(cell.trace));
    }
    log_sum += std::log(cell.value / partner->second);
    ++pairs;
  }
  if (pairs == 0) throw std::invalid_argument("no cpp cell to pair");
  return std::exp(log_sum / static_cast<double>(pairs));
}

double interaction_ns_per_op(double cell_seconds, double core_seconds,
                             double hierarchy_seconds, std::uint64_t ops) {
  return (cell_seconds - core_seconds - hierarchy_seconds) * 1e9 /
         static_cast<double>(ops);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& span : spans) {
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.seconds();
  }
  return self;
}

std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, LayerTotal> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotal& total = totals[spans[i].name];
    ++total.calls;
    total.seconds += spans[i].seconds();
    total.self_seconds += self[i];
    total.count += spans[i].count;
  }
  return totals;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::string cell, std::uint64_t count)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  Span span;
  span.name = std::move(name);
  span.cell = std::move(cell);
  span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  span.count = count;
  index_ = static_cast<int>(recorder_.spans_.size());
  recorder_.open_.push_back(index_);
  recorder_.spans_.push_back(std::move(span));
  // Read the clock last so the bookkeeping above is not charged to the span.
  recorder_.spans_.back().start = recorder_.clock_.seconds();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_.spans_[static_cast<std::size_t>(index_)].end =
      recorder_.clock_.seconds();
  recorder_.open_.pop_back();
}

void SpanRecorder::Scope::set_count(std::uint64_t count) {
  if (index_ >= 0) recorder_.spans_[static_cast<std::size_t>(index_)].count = count;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::vector<double> self = self_seconds(spans_);
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"cell\":\""
        << s.cell << "\",\"parent\":" << s.parent << ",\"start_s\":" << s.start
        << ",\"end_s\":" << s.end << ",\"self_s\":" << self[i]
        << ",\"count\":" << s.count << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
