#pragma once
// What the benchmark runs: the workload plans (traces x hierarchy cells) and
// the layer probes that call each simulator module's public functions on a
// trace outside the core/hierarchy pairing of a full cell.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "compress/codec.hpp"
#include "cpu/micro_op.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/sparse_memory.hpp"
#include "sim/experiment.hpp"
#include "sim/job.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

/// A 1-cycle functional data memory: every access hits, returns the word
/// last written (backed by mem::SparseMemory) and touches no cache state.
/// Driving OooCore with it isolates the core's own host cost.
class FlatHierarchy final : public cpc::cache::MemoryHierarchy {
 public:
  cpc::cache::AccessResult read(std::uint32_t addr, std::uint32_t& value) override {
    ++stats_.reads;
    value = memory_.read_word(addr);
    return {};
  }
  cpc::cache::AccessResult write(std::uint32_t addr, std::uint32_t value) override {
    ++stats_.writes;
    memory_.write_word(addr, value);
    return {};
  }
  std::string name() const override { return "FLAT"; }

  const cpc::mem::SparseMemory& memory() const { return memory_; }

 private:
  cpc::mem::SparseMemory memory_;
};

/// One hierarchy a cell or probe runs on. `label` is the metric-name form:
/// "bc", "bcc", "hac", "bcp" or "cpp-<codec>".
struct ConfigSpec {
  std::string label;
  cpc::sim::ConfigKind kind = cpc::sim::ConfigKind::kBC;
  cpc::compress::Codec codec{};

  std::unique_ptr<cpc::cache::MemoryHierarchy> make() const {
    return cpc::sim::make_hierarchy(kind, codec);
  }
  bool is_cpp() const { return kind == cpc::sim::ConfigKind::kCPP; }
};

/// bc, bcc, hac, bcp, then cpp-<codec> in codec registry order.
const std::vector<ConfigSpec>& all_configs();
const ConfigSpec& config_by_label(const std::string& label);

/// One trace of a workload: kernel, length and generator seed.
struct TraceKey {
  const cpc::workload::Workload* kernel = nullptr;
  std::uint64_t ops = 0;
  std::uint64_t seed = 0;

  std::string id() const;  ///< "<kernel>#<seed>"
};

/// A named benchmark workload: the traces it generates, the hierarchy cells
/// each trace runs on (trace-major, so a trace's cells run back to back),
/// and how many leading traces the traced run probes layer by layer.
struct Plan {
  std::string name;
  std::vector<TraceKey> traces;
  std::vector<ConfigSpec> cells;
  std::size_t probe_traces = 0;
};

/// The workloads "paper-grid", "cpp-codec-grid" and "seed-sweep" (README.md)
/// for benchmark seed `seed`. Throws std::invalid_argument on another name.
Plan make_plan(const std::string& name, std::uint64_t seed);

/// The sweep jobs of `plan` over pre-generated `traces`, trace-major.
std::vector<cpc::sim::Job> make_jobs(
    const Plan& plan,
    const std::vector<std::shared_ptr<const cpc::cpu::Trace>>& traces);

/// Replays the trace's loads and stores, in trace order, straight into
/// `hierarchy`'s read/write. Counts loads whose value differs from the
/// trace's recorded MicroOp::value.
struct ReplayResult {
  std::uint64_t accesses = 0;
  std::uint64_t loads = 0;
  std::uint64_t mismatches = 0;
};
ReplayResult replay(std::span<const cpc::cpu::MicroOp> trace,
                    cpc::cache::MemoryHierarchy& hierarchy);

/// The distinct L1 lines a trace touches, in first-touch order, each with
/// the 16 words the flat memory holds there after the trace has run.
struct LineImages {
  static constexpr std::uint32_t kWords =
      cpc::cache::kBaselineConfig.l1.words_per_line();
  std::vector<std::uint32_t> bases;
  std::vector<std::uint32_t> words;  ///< kWords per line, line-major
};
LineImages line_images(std::span<const cpc::cpu::MicroOp> trace,
                       const cpc::mem::SparseMemory& memory);

/// Codec::classify_words over every line image at its address, `reps`
/// times; returns the compressible word count of one pass.
std::uint64_t classify_lines(const cpc::compress::Codec& codec,
                             const LineImages& lines, unsigned reps);

/// Codec::compress_line over every line image, `reps` times; returns the
/// data + tag bits of one pass.
std::uint64_t compress_lines(const cpc::compress::Codec& codec,
                             const LineImages& lines, unsigned reps);

}  // namespace perfbench
