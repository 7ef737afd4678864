#include "probes.hpp"

#include <stdexcept>
#include <unordered_set>

namespace perfbench {

namespace {

using cpc::sim::ConfigKind;

constexpr std::uint64_t kGridOps = 600'000;
constexpr std::uint64_t kSweepOps = 120'000;
constexpr std::uint64_t kSweepSeeds = 8;

// The kernels whose CPP cells cost the most host time relative to BC.
const char* const kCodecGridKernels[] = {
    "spec2000.164.gzip", "olden.mst",  "spec95.099.go", "spec2000.300.twolf",
    "spec2000.181.mcf",  "olden.em3d", "olden.health"};

std::vector<ConfigSpec> labels(std::initializer_list<const char*> names) {
  std::vector<ConfigSpec> out;
  for (const char* name : names) out.push_back(config_by_label(name));
  return out;
}

}  // namespace

const std::vector<ConfigSpec>& all_configs() {
  static const std::vector<ConfigSpec> configs = [] {
    std::vector<ConfigSpec> out = {{"bc", ConfigKind::kBC, {}},
                                   {"bcc", ConfigKind::kBCC, {}},
                                   {"hac", ConfigKind::kHAC, {}},
                                   {"bcp", ConfigKind::kBCP, {}}};
    for (const cpc::compress::CodecKind kind : cpc::compress::kAllCodecs) {
      const cpc::compress::Codec codec(kind);
      out.push_back({std::string("cpp-") + codec.name(), ConfigKind::kCPP, codec});
    }
    return out;
  }();
  return configs;
}

const ConfigSpec& config_by_label(const std::string& label) {
  for (const ConfigSpec& config : all_configs()) {
    if (config.label == label) return config;
  }
  throw std::invalid_argument("unknown config label " + label);
}

std::string TraceKey::id() const {
  return kernel->name + "#" + std::to_string(seed);
}

Plan make_plan(const std::string& name, std::uint64_t seed) {
  Plan plan;
  plan.name = name;
  const auto& kernels = cpc::workload::all_workloads();
  if (name == "paper-grid") {
    for (const auto& kernel : kernels) plan.traces.push_back({&kernel, kGridOps, seed});
    plan.cells = labels({"bc", "bcc", "hac", "bcp", "cpp-paper"});
  } else if (name == "cpp-codec-grid") {
    for (const char* kernel : kCodecGridKernels) {
      plan.traces.push_back({&cpc::workload::find_workload(kernel), kGridOps, seed});
    }
    plan.cells = labels({"bc", "cpp-paper", "cpp-fpc", "cpp-bdi", "cpp-wkdm"});
  } else if (name == "seed-sweep") {
    for (std::uint64_t s = 0; s < kSweepSeeds; ++s) {
      for (const auto& kernel : kernels) {
        plan.traces.push_back({&kernel, kSweepOps, seed + s});
      }
    }
    plan.cells = labels({"bc", "cpp-paper"});
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  // Every trace of the grids; the first seed's traces of the sweep, which
  // keeps the traced run's extra cells within its time budget.
  plan.probe_traces = name == "seed-sweep" ? kernels.size() : plan.traces.size();
  return plan;
}

std::vector<cpc::sim::Job> make_jobs(
    const Plan& plan,
    const std::vector<std::shared_ptr<const cpc::cpu::Trace>>& traces) {
  std::vector<cpc::sim::Job> jobs;
  for (std::size_t t = 0; t < plan.traces.size(); ++t) {
    for (const ConfigSpec& config : plan.cells) {
      cpc::sim::Job job = cpc::sim::make_config_codec_job(
          *plan.traces[t].kernel, plan.traces[t].ops, plan.traces[t].seed,
          config.kind, config.codec);
      job.trace = traces[t];
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

ReplayResult replay(std::span<const cpc::cpu::MicroOp> trace,
                    cpc::cache::MemoryHierarchy& hierarchy) {
  ReplayResult result;
  for (const cpc::cpu::MicroOp& op : trace) {
    if (op.kind == cpc::cpu::OpKind::kLoad) {
      std::uint32_t value = 0;
      hierarchy.read(op.addr, value);
      ++result.loads;
      result.mismatches += value != op.value;
    } else if (op.kind == cpc::cpu::OpKind::kStore) {
      hierarchy.write(op.addr, op.value);
    } else {
      continue;
    }
    ++result.accesses;
  }
  return result;
}

LineImages line_images(std::span<const cpc::cpu::MicroOp> trace,
                       const cpc::mem::SparseMemory& memory) {
  constexpr std::uint32_t kLineBytes = LineImages::kWords * 4;
  LineImages images;
  std::unordered_set<std::uint32_t> seen;
  for (const cpc::cpu::MicroOp& op : trace) {
    if (!cpc::cpu::is_memory_op(op.kind)) continue;
    const std::uint32_t base = op.addr / kLineBytes * kLineBytes;
    if (!seen.insert(base).second) continue;
    images.bases.push_back(base);
    images.words.resize(images.words.size() + LineImages::kWords);
    memory.read_words(base, LineImages::kWords,
                      images.words.data() + images.words.size() - LineImages::kWords);
  }
  return images;
}

std::uint64_t classify_lines(const cpc::compress::Codec& codec,
                             const LineImages& lines, unsigned reps) {
  std::uint64_t compressible = 0;
  for (unsigned r = 0; r < reps; ++r) {
    asm volatile("" : : "r"(lines.words.data()) : "memory");  // keep every pass
    for (std::size_t i = 0; i < lines.bases.size(); ++i) {
      const cpc::compress::WordClassMasks masks = codec.classify_words(
          lines.words.data() + i * LineImages::kWords, LineImages::kWords,
          lines.bases[i]);
      compressible += static_cast<std::uint64_t>(
          __builtin_popcount(masks.compressible()));
    }
  }
  return compressible / reps;
}

std::uint64_t compress_lines(const cpc::compress::Codec& codec,
                             const LineImages& lines, unsigned reps) {
  std::uint64_t bits = 0;
  for (unsigned r = 0; r < reps; ++r) {
    asm volatile("" : : "r"(lines.words.data()) : "memory");  // keep every pass
    for (std::size_t i = 0; i < lines.bases.size(); ++i) {
      bits += codec
                  .compress_line(lines.words.data() + i * LineImages::kWords,
                                 LineImages::kWords, lines.bases[i])
                  .total_bits();
    }
  }
  return bits / reps;
}

}  // namespace perfbench
