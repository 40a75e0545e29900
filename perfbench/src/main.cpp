// perfbench: the citl end-to-end benchmark (see ../README.md).
//
//   perfbench --workload turnloop|chain|served --seed N --seconds S
//             --trace 0|1 --state-dir DIR
//
// Prints the run's environment, its metric table, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1 (spans are then
// written as Perfetto-loadable JSON to DIR/trace-<workload>.json).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "cgra/codegen.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"

using namespace perfbench;

namespace {

const std::set<std::string> kEndToEnd = {"setup_s",     "turns_per_s",
                                         "step_ms_p50", "step_ms_p90",
                                         "poll_ms_p50", "recover_s"};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

/// JSON string literal for the environment line (escapes quotes only; the
/// inputs are compiler and CPU identification strings).
std::string json_string(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    if (c != '\n') q += c;
  }
  return q + "\"";
}

/// Fills the benchmark-owned native kernel cache ($CITL_KERNEL_CACHE_DIR)
/// with every kernel the workloads run, before anything is timed: a cold
/// compile costs most of a second, a warm disk hit about 10 ms, and set-up
/// timings must not mix the two.
void warm_kernel_cache(std::uint64_t seed) {
  using namespace citl;
  auto& cache = cgra::NativeKernelCache::global();
  const hil::TurnLoop loop(api::to_turnloop_config(session_config(seed)));
  (void)cache.get(loop.kernel(), cgra::Precision::kFloat32, 1);
  hil::Framework fw(chain_config(seed));
  (void)cache.get(fw.kernel(), cgra::Precision::kFloat32, 1);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload turnloop|chain|served --seed N "
               "--seconds S --trace 0|1 --state-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--state-dir") {
      opt.state_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.state_dir.empty() || opt.seconds < 1) {
    return usage();
  }
  Outcome (*run)(const Options&, citl::obs::Tracer*) = nullptr;
  if (opt.workload == "turnloop") run = run_turnloop;
  if (opt.workload == "chain") run = run_chain;
  if (opt.workload == "served") run = run_served;
  if (run == nullptr) return usage();

  try {
    std::filesystem::create_directories(opt.state_dir);
    const bool counters = InstrCounter().available();
    warm_kernel_cache(opt.seed);
    using citl::cgra::NativeKernelCache;
    std::printf(
        "env {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
        "\"trace\": %d, \"nproc\": %u, \"cpu\": %s, \"harness_compiler\": %s, "
        "\"codegen_compiler\": %s, \"simd_arch\": %s, "
        "\"perf_counters\": %s}\n",
        json_string(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
        json_string(cpu_model()).c_str(), json_string(__VERSION__).c_str(),
        json_string(NativeKernelCache::compiler_version()).c_str(),
        json_string(NativeKernelCache::target_simd_arch()).c_str(),
        counters ? "true" : "false");
    std::fflush(stdout);

    // The layer probes run first, in a fresh process state, so their
    // instruction counts do not depend on what the workload left behind.
    citl::obs::Tracer tracer;
    tracer.set_enabled(true);
    Outcome layers;
    if (opt.trace) run_layers(opt, tracer, layers);
    Outcome out = run(opt, opt.trace ? &tracer : nullptr);
    std::printf("exec_tier %s\n", out.exec_tier.c_str());
    if (opt.trace) {
      out.attempted += layers.attempted;
      out.failed += layers.failed;
      out.metrics.insert(out.metrics.end(), layers.metrics.begin(),
                         layers.metrics.end());
      const std::string path =
          (std::filesystem::path(opt.state_dir) /
           ("trace-" + opt.workload + ".json"))
              .string();
      tracer.write_json(path);
      std::printf("spans: %zu written to %s\n", tracer.event_count(),
                  path.c_str());
    }

    // Untraced runs report the end-to-end metrics, traced runs the layers
    // (the traced run's end-to-end readings are printed for reference).
    std::string metrics;
    for (const Metric& m : out.metrics) {
      const bool reported = (kEndToEnd.count(m.name) != 0) != opt.trace;
      if (!reported || !opt.trace) {
        std::printf("%-28s %16.6f %-6s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), reported ? "" : " (traced, not reported)");
      }
      if (!reported) continue;
      if (!std::isfinite(m.value)) {
        out.fail(1, "metric " + m.name + " is not finite");
        continue;
      }
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      metrics += buf;
    }
    if (opt.trace) print_layer_table(out.metrics);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
