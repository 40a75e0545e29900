// Shared declarations of the perfbench harness: options, the per-run
// outcome every workload fills, and the seed -> engine-config mapping.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "hil/framework.hpp"
#include "hil/turnloop.hpp"

namespace citl::obs {
class Tracer;
}  // namespace citl::obs

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 8;
  bool trace = false;
  /// Directory the harness owns for journals and trace files; wiped per use.
  std::string state_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed (gate mismatches
/// and typed errors both count as failures), and its metrics in order.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string exec_tier;  ///< resolved tier of the measured engine

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `n` failed operations with a reason on stderr.
  void fail(std::uint64_t n, const std::string& why);
};

/// The session every workload runs: the paper's operating point
/// (api::paper_operating_point, default exec tier) with the run's noise
/// stream. `stream` separates engines within one run.
[[nodiscard]] citl::api::SessionConfig session_config(std::uint64_t seed,
                                                      unsigned stream = 0);

/// Sample-accurate engine at the same point. The framework has no analytic
/// detector noise, so the seed drives its ADC noise stream instead.
[[nodiscard]] citl::hil::FrameworkConfig chain_config(std::uint64_t seed);

/// Untraced runs fill the end-to-end metrics; traced runs (tracer != null)
/// record spans into `tracer` and add the tracing-overhead metrics.
Outcome run_turnloop(const Options& opt, citl::obs::Tracer* tracer);
Outcome run_chain(const Options& opt, citl::obs::Tracer* tracer);
Outcome run_served(const Options& opt, citl::obs::Tracer* tracer);

/// The per-layer probe suite (layers.cpp): appends every layer metric to
/// `out`, recording its sampled spans into `tracer`.
void run_layers(const Options& opt, citl::obs::Tracer& tracer, Outcome& out);

/// Prints the per-layer metrics in `metrics` with the end-to-end metric each
/// should move.
void print_layer_table(const std::vector<Metric>& metrics);

}  // namespace perfbench
