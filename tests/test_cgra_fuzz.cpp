// Property-based fuzzing of the whole CGRA toolflow.
//
// A seeded generator emits random-but-well-formed kernels (states, params,
// arithmetic, sqrt/abs/min/max/floor, compares, ternaries, sensor IO,
// optional pipeline_split), which are compiled onto random grids and
// executed. Properties checked per seed:
//   * the compiler accepts the program (it is well-formed by construction),
//   * the independent schedule verifier passes (done inside schedule_dfg),
//   * functional and cycle-accurate execution agree bit-exactly over many
//     iterations, including sensor-write sequences,
//   * execution is deterministic across machine instances,
//   * no state ever becomes non-finite (the generator avoids /0 and
//     sqrt of negatives by construction).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "cgra/batch.hpp"
#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"
#include "core/random.hpp"

namespace citl::cgra {
namespace {

/// Generates a random well-formed kernel. All generated expressions keep
/// values finite: divisions use (1 + x*x) denominators, sqrt takes
/// absolute values, and every state update is contracted towards a bounded
/// range through a final clamp-with-ternary.
class KernelGenerator {
 public:
  explicit KernelGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    const int n_states = 1 + static_cast<int>(rng_.next_u64() % 3);
    const int n_params = static_cast<int>(rng_.next_u64() % 3);
    const int n_locals = 2 + static_cast<int>(rng_.next_u64() % 6);
    const bool pipelined = rng_.uniform() < 0.5;

    for (int i = 0; i < n_params; ++i) {
      os << "param float p" << i << " = " << literal(rng_.uniform(0.1, 2.0))
         << ";\n";
      vars_.push_back("p" + std::to_string(i));
    }
    for (int i = 0; i < n_states; ++i) {
      os << "state float s" << i << " = " << literal(rng_.uniform(-1.0, 1.0))
         << ";\n";
      vars_.push_back("s" + std::to_string(i));
      states_.push_back("s" + std::to_string(i));
    }
    // A sensor read contributes an external value.
    os << "float input = sensor_read(" << literal(region_base(SensorRegion::kRefBuf))
       << " + " << literal(std::floor(rng_.uniform(0.0, 16.0))) << ");\n";
    vars_.push_back("input");

    const int split_after =
        pipelined ? 1 + static_cast<int>(rng_.next_u64() %
                                         static_cast<std::uint64_t>(n_locals))
                  : -1;
    for (int i = 0; i < n_locals; ++i) {
      os << "float t" << i << " = " << expression(2) << ";\n";
      vars_.push_back("t" + std::to_string(i));
      if (i == split_after) {
        os << "pipeline_split();\n";
        // Stage-0 names stay readable in stage 1 — nothing to do.
      }
    }
    // Side effect: write something observable.
    os << "sensor_write(" << literal(region_base(SensorRegion::kActuator))
       << ", " << vars_.back() << ");\n";
    // Contracted state updates keep the iteration bounded.
    for (const std::string& s : states_) {
      const std::string e = expression(1);
      os << s << " = (" << e << ") * 0.25 + (" << s << ") * 0.5;\n";
      os << s << " = " << s << " > 8.0 ? 8.0 : (" << s
         << " < -8.0 ? -8.0 : " << s << ");\n";
    }
    return os.str();
  }

 private:
  static std::string literal(double v) {
    std::ostringstream os;
    os.precision(9);
    os << v;
    std::string s = os.str();
    if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) {
      s += ".0";
    }
    if (!s.empty() && s[0] == '-') return "(0.0 - " + s.substr(1) + ")";
    return s;
  }

  std::string pick_var() {
    return vars_[static_cast<std::size_t>(rng_.next_u64() % vars_.size())];
  }

  std::string expression(int depth) {
    if (depth == 0 || rng_.uniform() < 0.25) {
      return rng_.uniform() < 0.3 ? literal(rng_.uniform(-2.0, 2.0))
                                  : pick_var();
    }
    switch (rng_.next_u64() % 8) {
      case 0:
        return "(" + expression(depth - 1) + " + " + expression(depth - 1) + ")";
      case 1:
        return "(" + expression(depth - 1) + " - " + expression(depth - 1) + ")";
      case 2:
        return "(" + expression(depth - 1) + " * " + expression(depth - 1) + ")";
      case 3:  // safe division
        return "(" + expression(depth - 1) + " / (1.0 + " +
               expression(depth - 1) + " * " + expression(depth - 1) + "))";
      case 4:  // safe sqrt
        return "sqrtf(fabsf(" + expression(depth - 1) + "))";
      case 5:
        return "fminf(" + expression(depth - 1) + ", " + expression(depth - 1) +
               ")";
      case 6:
        return "(" + expression(depth - 1) + " < " + expression(depth - 1) +
               " ? " + expression(depth - 1) + " : " + expression(depth - 1) +
               ")";
      default:
        return "floorf(" + expression(depth - 1) + ")";
    }
  }

  Rng rng_;
  std::vector<std::string> vars_;
  std::vector<std::string> states_;
};

/// Deterministic pseudo-sensor bus recording writes.
class FuzzBus final : public SensorBus {
 public:
  // Reads must be pure functions of the address: the functional and
  // cycle-accurate machines are free to order loads differently.
  double read(SensorRegion region, double offset) override {
    return 0.25 * std::sin(static_cast<double>(region_code(region)) +
                           0.37 * offset);
  }
  void write(SensorRegion, double offset, double value) override {
    if (std::isfinite(value)) {
      checksum += offset + value;
    } else {
      saw_nonfinite = true;
    }
  }
  double checksum = 0.0;
  bool saw_nonfinite = false;

 private:
  static int region_code(SensorRegion r) { return static_cast<int>(r); }
};

class CgraFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CgraFuzz, FunctionalEqualsCycleAccurateAndStaysFinite) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  KernelGenerator gen(seed * 0x9e3779b9u + 1);
  const std::string source = gen.generate();
  SCOPED_TRACE("kernel:\n" + source);

  Rng grid_rng(seed);
  const int rows = 3 + static_cast<int>(grid_rng.next_u64() % 3);
  const int cols = 3 + static_cast<int>(grid_rng.next_u64() % 3);
  const CgraArch arch = make_grid(rows, cols);

  CompiledKernel kernel;
  ASSERT_NO_THROW(kernel = compile_kernel(source, arch)) << source;

  FuzzBus bus_f, bus_c, bus_d;
  BatchedCgraMachine mf(kernel, {&bus_f});
  CgraMachine mc(kernel, bus_c);
  BatchedCgraMachine md(kernel, {&bus_d});  // determinism witness

  for (int iter = 0; iter < 40; ++iter) {
    mf.run_iteration_all_lanes();
    mc.run_iteration_cycle_accurate();
    md.run_iteration_all_lanes();
    for (const auto& s : kernel.dfg.states()) {
      const double vf = api::kernel_state(mf, s.name);
      ASSERT_TRUE(std::isfinite(vf))
          << s.name << " diverged at iteration " << iter;
      ASSERT_DOUBLE_EQ(vf, api::kernel_state(mc, s.name))
          << s.name << " functional/cycle-accurate mismatch at " << iter;
      ASSERT_DOUBLE_EQ(vf, api::kernel_state(md, s.name))
          << "nondeterminism at " << iter;
    }
  }
  EXPECT_DOUBLE_EQ(bus_f.checksum, bus_c.checksum);
  EXPECT_FALSE(bus_f.saw_nonfinite);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgraFuzz, ::testing::Range(0, 24));

}  // namespace
}  // namespace citl::cgra
