// The showcase kernels shipped in examples/kernels/ (embedded here so the
// test suite does not depend on run-time paths): the toolflow is generic
// beyond the beam model.
#include <gtest/gtest.h>

#include <cmath>

#include "cgra/batch.hpp"
#include "cgra/machine.hpp"
#include "api/api.hpp"
#include "cgra/schedule.hpp"

namespace citl::cgra {
namespace {

constexpr const char* kLorenz = R"(
param float sigma = 10.0;
param float rho = 28.0;
param float beta = 2.6666667;
param float h = 0.005;
state float x = 1.0;
state float y = 1.0;
state float z = 1.0;
float dx = sigma * (y - x);
float dy = x * (rho - z) - y;
float dz = x * y - beta * z;
x = x + h * dx;
y = y + h * dy;
z = z + h * dz;
sensor_write(294912.0, x);
)";

constexpr const char* kPll = R"(
param float k_p = 0.15;
param float k_i = 0.01;
param float f_in = 0.03;
state float theta_in = 0.0;
state float theta = 0.0;
state float integ = 0.0;
theta_in = theta_in + 6.2831853 * f_in;
float input = sinf(theta_in);
float err = input * cosf(theta);
integ = integ + k_i * err;
float step = 6.2831853 * f_in + k_p * err + integ;
float limited = step > 0.5 ? 0.5 : (step < -0.5 ? -0.5 : step);
theta = theta + limited;
sensor_write(294912.0, err);
)";

TEST(ShowcaseKernels, LorenzStaysOnTheAttractor) {
  const CompiledKernel k = compile_kernel(kLorenz, grid_4x4());
  NullSensorBus bus;
  BatchedCgraMachine m(k, {&bus});
  double max_x = 0.0, min_x = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    m.run_iteration_all_lanes();
    const double x = api::kernel_state(m, "x");
    ASSERT_TRUE(std::isfinite(x)) << "iteration " << i;
    max_x = std::max(max_x, x);
    min_x = std::min(min_x, x);
    // The attractor is bounded: |x| < ~25 for these parameters.
    ASSERT_LT(std::abs(x), 40.0);
    ASSERT_LT(std::abs(api::kernel_state(m, "z")), 70.0);
  }
  // ...and chaotic: both lobes get visited.
  EXPECT_GT(max_x, 5.0);
  EXPECT_LT(min_x, -5.0);
}

TEST(ShowcaseKernels, LorenzFunctionalMatchesCycleAccurate) {
  const CompiledKernel k = compile_kernel(kLorenz, grid_4x4());
  NullSensorBus bus;
  BatchedCgraMachine a(k, {&bus});
  CgraMachine b(k, bus);
  for (int i = 0; i < 500; ++i) {
    a.run_iteration_all_lanes();
    b.run_iteration_cycle_accurate();
  }
  EXPECT_DOUBLE_EQ(api::kernel_state(a, "x"), api::kernel_state(b, "x"));
  EXPECT_DOUBLE_EQ(api::kernel_state(a, "z"), api::kernel_state(b, "z"));
}

TEST(ShowcaseKernels, PllTracksTheInputTone) {
  const CompiledKernel k = compile_kernel(kPll, grid_4x4());
  NullSensorBus bus;
  BatchedCgraMachine m(k, {&bus});
  for (int i = 0; i < 3000; ++i) m.run_iteration_all_lanes();  // acquisition
  // Once locked, the NCO advances at the input rate: the phase difference
  // stays bounded over thousands of further cycles.
  const double offset0 = api::kernel_state(m, "theta") - api::kernel_state(m, "theta_in");
  double worst = 0.0;
  for (int i = 0; i < 3000; ++i) {
    m.run_iteration_all_lanes();
    const double diff = api::kernel_state(m, "theta") - api::kernel_state(m, "theta_in");
    ASSERT_TRUE(std::isfinite(diff));
    worst = std::max(worst, std::abs(diff - offset0));
  }
  EXPECT_LT(worst, 1.0);  // < 1 rad of wander once locked
}

TEST(ShowcaseKernels, PllUsesCordicAndSelect) {
  const CompiledKernel k = compile_kernel(kPll, grid_4x4());
  std::size_t cordic = 0, selects = 0;
  for (const auto& n : k.dfg.nodes()) {
    if (n.kind == OpKind::kSin || n.kind == OpKind::kCos) ++cordic;
    if (n.kind == OpKind::kSelect) ++selects;
  }
  EXPECT_GE(cordic, 2u);
  EXPECT_GE(selects, 2u);
}

}  // namespace
}  // namespace citl::cgra
