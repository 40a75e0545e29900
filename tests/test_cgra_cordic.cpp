// CORDIC trigonometric operators (§III-C lists CORDIC in the PE palette)
// and the waveform-synthesis beam kernel built on them.
#include <gtest/gtest.h>

#include <cmath>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/lower.hpp"
#include "cgra/machine.hpp"
#include "api/api.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "hil/experiment.hpp"
#include "hil/turnloop.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::cgra {
namespace {

/// Runs a one-op sin/cos kernel at a given angle (via a param).
double run_trig(const char* fn, double angle, Precision precision) {
  static const CgraArch arch = grid_3x3();
  const std::string src = std::string("param float a = 0.0;\n") +
                          "state float out = 0.0;\n" +
                          "out = " + fn + "(a);\n";
  const CompiledKernel k = compile_kernel(src, arch);
  NullSensorBus bus;
  BatchedCgraMachine m(k, {&bus}, precision);
  api::set_kernel_param(m, "a", angle);
  m.run_iteration_all_lanes();
  return api::kernel_state(m, "out");
}

TEST(Cordic, SineAccuracyAcrossRange) {
  double worst = 0.0;
  for (double a = -4.0 * kPi; a <= 4.0 * kPi; a += 0.0773) {
    worst = std::max(
        worst, std::abs(run_trig("sinf", a, Precision::kFloat64) - std::sin(a)));
  }
  EXPECT_LT(worst, 1e-8);  // 28 CORDIC iterations in double
}

TEST(Cordic, CosineAccuracyAcrossRange) {
  double worst = 0.0;
  for (double a = -4.0 * kPi; a <= 4.0 * kPi; a += 0.0773) {
    worst = std::max(
        worst, std::abs(run_trig("cosf", a, Precision::kFloat64) - std::cos(a)));
  }
  EXPECT_LT(worst, 1e-8);
}

TEST(Cordic, Float32AccuracyWithinFewUlp) {
  double worst = 0.0;
  for (double a = -kPi; a <= kPi; a += 0.0317) {
    worst = std::max(
        worst, std::abs(run_trig("sinf", a, Precision::kFloat32) - std::sin(a)));
  }
  EXPECT_LT(worst, 1e-5);  // float32 CORDIC: a few ulp of binary32
}

TEST(Cordic, PythagoreanIdentityHolds) {
  for (double a : {-2.5, -0.3, 0.0, 0.71, 1.57, 3.0}) {
    const double s = run_trig("sinf", a, Precision::kFloat64);
    const double c = run_trig("cosf", a, Precision::kFloat64);
    EXPECT_NEAR(s * s + c * c, 1.0, 1e-8) << "a = " << a;
  }
}

TEST(Cordic, ConstantFolding) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "s = s + sinf(0.0) + cosf(0.0);\n");
  // sinf(0) + cosf(0) folds to 1 — no trig node should survive.
  for (const auto& n : g.nodes()) {
    EXPECT_NE(n.kind, OpKind::kSin);
    EXPECT_NE(n.kind, OpKind::kCos);
  }
}

TEST(Cordic, SchedulesOnlyOnCordicPes) {
  const CgraArch arch = grid_4x4();
  const CompiledKernel k = compile_kernel(
      "param float a = 0.5;\n"
      "state float s = 0.0;\n"
      "s = s * 0.5 + sinf(a + s);\n",
      arch);
  for (std::size_t i = 0; i < k.dfg.size(); ++i) {
    if (k.dfg.node(static_cast<NodeId>(i)).kind == OpKind::kSin) {
      EXPECT_TRUE(arch.caps(k.schedule.placement[i].pe).cordic);
    }
  }
}

TEST(Cordic, MissingCapabilityIsAConfigError) {
  CgraArch arch = grid_3x3();
  for (auto& pe : arch.pes) pe.cordic = false;
  EXPECT_THROW(compile_kernel("state float s = 0.0;\ns = sinf(s + 1.0);\n",
                              arch),
               ConfigError);
}

TEST(Cordic, LatencyIsAccountedInSchedule) {
  const CgraArch arch = grid_3x3();
  const CompiledKernel k = compile_kernel(
      "param float a = 0.5;\n"
      "state float s = 0.0;\n"
      "s = sinf(sinf(a + s * 0.0));\n",  // two chained CORDIC rotations
      arch);
  EXPECT_GE(k.schedule.length, 2 * arch.latency.cordic);
}

// --- the waveform-synthesis beam kernel -------------------------------------

TEST(AnalyticKernel, CompilesForPaperConfigurations) {
  for (int bunches : {1, 4}) {
    for (bool pipelined : {false, true}) {
      BeamKernelConfig kc;
      kc.gamma0 = 1.2258;
      kc.n_bunches = bunches;
      kc.pipelined = pipelined;
      EXPECT_NO_THROW(
          compile_kernel(analytic_beam_kernel_source(kc), grid_5x5()));
    }
  }
}

TEST(AnalyticKernel, MatchesSampledKernelTrajectory) {
  // Same stimulus, open loop: the CORDIC-synthesised gap voltage must drive
  // the same oscillation as the sampled one (sub-percent once both are well
  // above converter resolution).
  hil::TurnLoopConfig base;
  base.kernel.pipelined = true;
  base.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  base.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring,
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m),
      1280.0);
  base.control_enabled = false;
  base.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.3e-3);

  hil::TurnLoopConfig synth = base;
  synth.synthesize_waveform = true;

  hil::TurnLoop sampled(base), synthesized(synth);
  double worst_deg = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const double a = rad_to_deg(sampled.step().phase_rad);
    const double b = rad_to_deg(synthesized.step().phase_rad);
    worst_deg = std::max(worst_deg, std::abs(a - b));
  }
  EXPECT_LT(worst_deg, 0.4);  // on a 16-degree swing
}

TEST(AnalyticKernel, ParametersDriveTheOscillation) {
  hil::TurnLoopConfig cfg;
  cfg.kernel.pipelined = true;
  cfg.f_ref_hz = 800.0e3;
  cfg.gap_voltage_v = 4860.0;
  cfg.control_enabled = false;
  cfg.synthesize_waveform = true;
  hil::TurnLoop loop(cfg);
  // No jump, no displacement: quiescent.
  loop.run(1000);
  EXPECT_NEAR(loop.step().dt_s, 0.0, 1e-11);
  // Displace: oscillates at f_s like the physics demands.
  loop.displace(0.0, 5.0e-9);
  double min_dt = 1e9, max_dt = -1e9;
  loop.run(static_cast<std::int64_t>(1.5e-3 * cfg.f_ref_hz),
           [&](const hil::TurnRecord& r) {
             min_dt = std::min(min_dt, r.dt_s);
             max_dt = std::max(max_dt, r.dt_s);
           });
  EXPECT_NEAR(max_dt, 5.0e-9, 1.0e-9);
  EXPECT_NEAR(min_dt, -5.0e-9, 1.0e-9);
}

TEST(AnalyticKernel, TradesLoadsForCordic) {
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.pipelined = true;
  const Dfg sampled = compile_to_dfg(beam_kernel_source(kc));
  const Dfg analytic = compile_to_dfg(analytic_beam_kernel_source(kc));
  EXPECT_GT(sampled.count_class(OpClass::kMem),
            analytic.count_class(OpClass::kMem));
  EXPECT_EQ(sampled.count_class(OpClass::kCordic), 0u);
  EXPECT_GT(analytic.count_class(OpClass::kCordic), 0u);
}

}  // namespace
}  // namespace citl::cgra
