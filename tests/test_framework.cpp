// Sample-accurate framework (§III, Fig. 3): the full converter-rate chain.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cgra/batch.hpp"
#include "cgra/exec_tier.hpp"
#include "core/units.hpp"
#include "hil/experiment.hpp"
#include "hil/framework.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sweep/metrics.hpp"

namespace citl::hil {
namespace {

FrameworkConfig paper_framework() {
  FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  fc.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  return fc;
}

TEST(Framework, InitialisesAfterFourPeriods) {
  // §IV-B: "the program first waits for a valid measurement of four full
  // sine waves before starting the initialisation process."
  Framework fw(paper_framework());
  EXPECT_FALSE(fw.initialised());
  fw.run_seconds(2.5 / 800.0e3);  // < 4 periods: still waiting
  EXPECT_FALSE(fw.initialised());
  EXPECT_EQ(fw.cgra_runs(), 0);
  fw.run_seconds(5.0 / 800.0e3);
  EXPECT_TRUE(fw.initialised());
  EXPECT_GT(fw.cgra_runs(), 0);
}

TEST(Framework, CgraRunsOncePerRevolution) {
  Framework fw(paper_framework());
  fw.run_seconds(10.0e-3);
  // 10 ms at 800 kHz = 8000 revolutions, minus the init window.
  EXPECT_NEAR(static_cast<double>(fw.cgra_runs()), 8000.0, 30.0);
}

TEST(Framework, BeamSignalIsPulseTrainWithinDacRange) {
  Framework fw(paper_framework());
  fw.run_seconds(2.0e-3);
  double peak = 0.0;
  int above = 0, total = 0;
  for (int i = 0; i < 100'000; ++i) {
    const FrameworkOutputs out = fw.tick();
    peak = std::max(peak, out.beam_v);
    if (out.beam_v > 0.3) ++above;
    ++total;
  }
  EXPECT_NEAR(peak, 0.6, 0.05);  // configured pulse amplitude
  // Short pulses: duty cycle well below 10%.
  EXPECT_LT(above, total / 10);
  EXPECT_GT(above, 0);
}

TEST(Framework, PulseRepetitionMatchesRevolution) {
  Framework fw(paper_framework());
  fw.run_seconds(2.0e-3);
  // Count beam pulses over 1 ms: one bunch -> 800 pulses.
  int pulses = 0;
  bool in_pulse = false;
  for (int i = 0; i < 250'000; ++i) {
    const double v = fw.tick().beam_v;
    if (!in_pulse && v > 0.3) {
      ++pulses;
      in_pulse = true;
    } else if (in_pulse && v < 0.05) {
      in_pulse = false;
    }
  }
  EXPECT_NEAR(pulses, 800, 3);
}

TEST(Framework, PhaseSettlesNearZeroWithoutStimulus) {
  FrameworkConfig fc = paper_framework();
  fc.control_enabled = false;
  Framework fw(fc);
  fw.run_seconds(8.0e-3);
  // Offsets from detector dead time stay below ~4 degrees (the paper also
  // reports a constant offset, §V).
  EXPECT_LT(std::abs(rad_to_deg(fw.last_phase_rad())), 4.0);
}

TEST(Framework, JumpResponseDampedByControl) {
  FrameworkConfig fc = paper_framework();
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);
  Framework fw(fc);
  fw.run_seconds(30.0e-3);
  const auto& t = fw.phase_trace().times();
  const auto& v = fw.phase_trace().values();
  ASSERT_GT(v.size(), 1000u);
  const double baseline = mean_in_window(t, v, 1.0e-3, 2.0e-3);
  const double swing = peak_to_peak(t, v, 2.0e-3, 3.5e-3);
  const double late_swing = peak_to_peak(t, v, 25.0e-3, 30.0e-3);
  EXPECT_NEAR(rad_to_deg(swing), 16.0, 3.0);       // ~2x the 8 deg jump
  EXPECT_LT(late_swing, 0.2 * swing);              // damped
  const double settled = mean_in_window(t, v, 25.0e-3, 30.0e-3);
  EXPECT_NEAR(rad_to_deg(settled - baseline), -8.0, 1.5);
}

TEST(Framework, ClosedLoopDampingRegression) {
  // Regression pin for the paper's Fig. 5 experiment: 8 deg phase jump, FIR
  // controller at f_pass = 1.4 kHz, gain = -5, recursion = 0.99 (the
  // ControllerConfig defaults). Calibrated behaviour at this revision: the
  // per-synchrotron-period peak-to-peak decays 14.5 -> 8.7 -> 5.2 -> 2.5 ->
  // 1.6 -> 1.0 -> 0.7 -> 0.5 deg, envelope time constant ~2.1 ms. The
  // thresholds below leave a 2x margin; a controller or chain change that
  // trips them has genuinely slowed the loop down.
  FrameworkConfig fc = paper_framework();
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);
  Framework fw(fc);
  fw.run_seconds(9.6e-3);
  const auto& t = fw.phase_trace().times();
  const auto& v = fw.phase_trace().values();
  const double t_sync = 1.0 / 1280.0;

  const double first_swing = peak_to_peak(t, v, 2.0e-3, 2.0e-3 + 1.2 * t_sync);
  EXPECT_NEAR(rad_to_deg(first_swing), 16.0, 3.0);

  // Amplitude after eight synchrotron periods: calibrated ~0.5 deg p2p.
  const double late = peak_to_peak(t, v, 2.0e-3 + 7.0 * t_sync,
                                   2.0e-3 + 9.0 * t_sync);
  EXPECT_LT(rad_to_deg(late), 1.0);
  EXPECT_LT(late, 0.10 * first_swing);

  // Envelope fit over the whole decay: calibrated tau = 2.1 ms.
  const double tau =
      sweep::fit_damping_tau_s(t, v, 2.0e-3, 9.6e-3, 1280.0);
  EXPECT_GT(tau, 1.2e-3);
  EXPECT_LT(tau, 3.5e-3);
}

TEST(Framework, MonitorMirrorsSelection) {
  FrameworkConfig fc = paper_framework();
  Framework fw(fc);
  fw.params().select_monitor(MonitorSource::kBeamSignalMirror);
  fw.run_seconds(2.0e-3);
  double max_mon = 0.0, max_beam = 0.0;
  for (int i = 0; i < 50'000; ++i) {
    const auto out = fw.tick();
    max_mon = std::max(max_mon, out.monitor_v);
    max_beam = std::max(max_beam, out.beam_v);
  }
  EXPECT_NEAR(max_mon, max_beam, 0.01);  // mirrors the beam pulses

  fw.params().select_monitor(MonitorSource::kPhaseDifference);
  fw.params().set("beam_pulse_scale", 0.0);
  double max_mon2 = 0.0;
  for (int i = 0; i < 50'000; ++i) {
    max_mon2 = std::max(max_mon2, std::abs(fw.tick().monitor_v));
  }
  EXPECT_DOUBLE_EQ(max_mon2, 0.0);  // scaled to nothing at runtime
}

TEST(Framework, RecordingCanBeDisabled) {
  FrameworkConfig fc = paper_framework();
  Framework fw(fc);
  fw.params().set("record_enable", 0.0);
  fw.run_seconds(2.0e-3);
  EXPECT_EQ(fw.phase_trace().size(), 0u);
  EXPECT_EQ(fw.beam_trace().size(), 0u);
}

TEST(Framework, NoRealtimeViolationsAtPaperRate) {
  // Pipelined 1-bunch schedule sustains ≈1.28 MHz — 800 kHz is safe.
  Framework fw(paper_framework());
  fw.run_seconds(5.0e-3);
  EXPECT_EQ(fw.realtime_violations(), 0);
}

TEST(Framework, RealtimeViolationsDetectedWhenTooSlow) {
  // The plain 8-bunch kernel (150 ticks) cannot keep up with 800 kHz...
  FrameworkConfig fc = paper_framework();
  fc.kernel.pipelined = false;
  fc.kernel.n_bunches = 8;
  Framework fw(fc);
  const double fmax = fw.kernel().schedule.max_revolution_frequency_hz(
      fw.kernel().arch.clock_hz);
  ASSERT_LT(fmax, 800.0e3);  // the §IV-B motivation for loop pipelining
  fw.run_seconds(2.0e-3);
  EXPECT_GT(fw.realtime_violations(), 0);
}

TEST(Framework, AdcNoiseToleratedByDetectors) {
  FrameworkConfig fc = paper_framework();
  fc.adc_noise_rms_v = 0.003;  // ~25 LSB of noise
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);
  Framework fw(fc);
  fw.run_seconds(12.0e-3);
  EXPECT_EQ(fw.realtime_violations(), 0);
  const auto& t = fw.phase_trace().times();
  const auto& v = fw.phase_trace().values();
  const double swing = peak_to_peak(t, v, 2.0e-3, 3.5e-3);
  EXPECT_NEAR(rad_to_deg(swing), 16.0, 4.0);  // physics still visible
}

TEST(Framework, AgreesWithTurnLoopOnJumpResponse) {
  // The sample-accurate chain and the turn-level loop describe the same
  // dynamics: first-swing amplitude and oscillation frequency agree.
  FrameworkConfig fc = paper_framework();
  fc.control_enabled = false;
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);
  Framework fw(fc);
  fw.run_seconds(8.0e-3);
  const auto& tf = fw.phase_trace().times();
  const auto& vf = fw.phase_trace().values();
  const double f_fw =
      estimate_oscillation_frequency_hz(tf, vf, 2.2e-3, 7.0e-3);

  TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = fc.f_ref_hz;
  tl.gap_voltage_v = fc.gap_voltage_v;
  tl.control_enabled = false;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);
  TurnLoop loop(tl);
  std::vector<double> ts, ph;
  loop.run(static_cast<std::int64_t>(8.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             ts.push_back(r.time_s);
             ph.push_back(r.phase_rad);
           });
  const double f_tl = estimate_oscillation_frequency_hz(ts, ph, 2.2e-3, 7.0e-3);
  EXPECT_NEAR(f_fw, f_tl, 0.05 * f_tl);
  const double swing_fw = peak_to_peak(tf, vf, 2.0e-3, 3.5e-3);
  const double swing_tl = peak_to_peak(ts, ph, 2.0e-3, 3.5e-3);
  EXPECT_NEAR(swing_fw, swing_tl, 0.15 * swing_tl);
}

TEST(Framework, CycleAccurateModelsMatchFunctionalOnEveryTier) {
  // cycle_accurate / cycle_accurate_cgra only swap the owned model (the
  // cycle-accurate CgraMachine for the functional 1-lane machine): turn
  // records, DAC outputs and the phase trace stay bit-identical on every
  // exec tier.
  const ctrl::PhaseJumpProgramme jump(deg_to_rad(8.0), 1.0, 0.2e-3);
  for (cgra::ExecTier tier :
       {cgra::ExecTier::kInterpreter, cgra::ExecTier::kBytecode,
        cgra::ExecTier::kNative}) {
    SCOPED_TRACE(std::string(cgra::exec_tier_name(tier)));

    TurnLoopConfig tl;
    tl.kernel.pipelined = true;
    tl.f_ref_hz = 800.0e3;
    tl.gap_voltage_v = paper_framework().gap_voltage_v;
    tl.jumps = jump;
    tl.exec_tier = tier;
    TurnLoopConfig tl_ca = tl;
    tl_ca.cycle_accurate = true;
    TurnLoop lf(tl), lc(tl_ca);
    ASSERT_NE(dynamic_cast<cgra::CgraMachine*>(&lc.model()), nullptr);
    ASSERT_NE(dynamic_cast<cgra::BatchedCgraMachine*>(&lf.model()), nullptr);
    for (int i = 0; i < 2000; ++i) {
      const TurnRecord rf = lf.step();
      const TurnRecord rc = lc.step();
      ASSERT_EQ(rf.time_s, rc.time_s) << "turn " << i;
      ASSERT_EQ(rf.phase_rad, rc.phase_rad) << "turn " << i;
      ASSERT_EQ(rf.dt_s, rc.dt_s) << "turn " << i;
      ASSERT_EQ(rf.dgamma, rc.dgamma) << "turn " << i;
      ASSERT_EQ(rf.correction_hz, rc.correction_hz) << "turn " << i;
      ASSERT_EQ(rf.gap_phase_rad, rc.gap_phase_rad) << "turn " << i;
    }

    FrameworkConfig fc = paper_framework();
    fc.jumps = jump;
    fc.exec_tier = tier;
    FrameworkConfig fc_ca = fc;
    fc_ca.cycle_accurate_cgra = true;
    Framework ff(fc), fca(fc_ca);
    ASSERT_NE(dynamic_cast<cgra::CgraMachine*>(&fca.machine()), nullptr);
    ASSERT_NE(dynamic_cast<cgra::BatchedCgraMachine*>(&ff.machine()),
              nullptr);
    for (int i = 0; i < 400'000; ++i) {
      const FrameworkOutputs of = ff.tick();
      const FrameworkOutputs oc = fca.tick();
      ASSERT_EQ(of.beam_v, oc.beam_v) << "tick " << i;
      ASSERT_EQ(of.monitor_v, oc.monitor_v) << "tick " << i;
    }
    EXPECT_GT(ff.cgra_runs(), 0);
    EXPECT_EQ(ff.cgra_runs(), fca.cgra_runs());
    EXPECT_EQ(ff.phase_trace().times(), fca.phase_trace().times());
    EXPECT_EQ(ff.phase_trace().values(), fca.phase_trace().values());
    EXPECT_FALSE(ff.phase_trace().values().empty());
  }
}

}  // namespace
}  // namespace citl::hil
