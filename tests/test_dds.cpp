// DDS signal synthesis: frequency accuracy, phase port, amplitude.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/simtime.hpp"
#include "core/units.hpp"
#include "sig/dds.hpp"

namespace citl::sig {
namespace {

/// Counts positive zero crossings over `ticks` samples.
int count_crossings(Dds& dds, int ticks) {
  int crossings = 0;
  double prev = dds.tick();
  for (int i = 1; i < ticks; ++i) {
    const double v = dds.tick();
    if (prev < 0.0 && v >= 0.0) ++crossings;
    prev = v;
  }
  return crossings;
}

TEST(DdsTest, FrequencyAccuracy) {
  Dds dds(kSampleClock, 800.0e3, 1.0);
  // 10 ms at 250 MHz = 2.5e6 ticks -> expect 8000 periods.
  const int crossings = count_crossings(dds, 2'500'000);
  EXPECT_NEAR(crossings, 8000, 1);
}

TEST(DdsTest, AmplitudeBound) {
  Dds dds(kSampleClock, 3.2e6, 0.8);
  double max_v = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    max_v = std::max(max_v, std::abs(dds.tick()));
  }
  EXPECT_LE(max_v, 0.8 + 1e-9);
  EXPECT_GT(max_v, 0.79);
}

TEST(DdsTest, MatchesIdealSine) {
  const double f = 800.0e3;
  Dds dds(kSampleClock, f, 1.0);
  double worst = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double expected = std::sin(kTwoPi * f * kSampleClock.to_seconds(i));
    worst = std::max(worst, std::abs(dds.tick() - expected));
  }
  // Interpolated 14-bit LUT: error far below one 14-bit ADC LSB (1.2e-4).
  EXPECT_LT(worst, 5e-5);
}

TEST(DdsTest, PhaseOffsetShiftsWaveform) {
  Dds a(kSampleClock, 1.0e6, 1.0);
  Dds b(kSampleClock, 1.0e6, 1.0);
  b.set_phase_offset(kPi / 2.0);  // b = cos where a = sin
  for (int i = 0; i < 1000; ++i) {
    const double t = kSampleClock.to_seconds(i);
    EXPECT_NEAR(a.tick(), std::sin(kTwoPi * 1.0e6 * t), 1e-4);
    EXPECT_NEAR(b.tick(), std::cos(kTwoPi * 1.0e6 * t), 1e-4);
  }
}

TEST(DdsTest, NegativePhaseOffsetWraps) {
  Dds dds(kSampleClock, 1.0e6, 1.0);
  dds.set_phase_offset(-kPi / 2.0);
  EXPECT_NEAR(dds.current(), -1.0, 1e-4);
  EXPECT_NEAR(dds.phase_offset_rad(), -kPi / 2.0, 1e-12);
}

TEST(DdsTest, PhaseContinuousRetune) {
  // Like the hardware, changing the tuning word must not jump the phase.
  Dds dds(kSampleClock, 800.0e3, 1.0);
  for (int i = 0; i < 12'345; ++i) dds.tick();
  const double before = dds.current();
  dds.set_frequency(801.0e3);
  const double after = dds.current();
  EXPECT_NEAR(before, after, 1e-9);
}

TEST(DdsTest, PhaseResetRestartsAtZero) {
  Dds dds(kSampleClock, 3.2e6, 1.0);
  for (int i = 0; i < 777; ++i) dds.tick();
  dds.reset_phase();
  EXPECT_NEAR(dds.current(), 0.0, 1e-6);
  EXPECT_NEAR(dds.phase_rad(), 0.0, 1e-9);
}

TEST(DdsTest, HarmonicRelationship) {
  // Gap DDS at h·f_ref stays phase-locked to the reference DDS: at every
  // reference positive zero crossing the gap phase is a multiple of 2π.
  Dds ref(kSampleClock, 800.0e3, 1.0);
  Dds gap(kSampleClock, 3.2e6, 1.0);
  double prev = ref.tick();
  gap.tick();
  int checked = 0;
  for (int i = 1; i < 1'000'000 && checked < 50; ++i) {
    const double r = ref.tick();
    const double g = gap.current();
    gap.tick();
    if (prev < 0.0 && r >= 0.0) {
      // Crossing within one sample: gap ≈ sin(small) ≈ small.
      EXPECT_NEAR(g, 0.0, 0.11);  // 4x frequency -> up to sin(4·2π/312)
      ++checked;
    }
    prev = r;
  }
  EXPECT_EQ(checked, 50);
}

TEST(DdsTest, RejectsNyquistViolation) {
  EXPECT_THROW(Dds(kSampleClock, 130.0e6, 1.0), std::logic_error);
  EXPECT_THROW(Dds(kSampleClock, -1.0, 1.0), std::logic_error);
}

TEST(DdsTest, SharedSineTableIsBitIdenticalToOwnTable) {
  // Framework builds one table and hands it to all three of its DDSs; each
  // must tick out exactly what a DDS with its own table produces.
  const Dds::SineTable table = Dds::make_sine_table();
  Dds own(kSampleClock, 3.2e6, 0.8);
  Dds shared(kSampleClock, 3.2e6, 0.8, table);
  Dds own_h2(kSampleClock, 6.4e6, 0.3);
  Dds shared_h2(kSampleClock, 6.4e6, 0.3, shared.sine_table());
  EXPECT_EQ(shared.sine_table(), shared_h2.sine_table());
  EXPECT_EQ(*own.sine_table(), *table);
  for (int i = 0; i < 100'000; ++i) {
    if (i % 9973 == 0) {
      const double rad = 1.0e-3 * static_cast<double>(i);
      own.set_phase_offset(rad);
      shared.set_phase_offset(rad);
      own_h2.set_phase_offset(-2.0 * rad);
      shared_h2.set_phase_offset(-2.0 * rad);
    }
    const double a = own.tick();
    const double b = shared.tick();
    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "tick " << i;
    const double c = own_h2.tick();
    const double d = shared_h2.tick();
    ASSERT_EQ(std::memcmp(&c, &d, sizeof c), 0) << "h2 tick " << i;
  }
  EXPECT_THROW(Dds(kSampleClock, 3.2e6, 0.8, nullptr), std::logic_error);
  EXPECT_THROW(Dds(kSampleClock, 3.2e6, 0.8,
                   std::make_shared<const std::vector<double>>(1000)),
               std::logic_error);
}

TEST(DdsTest, SubMilliHzTuningResolution) {
  // 48-bit accumulator at 250 MHz: resolution = 250e6/2^48 ≈ 0.9 µHz, so a
  // 0.1 mHz retune changes the tuning word by ~113 counts and the phase
  // visibly diverges within a few ms of signal.
  Dds a(kSampleClock, 800.0e3, 1.0);
  Dds b(kSampleClock, 800.0e3 + 1e-4, 1.0);
  bool diverged = false;
  for (int i = 0; i < 2'000'000 && !diverged; ++i) {
    diverged = std::abs(a.tick() - b.tick()) > 1e-6;
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace citl::sig
