// Bitstream serialisation: save/load round trips, corruption rejection.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cgra/batch.hpp"
#include "cgra/bitstream.hpp"
#include "cgra/kernels.hpp"
#include "api/api.hpp"
#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"

namespace citl::cgra {
namespace {

CompiledKernel sample_kernel(int bunches = 1, bool pipelined = true) {
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.n_bunches = bunches;
  kc.pipelined = pipelined;
  kc.v_scale = 6075.0;
  return compile_kernel(beam_kernel_source(kc), grid_5x5());
}

TEST(Bitstream, RoundTripPreservesEverything) {
  const CompiledKernel k = sample_kernel(4);
  const std::string text = save_bitstream(k);
  const CompiledKernel loaded = load_bitstream(text);

  ASSERT_EQ(loaded.dfg.size(), k.dfg.size());
  for (std::size_t i = 0; i < k.dfg.size(); ++i) {
    const Node& a = k.dfg.node(static_cast<NodeId>(i));
    const Node& b = loaded.dfg.node(static_cast<NodeId>(i));
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_DOUBLE_EQ(a.constant, b.constant);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.order_deps, b.order_deps);
  }
  ASSERT_EQ(loaded.dfg.states().size(), k.dfg.states().size());
  for (std::size_t i = 0; i < k.dfg.states().size(); ++i) {
    EXPECT_EQ(loaded.dfg.states()[i].name, k.dfg.states()[i].name);
    EXPECT_EQ(loaded.dfg.states()[i].update, k.dfg.states()[i].update);
    EXPECT_DOUBLE_EQ(loaded.dfg.states()[i].initial,
                     k.dfg.states()[i].initial);
  }
  ASSERT_EQ(loaded.schedule.placement.size(), k.schedule.placement.size());
  for (std::size_t i = 0; i < k.schedule.placement.size(); ++i) {
    EXPECT_TRUE(loaded.schedule.placement[i].pe == k.schedule.placement[i].pe);
    EXPECT_EQ(loaded.schedule.placement[i].start,
              k.schedule.placement[i].start);
  }
  EXPECT_EQ(loaded.schedule.length, k.schedule.length);
  EXPECT_EQ(loaded.arch.rows, k.arch.rows);
  EXPECT_DOUBLE_EQ(loaded.arch.clock_hz, k.arch.clock_hz);
  // And the save of the load is byte-identical (canonical form).
  EXPECT_EQ(save_bitstream(loaded), text);
}

TEST(Bitstream, LoadedKernelExecutesIdentically) {
  const CompiledKernel original = sample_kernel();
  const CompiledKernel loaded = load_bitstream(save_bitstream(original));

  class Bus final : public SensorBus {
   public:
    double read(SensorRegion r, double o) override {
      return 0.1 * std::sin(static_cast<double>(r) + 0.01 * o);
    }
    void write(SensorRegion, double, double v) override { last = v; }
    double last = 0.0;
  };
  Bus ba, bb;
  BatchedCgraMachine ma(original, {&ba});
  CgraMachine mb(loaded, bb);
  for (int i = 0; i < 100; ++i) {
    ma.run_iteration_all_lanes();
    mb.run_iteration_cycle_accurate();  // and across execution modes
  }
  for (const auto& s : original.dfg.states()) {
    EXPECT_DOUBLE_EQ(api::kernel_state(ma, s.name),
                     api::kernel_state(mb, s.name))
        << s.name;
  }
  EXPECT_DOUBLE_EQ(ba.last, bb.last);
}

TEST(Bitstream, FileRoundTrip) {
  const CompiledKernel k = sample_kernel();
  const std::string path = ::testing::TempDir() + "kernel.citlbs";
  save_bitstream_file(path, k);
  const CompiledKernel loaded = load_bitstream_file(path);
  EXPECT_EQ(loaded.schedule.length, k.schedule.length);
  std::remove(path.c_str());
  EXPECT_THROW(load_bitstream_file(path), ConfigError);  // gone now
}

TEST(Bitstream, RejectsCorruption) {
  const CompiledKernel k = sample_kernel();
  const std::string good = save_bitstream(k);

  // Truncated.
  EXPECT_THROW(load_bitstream(good.substr(0, good.size() / 2)), ConfigError);
  // Missing header.
  EXPECT_THROW(load_bitstream(good.substr(good.find('\n') + 1)), ConfigError);
  // Unknown record type.
  EXPECT_THROW(load_bitstream(good + "garbage 1 2 3\n"), ConfigError);
  // Unsupported version.
  std::string wrong_version = good;
  wrong_version.replace(wrong_version.find("citl-bitstream 1"),
                        sizeof("citl-bitstream 1") - 1, "citl-bitstream 9");
  EXPECT_THROW(load_bitstream(wrong_version), ConfigError);
}

TEST(Bitstream, RejectsTamperedSchedule) {
  // A bit-flip in a placement start time must be caught by the verifier,
  // never executed.
  const CompiledKernel k = sample_kernel();
  std::string text = save_bitstream(k);
  // Find a placement of a non-source node and zero its start cycle: with
  // real dependencies this violates precedence.
  NodeId victim = kNoNode;
  for (std::size_t i = 0; i < k.dfg.size(); ++i) {
    const Node& n = k.dfg.node(static_cast<NodeId>(i));
    if (!op_is_source(n.kind) && n.arity() > 0 &&
        k.schedule.placement[i].start > 4) {
      victim = static_cast<NodeId>(i);
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  const Placement& p = k.schedule.placement[static_cast<std::size_t>(victim)];
  const std::string needle = "place " + std::to_string(victim) + ' ' +
                             std::to_string(p.pe.row) + ' ' +
                             std::to_string(p.pe.col) + ' ' +
                             std::to_string(p.start);
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const std::string tampered =
      text.substr(0, pos) + "place " + std::to_string(victim) + ' ' +
      std::to_string(p.pe.row) + ' ' + std::to_string(p.pe.col) + " 0" +
      text.substr(pos + needle.size());
  EXPECT_THROW(load_bitstream(tampered), ConfigError);
}

TEST(Bitstream, EveryPaperConfigurationRoundTrips) {
  for (int bunches : {1, 4, 8}) {
    for (bool pipelined : {false, true}) {
      const CompiledKernel k = sample_kernel(bunches, pipelined);
      const CompiledKernel loaded = load_bitstream(save_bitstream(k));
      EXPECT_EQ(loaded.schedule.length, k.schedule.length)
          << bunches << (pipelined ? " piped" : " plain");
    }
  }
}

}  // namespace
}  // namespace citl::cgra
