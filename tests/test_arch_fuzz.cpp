// Architecture fuzzing: the scheduler must produce verifier-clean schedules
// for the beam kernel on randomized architectures — grid shapes, capability
// placements, latency tables, and route-port budgets — or reject the
// configuration with a ConfigError (never a wrong schedule).
#include <gtest/gtest.h>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/lower.hpp"
#include "api/api.hpp"
#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"
#include "core/random.hpp"

namespace citl::cgra {
namespace {

CgraArch random_arch(Rng& rng) {
  CgraArch a;
  a.rows = 2 + static_cast<int>(rng.next_u64() % 5);  // 2..6
  a.cols = 2 + static_cast<int>(rng.next_u64() % 5);
  a.pes.assign(static_cast<std::size_t>(a.pe_count()), PeCapabilities{});
  for (auto& pe : a.pes) {
    pe.alu = true;  // every PE computes; specials are sprinkled
    pe.mul = rng.uniform() < 0.8;
    pe.divsqrt = rng.uniform() < 0.35;
    pe.cordic = rng.uniform() < 0.3;
    pe.mem = rng.uniform() < 0.3;
  }
  // Guarantee at least one of each needed capability somewhere.
  a.pes[0].mem = true;
  a.pes[static_cast<std::size_t>(a.pe_count() - 1)].divsqrt = true;
  a.pes[static_cast<std::size_t>(a.pe_count() / 2)].mul = true;

  a.latency.alu = 1 + static_cast<unsigned>(rng.next_u64() % 3);
  a.latency.mul = 2 + static_cast<unsigned>(rng.next_u64() % 4);
  a.latency.div = 6 + static_cast<unsigned>(rng.next_u64() % 10);
  a.latency.sqrt = 6 + static_cast<unsigned>(rng.next_u64() % 12);
  a.latency.load = 2 + static_cast<unsigned>(rng.next_u64() % 12);
  a.latency.store = 1 + static_cast<unsigned>(rng.next_u64() % 3);
  a.latency.cordic = 10 + static_cast<unsigned>(rng.next_u64() % 12);
  a.route_ports_per_pe = 1 + static_cast<unsigned>(rng.next_u64() % 3);
  a.validate();
  return a;
}

class ArchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ArchFuzz, BeamKernelSchedulesCleanlyOnRandomArchitectures) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 13u);
  const CgraArch arch = random_arch(rng);

  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.n_bunches = 1 + static_cast<int>(rng.next_u64() % 4);
  kc.pipelined = rng.uniform() < 0.5;
  const Dfg dfg = compile_to_dfg(beam_kernel_source(kc));

  // schedule_dfg runs the independent verifier internally; any violation of
  // precedence/occupancy/routing throws.
  const Schedule sched = schedule_dfg(dfg, arch);
  EXPECT_GT(sched.length, 0u);

  // The schedule respects the latency-weighted critical path bound.
  const ScheduleStats stats = schedule_stats(dfg, arch, sched);
  EXPECT_LE(stats.critical_path, stats.length);
  EXPECT_GT(stats.pe_utilisation, 0.0);

  // And the compiled kernel executes identically in both machine modes.
  CompiledKernel k;
  k.dfg = dfg;
  k.arch = arch;
  k.schedule = sched;
  NullSensorBus bus;
  BatchedCgraMachine mf(k, {&bus});
  CgraMachine mc(k, bus);
  for (int i = 0; i < 5; ++i) {
    mf.run_iteration_all_lanes();
    mc.run_iteration_cycle_accurate();
  }
  for (const auto& s : dfg.states()) {
    EXPECT_DOUBLE_EQ(api::kernel_state(mf, s.name),
                     api::kernel_state(mc, s.name))
        << s.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchFuzz, ::testing::Range(0, 20));

TEST(ArchFuzzEdge, OneByOneGridWithEverything) {
  // A single omnipotent PE: everything serialises, still correct.
  CgraArch a;
  a.rows = a.cols = 1;
  PeCapabilities all;
  all.divsqrt = all.cordic = all.mem = true;
  a.pes = {all};
  a.validate();
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  const Dfg dfg = compile_to_dfg(beam_kernel_source(kc));
  const Schedule s = schedule_dfg(dfg, a);
  // Fully serial: length is at least the sum of all op latencies.
  unsigned total = 0;
  for (const auto& n : dfg.nodes()) total += a.latency.of(n.kind);
  EXPECT_GE(s.length, total);
}

TEST(ArchFuzzEdge, SingleRowGridRoutesAlongTheLine) {
  const CgraArch a = make_grid(1, 6);
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.pipelined = true;
  const Dfg dfg = compile_to_dfg(beam_kernel_source(kc));
  EXPECT_NO_THROW(schedule_dfg(dfg, a));
}

}  // namespace
}  // namespace citl::cgra
