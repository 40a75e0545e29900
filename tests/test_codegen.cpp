// The kernel execution tiers (interpreter / bytecode VM / native codegen):
// bit identity across every tier for every kernel and precision, the disk
// cache's cold, warm and corrupt-artifact paths, the no-compiler fallback,
// config threading over the wire, and the differential oracle bisecting over
// natively compiled machines. Every suite name starts with "Codegen" so CI
// can run the subsystem alone with --gtest_filter='Codegen*'.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "cgra/batch.hpp"
#include "cgra/codegen.hpp"
#include "cgra/kernels.hpp"
#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "ctrl/jump.hpp"
#include "hil/turnloop.hpp"
#include "oracle/oracle.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "serve/wire.hpp"

namespace citl::cgra {
namespace {

/// Deterministic bus: reads are a pure function of (lane, region, offset),
/// writes are logged in issue order (same contract as test_batch.cpp).
class FnBus final : public SensorBus {
 public:
  explicit FnBus(std::size_t lane = 0) : lane_(lane) {}

  double read(SensorRegion region, double offset) override {
    if (region == SensorRegion::kPeriod) {
      return 1.25e-6 * (1.0 + 1.0e-4 * static_cast<double>(lane_));
    }
    const double r = region == SensorRegion::kRefBuf ? 0.0 : 1.0;
    return 0.8 * std::sin(0.37 * offset + 0.11 * static_cast<double>(lane_) +
                          0.5 * r);
  }
  void write(SensorRegion region, double offset, double value) override {
    log.push_back({region, offset, value});
  }

  struct Entry {
    SensorRegion region;
    double offset;
    double value;
  };
  std::vector<Entry> log;

 private:
  std::size_t lane_;
};

/// One FnBus per lane, and the per-lane bus list a machine takes.
class LaneFnBuses {
 public:
  explicit LaneFnBuses(std::size_t lanes) {
    buses_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      buses_.emplace_back(l);
      ptrs_.push_back(&buses_.back());
    }
  }
  LaneFnBuses(const LaneFnBuses&) = delete;
  LaneFnBuses& operator=(const LaneFnBuses&) = delete;

  [[nodiscard]] const std::vector<SensorBus*>& lanes() const noexcept {
    return ptrs_;
  }
  [[nodiscard]] const std::vector<FnBus::Entry>& log(std::size_t lane) const {
    return buses_[lane].log;
  }

 private:
  std::vector<FnBus> buses_;
  std::vector<SensorBus*> ptrs_;
};

struct KernelCase {
  std::string label;
  CompiledKernel kernel;
};

/// Every kernel family the repo ships, including the CORDIC-heavy codegen
/// showcase (the bench headline workload).
std::vector<KernelCase> kernel_cases() {
  BeamKernelConfig kc;  // defaults: 14N7+, SIS18, gamma0 = 1.2
  std::vector<KernelCase> cases;

  BeamKernelConfig pipelined = kc;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  cases.push_back({"sampled_pipelined",
                   compile_kernel(beam_kernel_source(pipelined), grid_5x5(),
                                  "beam_sampled")});
  cases.push_back({"analytic",
                   compile_kernel(analytic_beam_kernel_source(kc), grid_5x5(),
                                  "beam_analytic")});
  cases.push_back({"ramp",
                   compile_kernel(ramp_beam_kernel_source(kc), grid_5x5(),
                                  "beam_ramp")});
  cases.push_back({"demo",
                   compile_kernel(demo_oscillator_source(), grid_5x5(),
                                  "demo_oscillator")});
  cases.push_back({"cavity_iq_servo",
                   compile_kernel(cavity_iq_servo_source(), grid_4x4(),
                                  "cavity_iq_servo")});
  return cases;
}

void perturb_lane(BeamModel& model, std::size_t write_lane,
                  std::size_t scenario) {
  const Dfg& dfg = model.kernel().dfg;
  for (std::size_t i = 0; i < dfg.states().size(); ++i) {
    model.set_state(StateHandle{static_cast<int>(i)},
                    dfg.states()[i].initial +
                        1.0e-3 * static_cast<double>(scenario * (i + 1)),
                    write_lane);
  }
  for (std::size_t i = 0; i < dfg.params().size(); ++i) {
    model.set_param(ParamHandle{static_cast<int>(i)},
                    dfg.params()[i].default_value *
                        (1.0 + 0.01 * static_cast<double>(scenario)),
                    write_lane);
  }
}

void expect_double_eq_bits(double expected, double actual,
                           const std::string& what) {
  if (std::isnan(expected) && std::isnan(actual)) return;
  EXPECT_EQ(expected, actual) << what;
}

/// Runs `tier` on `lanes` lanes against a reference with identical state
/// trajectories and write logs, lane by lane and entry for entry. With more
/// than one lane the reference is the interpreter and a subset of lanes runs
/// masked every fifth iteration; a single lane is checked against the
/// cycle-accurate CgraMachine.
void expect_tier_identity(const CompiledKernel& kernel, Precision precision,
                          ExecTier tier, std::size_t lanes = 1,
                          int iters = 300) {
  LaneFnBuses ref_bus(lanes), dut_bus(lanes);
  std::unique_ptr<BeamModel> ref;
  if (lanes == 1) {
    ref = std::make_unique<CgraMachine>(kernel, *ref_bus.lanes()[0],
                                        precision);
  } else {
    ref = std::make_unique<BatchedCgraMachine>(kernel, ref_bus.lanes(),
                                               precision,
                                               ExecTier::kInterpreter);
  }
  BatchedCgraMachine dut(kernel, dut_bus.lanes(), precision, tier);
  for (std::size_t l = 0; l < lanes; ++l) {
    // A single lane still gets perturbed values (scenario 3).
    const std::size_t scenario = lanes == 1 ? 3 : l;
    perturb_lane(*ref, l, scenario);
    perturb_lane(dut, l, scenario);
  }
  const std::uint32_t subset[3] = {1, 4, 6};
  for (int i = 0; i < iters; ++i) {
    if (lanes > 1 && i % 5 == 4) {
      static_cast<BatchedCgraMachine&>(*ref).run_iteration_lanes(subset, 3);
      dut.run_iteration_lanes(subset, 3);
    } else {
      ref->run_iteration_all_lanes();
      dut.run_iteration_all_lanes();
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t s = 0; s < kernel.dfg.states().size(); ++s) {
      const StateHandle h{static_cast<int>(s)};
      expect_double_eq_bits(ref->state(h, l), dut.state(h, l),
                            "lane " + std::to_string(l) + " state " +
                                kernel.dfg.states()[s].name);
    }
    ASSERT_EQ(ref_bus.log(l).size(), dut_bus.log(l).size());
    for (std::size_t w = 0; w < ref_bus.log(l).size(); ++w) {
      EXPECT_EQ(ref_bus.log(l)[w].region, dut_bus.log(l)[w].region);
      expect_double_eq_bits(ref_bus.log(l)[w].offset, dut_bus.log(l)[w].offset,
                            "lane " + std::to_string(l) + " write offset");
      expect_double_eq_bits(ref_bus.log(l)[w].value, dut_bus.log(l)[w].value,
                            "lane " + std::to_string(l) + " write");
    }
  }
}

bool native_available() { return NativeKernelCache::compiler_available(); }

// --- identity: every kernel x precision ------------------------------------

TEST(CodegenIdentity, BytecodeMatchesInterpreterEveryKernel) {
  for (const KernelCase& c : kernel_cases()) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      expect_tier_identity(c.kernel, p, ExecTier::kBytecode);
    }
  }
}

TEST(CodegenIdentity, NativeMatchesInterpreterEveryKernel) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  for (const KernelCase& c : kernel_cases()) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      expect_tier_identity(c.kernel, p, ExecTier::kNative);
      ASSERT_EQ(NativeKernelCache::global().stats().fallbacks, 0u);
    }
  }
}

TEST(CodegenIdentity, BatchedMaskedLanesMatchInterpreter) {
  // The batched engine spot-checks the bench headline kernel and the
  // pipelined beam kernel (the masked path plus pipeline-register latching);
  // the single-lane tests above cover the full kernel matrix.
  BeamKernelConfig pipelined;
  pipelined.pipelined = true;
  pipelined.n_bunches = 4;
  std::vector<KernelCase> cases;
  cases.push_back({"sampled_pipelined",
                   compile_kernel(beam_kernel_source(pipelined), grid_5x5(),
                                  "beam_sampled")});
  cases.push_back({"cavity_iq_servo",
                   compile_kernel(cavity_iq_servo_source(), grid_4x4(),
                                  "cavity_iq_servo")});
  for (const KernelCase& c : cases) {
    for (Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      SCOPED_TRACE(c.label + (p == Precision::kFloat64 ? " f64" : " f32"));
      expect_tier_identity(c.kernel, p, ExecTier::kBytecode, 8, 150);
      if (native_available()) {
        expect_tier_identity(c.kernel, p, ExecTier::kNative, 8, 150);
      }
    }
  }
}

TEST(CodegenIdentity, AutoResolvesAndMatches) {
  const CompiledKernel kernel = compile_kernel(cavity_iq_servo_source(),
                                               grid_4x4(), "cavity_iq_servo");
  FnBus bus;
  BatchedCgraMachine m(kernel, {&bus}, Precision::kFloat64, ExecTier::kAuto);
  EXPECT_EQ(m.exec_tier(), native_available() ? ExecTier::kNative
                                              : ExecTier::kBytecode);
  expect_tier_identity(kernel, Precision::kFloat64, ExecTier::kAuto);
}

// --- the disk cache ---------------------------------------------------------

class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_(::testing::TempDir() + name) {
    // TempDir() is stable across runs — start empty so "cold" means cold.
    std::filesystem::remove_all(dir_);
    if (const char* prev = std::getenv("CITL_KERNEL_CACHE_DIR")) {
      previous_ = prev;
      had_previous_ = true;
    }
    ::setenv("CITL_KERNEL_CACHE_DIR", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    if (had_previous_) {
      ::setenv("CITL_KERNEL_CACHE_DIR", previous_.c_str(), 1);
    } else {
      ::unsetenv("CITL_KERNEL_CACHE_DIR");
    }
  }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
  std::string previous_;
  bool had_previous_ = false;
};

TEST(CodegenCache, ColdCompileThenWarmDiskHit) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  ScopedCacheDir cache_dir("citl_codegen_cold_warm");
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  const CodegenStats before = cache.stats();

  auto cold = cache.get(kernel, Precision::kFloat64, 8);
  ASSERT_NE(cold, nullptr) << cache.last_error();
  EXPECT_FALSE(cold->disk_hit());
  EXPECT_GT(cold->compile_ms(), 0.0);
  EXPECT_EQ(cache.stats().compiles, before.compiles + 1);

  // Same key, same process: served from the in-process memo.
  auto memo = cache.get(kernel, Precision::kFloat64, 8);
  EXPECT_EQ(memo.get(), cold.get());
  EXPECT_EQ(cache.stats().memo_hits, before.memo_hits + 1);

  // Drop the memo: the second resolve must come off disk with ~0 compile
  // cost (the acceptance criterion's "cache-warm second compile ≈ 0 ms").
  const std::string hash = cold->hash();
  cold.reset();
  memo.reset();
  cache.clear_memory();
  auto warm = cache.get(kernel, Precision::kFloat64, 8);
  ASSERT_NE(warm, nullptr) << cache.last_error();
  EXPECT_TRUE(warm->disk_hit());
  EXPECT_EQ(warm->compile_ms(), 0.0);
  EXPECT_EQ(warm->hash(), hash);
  EXPECT_EQ(cache.stats().compiles, before.compiles + 1);  // no recompile
  EXPECT_EQ(cache.stats().disk_hits, before.disk_hits + 1);
}

TEST(CodegenCache, CorruptSharedObjectIsRepaired) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  ScopedCacheDir cache_dir("citl_codegen_corrupt");
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  auto first = cache.get(kernel, Precision::kFloat32, 4);
  ASSERT_NE(first, nullptr) << cache.last_error();
  const std::string so_path =
      NativeKernelCache::cache_dir() + "/" + first->hash() + ".so";
  first.reset();
  cache.clear_memory();

  {
    std::ofstream f(so_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.good());
    f << "this is not a shared object";
  }
  const CodegenStats before = cache.stats();
  auto repaired = cache.get(kernel, Precision::kFloat32, 4);
  ASSERT_NE(repaired, nullptr) << cache.last_error();
  EXPECT_TRUE(repaired->repaired());
  EXPECT_EQ(cache.stats().repairs, before.repairs + 1);
  EXPECT_EQ(cache.stats().compiles, before.compiles + 1);

  // The recompiled kernel is the real thing, not a husk: identity holds.
  expect_tier_identity(kernel, Precision::kFloat32, ExecTier::kNative, 1, 100);
}

TEST(CodegenCache, KeyCoversThePortabilityHeader) {
  // The generated source #includes citl_simd_portability.h, so a header
  // edit must change the key even when the emitted source does not —
  // otherwise a stale .so built against the old header would be reused.
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  const std::string source = emit_kernel_source(kernel, Precision::kFloat64, 4);
  const std::string header = "#define CITL_VD_WIDTH 4\n";
  std::string edited = header;
  edited[edited.size() - 2] = '2';
  EXPECT_EQ(native_cache_key(source, header), native_cache_key(source, header));
  EXPECT_NE(native_cache_key(source, header), native_cache_key(source, edited));
  EXPECT_NE(native_cache_key(source, header),
            native_cache_key(source, header + "\n"));
  EXPECT_EQ(native_cache_key(source, header).size(), 32u);
  if (!native_available()) return;

  // get() files the kernel under the key of the header it publishes.
  ScopedCacheDir cache_dir("citl_codegen_header_key");
  auto& cache = NativeKernelCache::global();
  cache.clear_memory();
  auto k = cache.get(kernel, Precision::kFloat64, 4);
  ASSERT_NE(k, nullptr) << cache.last_error();
  std::ifstream in(cache_dir.dir() + "/citl_simd_portability.h",
                   std::ios::binary);
  const std::string published((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  ASSERT_FALSE(published.empty());
  EXPECT_EQ(k->hash(), native_cache_key(source, published));
  EXPECT_NE(k->hash(), native_cache_key(source, published + " "));
  k.reset();
  cache.clear_memory();
}

// --- fallback ---------------------------------------------------------------

// Compiler discovery is memoised once per process, so forcing the
// no-compiler path needs a child process: re-exec this test binary with
// $CITL_CODEGEN_CC pointing nowhere (the explicit override has no
// fallthrough) and run only the *Child test below.
TEST(CodegenFallback, NoCompilerFallsBackToBytecodeInChildProcess) {
  // Resolve the symlink here: inside std::system's shell, /proc/self/exe
  // would name the shell, not this binary.
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(n, 0);
  self[n] = '\0';
  std::string cmd =
      "CITL_TEST_FALLBACK_CHILD=1 CITL_CODEGEN_CC=/nonexistent/cc '" +
      std::string(self) +
      "' --gtest_filter='CodegenFallback.ChildResolvesBytecode' "
      "> /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "child fallback run failed; re-run manually: " << cmd;
}

TEST(CodegenFallback, ChildResolvesBytecode) {
  if (std::getenv("CITL_TEST_FALLBACK_CHILD") == nullptr) {
    GTEST_SKIP() << "parent process (compiler discovery already memoised); "
                    "exercised via the child re-exec above";
  }
  ASSERT_FALSE(NativeKernelCache::compiler_available());
  const CompiledKernel kernel =
      compile_kernel(demo_oscillator_source(), grid_5x5(), "demo_oscillator");
  const CodegenStats before = NativeKernelCache::global().stats();

  // An explicit kNative request degrades to bytecode and counts a fallback;
  // kAuto resolves straight to bytecode without touching the cache.
  FnBus bus;
  BatchedCgraMachine explicit_native(kernel, {&bus}, Precision::kFloat64,
                                     ExecTier::kNative);
  EXPECT_EQ(explicit_native.exec_tier(), ExecTier::kBytecode);
  EXPECT_GE(NativeKernelCache::global().stats().fallbacks,
            before.fallbacks + 1);

  FnBus auto_bus;
  BatchedCgraMachine auto_machine(kernel, {&auto_bus}, Precision::kFloat64,
                                  ExecTier::kAuto);
  EXPECT_EQ(auto_machine.exec_tier(), ExecTier::kBytecode);

  // And the fallback still computes the right numbers.
  expect_tier_identity(kernel, Precision::kFloat64, ExecTier::kNative, 1, 100);
}

// --- config threading -------------------------------------------------------

TEST(CodegenConfig, TierRoundTripsThroughWireAndDigest) {
  api::SessionConfig a = api::paper_operating_point();
  // Pinned: the default is kAuto, and the point is that the tier changes the
  // digest.
  a.exec_tier = ExecTier::kInterpreter;
  api::SessionConfig b = a;
  b.exec_tier = ExecTier::kAuto;
  EXPECT_NE(api::session_config_digest(a), api::session_config_digest(b));

  serve::WireWriter w;
  serve::encode_session_config(w, b);
  serve::WireReader r(w.bytes());
  const api::SessionConfig back = serve::decode_session_config(r);
  r.expect_end();
  EXPECT_EQ(back.exec_tier, ExecTier::kAuto);
  EXPECT_EQ(api::session_config_digest(back), api::session_config_digest(b));

  EXPECT_EQ(api::to_turnloop_config(b).exec_tier, ExecTier::kAuto);
  EXPECT_EQ(api::to_framework_config(b).exec_tier, ExecTier::kAuto);
}

TEST(CodegenConfig, TierNamesRoundTrip) {
  for (ExecTier t : {ExecTier::kInterpreter, ExecTier::kBytecode,
                     ExecTier::kNative, ExecTier::kAuto}) {
    ExecTier parsed{};
    ASSERT_TRUE(parse_exec_tier(exec_tier_name(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  ExecTier parsed{};
  EXPECT_FALSE(parse_exec_tier("jit", &parsed));
}

// --- golden schedules and emitted sources -----------------------------------

/// FNV-1a 64 over `n` bytes: a compact, deterministic digest for the golden
/// table below (not the cache key).
std::uint64_t golden_fnv(const void* data, std::size_t n,
                         std::uint64_t h = 14695981039346656037ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Every placement (PE, start, finish) and every route hop (value, PE,
/// cycle) of a schedule, in order.
std::uint64_t placement_digest(const Schedule& s) {
  std::uint64_t h = golden_fnv(nullptr, 0);
  auto word = [&h](long v) {
    const auto w = static_cast<std::int64_t>(v);
    h = golden_fnv(&w, sizeof w, h);
  };
  for (const Placement& p : s.placement) {
    word(p.pe.row);
    word(p.pe.col);
    word(p.start);
    word(p.finish);
  }
  for (const RouteHop& r : s.hops) {
    word(r.value);
    word(r.pe.row);
    word(r.pe.col);
    word(r.cycle);
  }
  return h;
}

struct GoldenKernel {
  const char* label;
  unsigned length;
  std::uint64_t placement;
  /// emit_kernel_source digests: f32 x {1, 4, 8} lanes, then f64 x {1, 4, 8}.
  std::uint64_t source[6];
};

/// Every stock kernel: beam sampled/analytic x {1, 4, 8} bunches x
/// pipelined x interpolate on grid_5x5, plus ramp and demo (grid_5x5) and
/// cavity_iq_servo (grid_4x4).
std::vector<KernelCase> golden_cases() {
  std::vector<KernelCase> cases;
  for (const bool analytic : {false, true}) {
    for (const int bunches : {1, 4, 8}) {
      for (const bool pipelined : {false, true}) {
        for (const bool interpolate : {false, true}) {
          BeamKernelConfig kc;
          kc.n_bunches = bunches;
          kc.pipelined = pipelined;
          kc.interpolate = interpolate;
          const std::string label =
              std::string(analytic ? "analytic" : "sampled") + "_b" +
              std::to_string(bunches) + (pipelined ? "_pipe" : "_plain") +
              (interpolate ? "_interp" : "_nearest");
          cases.push_back(
              {label, analytic ? compile_kernel(analytic_beam_kernel_source(kc),
                                                grid_5x5(), "beam_analytic")
                               : compile_kernel(beam_kernel_source(kc),
                                                grid_5x5(), "beam_sampled")});
        }
      }
    }
  }
  const BeamKernelConfig kc;
  cases.push_back({"ramp", compile_kernel(ramp_beam_kernel_source(kc),
                                          grid_5x5(), "beam_ramp")});
  cases.push_back({"demo", compile_kernel(demo_oscillator_source(), grid_5x5(),
                                          "demo_oscillator")});
  cases.push_back({"cavity_iq_servo",
                   compile_kernel(cavity_iq_servo_source(), grid_4x4(),
                                  "cavity_iq_servo")});
  return cases;
}

// Generated from the list scheduler and emitter before their allocation-free
// rewrites; the rewrites must reproduce every byte. On a mismatch the test
// prints the row the current code produces.
const GoldenKernel kGolden[] = {
    {"sampled_b1_plain_nearest", 136, 0x384e7063d310388bull,
     {0x1f13cb83b6ac94c4ull, 0xd1ea73767dd134faull, 0xe968ff3ff19bc500ull,
      0xc12472435a0220b7ull, 0x052538a1a6b0d2ffull, 0xd425093decc09599ull}},
    {"sampled_b1_plain_interp", 144, 0xf2871d7aa9958105ull,
     {0xda2fd546bf7cc85dull, 0x4c422e090cb89c49ull, 0xfb8d9bf99ab21e9eull,
      0x560d011263903d80ull, 0xb11c85c5ec2b419cull, 0x11c5380a89a38d0dull}},
    {"sampled_b1_pipe_nearest", 74, 0xa019e0d25113b466ull,
     {0xb4bc43025a0db36aull, 0x8752add75d3ae191ull, 0x48eafa8cfae4abaaull,
      0x604b6937e0c9f39bull, 0xbffb96bc49c2a1aaull, 0xede0a414ecab0bc7ull}},
    {"sampled_b1_pipe_interp", 87, 0x14d0bbe3d8fab3c5ull,
     {0xe25eeb4d1d1b77d1ull, 0x75e4f88aaeb7959dull, 0x8b415bb07afc607full,
      0x982bfc485bbdfcb2ull, 0x09be3379d335f08cull, 0x16b34da594ae4664ull}},
    {"sampled_b4_plain_nearest", 136, 0x7c2ad0b17453b6eeull,
     {0x827070026026f8aaull, 0x5a27765ae5286ad8ull, 0x6cc310bde86acd79ull,
      0xce6046fb5f7df561ull, 0x247125919dbb1e7dull, 0xf30efa47f62339aeull}},
    {"sampled_b4_plain_interp", 147, 0xd9ec3f909a8d0329ull,
     {0xbaf99bc49f7cf861ull, 0x32cef0aebaf05474ull, 0x4ab17b9836bfed8dull,
      0xe6c402bd226e935cull, 0xa05ea85395b4880bull, 0xde55f7bfa0e45fecull}},
    {"sampled_b4_pipe_nearest", 82, 0xd20018e33e50c375ull,
     {0xa98999a61c0ca926ull, 0x02a5569326afeaceull, 0x7fa1f1c4539303d3ull,
      0x5dc44d4c6379b199ull, 0xee872d39399f0ef7ull, 0xe117a176a2cd404cull}},
    {"sampled_b4_pipe_interp", 98, 0x28056d5cf78922eeull,
     {0xa8dc8e68105014efull, 0x8e142bea21bee67aull, 0xba611cabab330099ull,
      0xa840210b71ccf94eull, 0xb31c79c12bf740cdull, 0x2daeeca179f6aab6ull}},
    {"sampled_b8_plain_nearest", 140, 0x3ee965e0f84ce9d9ull,
     {0xa04e06d1a396d5fbull, 0xb7b079f7816f1729ull, 0x9a3e6cb4c71bb129ull,
      0x9ed33cce5970c46aull, 0x3250a05dd4696500ull, 0x4447ad2e2cf3dadaull}},
    {"sampled_b8_plain_interp", 150, 0x02b6e61c698d3bb6ull,
     {0x892570b4284f5d14ull, 0x4633031b99a4b6baull, 0x69a3f81c1f2b4c62ull,
      0x03eedf52846cf65dull, 0xa497fc8e7cea272dull, 0xf67c4b3582715493ull}},
    {"sampled_b8_pipe_nearest", 93, 0x4fabc4299caec0a4ull,
     {0x9b88eae38125abc3ull, 0x613b34c8becda1baull, 0x80d746f33dd64355ull,
      0x07c6863935904392ull, 0xa3c322dd2d03bacbull, 0xe05ed504e424b59aull}},
    {"sampled_b8_pipe_interp", 116, 0xff6878a12091be27ull,
     {0xce8d116c5413e7f8ull, 0x1dc179bbbb00c351ull, 0xa09b6c862eb8b2a5ull,
      0xb2e7063c3629b3ffull, 0x176db7a39792480eull, 0x337e94846608f1d2ull}},
    {"analytic_b1_plain_nearest", 96, 0x7d9cbe5afda2d1e3ull,
     {0xa3e1a64b5a131f72ull, 0x7c4026929648dad2ull, 0xd8e033db18771b7bull,
      0xc13e15d43604b44bull, 0x72c2c582e36f9aadull, 0xbb0af220b464a75eull}},
    {"analytic_b1_plain_interp", 96, 0x7d9cbe5afda2d1e3ull,
     {0xa3e1a64b5a131f72ull, 0x7c4026929648dad2ull, 0xd8e033db18771b7bull,
      0xc13e15d43604b44bull, 0x72c2c582e36f9aadull, 0xbb0af220b464a75eull}},
    {"analytic_b1_pipe_nearest", 82, 0x29fc4c2b5d59bbaeull,
     {0xcf7a46bd857f11e8ull, 0x9f661ff0c9f159b4ull, 0x77854f83484c895full,
      0xe66591c62e4534adull, 0xea8aa27b03fd7eefull, 0xcc1e2efb7e51474aull}},
    {"analytic_b1_pipe_interp", 82, 0x29fc4c2b5d59bbaeull,
     {0xcf7a46bd857f11e8ull, 0x9f661ff0c9f159b4ull, 0x77854f83484c895full,
      0xe66591c62e4534adull, 0xea8aa27b03fd7eefull, 0xcc1e2efb7e51474aull}},
    {"analytic_b4_plain_nearest", 97, 0x69a09eeb8746778bull,
     {0x1813cbb078c28e77ull, 0x743a3e4a99ca57eaull, 0x9ac9718ffd780331ull,
      0x1832f064768f8cf8ull, 0x8b4a8f3fe1c647f3ull, 0x1fb584a1d36c929eull}},
    {"analytic_b4_plain_interp", 97, 0x69a09eeb8746778bull,
     {0x1813cbb078c28e77ull, 0x743a3e4a99ca57eaull, 0x9ac9718ffd780331ull,
      0x1832f064768f8cf8ull, 0x8b4a8f3fe1c647f3ull, 0x1fb584a1d36c929eull}},
    {"analytic_b4_pipe_nearest", 84, 0x9dd9918e059ce589ull,
     {0xfc1abac8fcdba873ull, 0x023edf3f3aa75cb2ull, 0xdbd6769ae452b505ull,
      0x9576f26250384eeaull, 0x806e13962d366761ull, 0xba32c85ffeef62f8ull}},
    {"analytic_b4_pipe_interp", 84, 0x9dd9918e059ce589ull,
     {0xfc1abac8fcdba873ull, 0x023edf3f3aa75cb2ull, 0xdbd6769ae452b505ull,
      0x9576f26250384eeaull, 0x806e13962d366761ull, 0xba32c85ffeef62f8ull}},
    {"analytic_b8_plain_nearest", 115, 0xdb7d2fe396fb7d7cull,
     {0x59e71b6936fbe18aull, 0x0c5179ea26c523eeull, 0x6a8801403367a321ull,
      0x75a9c2d37f7dc67dull, 0xa27258bab57bb80bull, 0x379e0a0a6db06900ull}},
    {"analytic_b8_plain_interp", 115, 0xdb7d2fe396fb7d7cull,
     {0x59e71b6936fbe18aull, 0x0c5179ea26c523eeull, 0x6a8801403367a321ull,
      0x75a9c2d37f7dc67dull, 0xa27258bab57bb80bull, 0x379e0a0a6db06900ull}},
    {"analytic_b8_pipe_nearest", 99, 0xaeb13bac62f4d7abull,
     {0xf09c50c92f2f1cd0ull, 0x0c2f25dce80985c2ull, 0xda362200543753e7ull,
      0x1ce0be24897b574dull, 0x1b084c6e7c42bd3dull, 0x1bef152ec28858f0ull}},
    {"analytic_b8_pipe_interp", 99, 0xaeb13bac62f4d7abull,
     {0xf09c50c92f2f1cd0ull, 0x0c2f25dce80985c2ull, 0xda362200543753e7ull,
      0x1ce0be24897b574dull, 0x1b084c6e7c42bd3dull, 0x1bef152ec28858f0ull}},
    {"ramp", 98, 0xfaff0ef31f25cd65ull,
     {0xda8b61f6c6f12f1dull, 0x672b9affc24a1c60ull, 0x631bbc87777a80e2ull,
      0x2442e7b9767f83f2ull, 0x48787ea1155c7cf7ull, 0xb297e50f6a96efd7ull}},
    {"demo", 47, 0x9a8e88c8311d23e7ull,
     {0x1f2fcfd3ae9701e0ull, 0x25037eba62dfc460ull, 0xc71a17a09fdd91e7ull,
      0xf0386f46b7451d6cull, 0xb08a071d437eec58ull, 0xadae95964c700adfull}},
    {"cavity_iq_servo", 106, 0x10d89bb75d4fd4a1ull,
     {0x284202517f29807cull, 0x164956ebcc5b76faull, 0x4beac50313825699ull,
      0xb81b3e95141de0e3ull, 0x323b55edfb5d362full, 0x2298421c14a73012ull}},
};

TEST(CodegenGolden, StockKernelSchedulesAndSourcesAreByteIdentical) {
  const std::vector<KernelCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CompiledKernel& k = cases[i].kernel;
    GoldenKernel got{};
    got.length = k.schedule.length;
    got.placement = placement_digest(k.schedule);
    int slot = 0;
    for (const Precision p : {Precision::kFloat32, Precision::kFloat64}) {
      for (const std::size_t lanes : {1, 4, 8}) {
        const std::string src = emit_kernel_source(k, p, lanes);
        got.source[slot++] = golden_fnv(src.data(), src.size());
      }
    }
    char row[512];
    std::snprintf(row, sizeof row,
                  "    {\"%s\", %u, 0x%016llxull,\n"
                  "     {0x%016llxull, 0x%016llxull, 0x%016llxull,\n"
                  "      0x%016llxull, 0x%016llxull, 0x%016llxull}},",
                  cases[i].label.c_str(), got.length,
                  static_cast<unsigned long long>(got.placement),
                  static_cast<unsigned long long>(got.source[0]),
                  static_cast<unsigned long long>(got.source[1]),
                  static_cast<unsigned long long>(got.source[2]),
                  static_cast<unsigned long long>(got.source[3]),
                  static_cast<unsigned long long>(got.source[4]),
                  static_cast<unsigned long long>(got.source[5]));
    const GoldenKernel& want = kGolden[i];
    SCOPED_TRACE(std::string("current row:\n") + row);
    EXPECT_EQ(cases[i].label, want.label);
    EXPECT_EQ(got.length, want.length);
    EXPECT_EQ(got.placement, want.placement);
    for (int s = 0; s < 6; ++s) EXPECT_EQ(got.source[s], want.source[s]);
  }
}

// --- the oracle over the codegen engine -------------------------------------

hil::TurnLoopConfig paper_loop(ExecTier tier) {
  hil::TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  tl.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.2e-3);
  tl.exec_tier = tier;
  return tl;
}

TEST(CodegenOracle, SerialVsBatchedAgreeOnNativeEngine) {
  // Both fidelities execute through the resolved kAuto tier (native when a
  // compiler exists, bytecode otherwise) — the oracle must see them exactly
  // bit-equal, same as the interpreted pair it was built on.
  oracle::OracleConfig oc;
  oc.reference = oracle::Fidelity::kSerialF32;
  oc.candidate = oracle::Fidelity::kBatchedF32;
  oc.turns = 600;
  const oracle::OracleReport rep =
      run_oracle(paper_loop(ExecTier::kAuto), oc);
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(rep.first_divergent_turn, -1);
  EXPECT_EQ(rep.max_ulp_err, 0.0);
}

TEST(CodegenOracle, BisectionFindsPoisonedConstantOnNativeEngine) {
  if (!native_available()) {
    GTEST_SKIP() << "no host compiler: native tier unavailable";
  }
  // A one-ULP poisoned constant on the candidate side, both sides running
  // the native tier: the bisection machinery (checkpoint, rollback, scan)
  // must localise the first divergent turn on compiled machines too.
  const hil::TurnLoopConfig tl = paper_loop(ExecTier::kNative);
  const hil::TurnLoop probe(tl);
  auto perturbed = std::make_shared<const CompiledKernel>(
      oracle::perturb_kernel_constant(probe.kernel(),
                                      tl.kernel.ring.circumference_m,
                                      Precision::kFloat32));
  oracle::OracleConfig oc;
  oc.reference = oracle::Fidelity::kSerialF32;
  oc.candidate = oracle::Fidelity::kSerialF32;
  oc.candidate_kernel = perturbed;
  oc.turns = 1200;
  oc.checkpoint_stride = 64;
  oc.shrink = false;
  const oracle::OracleReport rep = run_oracle(tl, oc);
  ASSERT_TRUE(rep.diverged);
  EXPECT_GE(rep.first_divergent_turn, 0);
  EXPECT_EQ(rep.first_divergent_turn, rep.bisected_turn);
}

}  // namespace
}  // namespace citl::cgra
