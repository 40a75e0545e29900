#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>

#include "cgra/batch.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "ctrl/controller.hpp"
#include "hil/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/ensemble.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::sweep {

namespace {

/// The fields of either engine configuration the ensemble reference needs:
/// both engines drive the same stimulus and controller, just at different
/// fidelities, and the ground truth is engine-agnostic.
struct ReferenceDrive {
  const cgra::BeamKernelConfig* kernel;
  double f_ref_hz;
  double gap_voltage_v;
  const ctrl::ControllerConfig* controller;
  const std::optional<ctrl::PhaseJumpProgramme>* jumps;
  bool control_enabled;
};

ReferenceDrive reference_drive(const Scenario& scenario) {
  if (scenario.engine == ScenarioEngine::kTurnLevel) {
    const auto& tc = scenario.turnloop;
    return {&tc.kernel,     tc.f_ref_hz,        tc.gap_voltage_v,
            &tc.controller, &tc.jumps,          tc.control_enabled};
  }
  const auto& fc = scenario.framework;
  return {&fc.kernel,     fc.f_ref_hz,        fc.gap_voltage_v,
          &fc.controller, &fc.jumps,          fc.control_enabled};
}

/// Ground-truth run: the same stimulus and controller as the HIL loop,
/// applied to a serial many-particle ensemble (cf. run_mde_reference, but
/// driven from the scenario's configuration and the scenario seed).
void run_ensemble_reference(const Scenario& scenario, std::uint64_t seed,
                            ScenarioResult& out) {
  const ReferenceDrive drive = reference_drive(scenario);
  const double gamma0 = phys::gamma_from_revolution_frequency(
      drive.f_ref_hz, drive.kernel->ring.circumference_m);
  const double t_rev = 1.0 / drive.f_ref_hz;
  const double omega_gap =
      kTwoPi * drive.f_ref_hz * static_cast<double>(drive.kernel->ring.harmonic);

  phys::EnsembleConfig ec;
  ec.ion = drive.kernel->ion;
  ec.ring = drive.kernel->ring;
  ec.initial_gamma_r = gamma0;
  ec.n_particles = scenario.ensemble_particles;
  ec.seed = seed;
  phys::EnsembleTracker ensemble(ec);  // serial: deterministic per scenario
  const double matched_ratio = phys::matched_dt_per_dgamma_s(
      ec.ion, ec.ring, gamma0, drive.gap_voltage_v);
  ensemble.populate_gaussian(scenario.ensemble_sigma_dt_s / matched_ratio,
                             scenario.ensemble_sigma_dt_s);

  ctrl::BeamPhaseController controller(*drive.controller);
  ctrl::PhaseDecimator decimator(static_cast<std::size_t>(
      std::lround(drive.f_ref_hz / drive.controller->sample_rate_hz)));

  const auto turns =
      static_cast<std::int64_t>(scenario.duration_s * drive.f_ref_hz);
  constexpr std::int64_t kRecordEvery = 8;
  std::vector<double> ts, phases;
  ts.reserve(static_cast<std::size_t>(turns / kRecordEvery) + 1);
  phases.reserve(ts.capacity());

  double t = 0.0, ctrl_phase = 0.0, correction_hz = 0.0;
  for (std::int64_t n = 0; n < turns; ++n) {
    const double jump = *drive.jumps ? (*drive.jumps)->phase_rad(t) : 0.0;
    const double gap_phase = jump + ctrl_phase;
    ensemble.step(
        phys::SineWaveform{drive.gap_voltage_v, omega_gap, gap_phase});
    const double phase = wrap_angle(ensemble.centroid_dt_s() * omega_gap);
    if (decimator.feed(wrap_angle(phase + gap_phase))) {
      correction_hz = drive.control_enabled
                          ? controller.update(decimator.output())
                          : 0.0;
    }
    if (drive.control_enabled) ctrl_phase += kTwoPi * correction_hz * t_rev;
    t += t_rev;
    if (n % kRecordEvery == 0) {
      ts.push_back(t);
      phases.push_back(phase);
    }
  }

  const double jump_s = *drive.jumps ? (*drive.jumps)->start_s() : 0.0;
  const double t_sync = 1.0 / scenario.f_sync_nominal_hz;
  out.f_sync_reference_hz = hil::estimate_oscillation_frequency_hz(
      ts, phases, jump_s + 0.2e-3,
      std::min(scenario.duration_s, jump_s + 6.0 * t_sync));
  out.reference_first_swing_rad =
      hil::peak_to_peak(ts, phases, jump_s, jump_s + 1.2 * t_sync);
}

// --- kernel selection per scenario ----------------------------------------

KernelKind scenario_kernel_kind(const Scenario& s) {
  if (s.engine == ScenarioEngine::kTurnLevel) {
    return s.turnloop.synthesize_waveform ? KernelKind::kAnalytic
                                          : KernelKind::kSampled;
  }
  return KernelKind::kSampled;
}

cgra::BeamKernelConfig scenario_kernel_config(const Scenario& s) {
  return s.engine == ScenarioEngine::kTurnLevel
             ? hil::TurnLoop::effective_kernel_config(s.turnloop)
             : hil::Framework::effective_kernel_config(s.framework);
}

const cgra::CgraArch& scenario_arch(const Scenario& s) {
  return s.engine == ScenarioEngine::kTurnLevel ? s.turnloop.arch
                                                : s.framework.arch;
}

std::shared_ptr<const cgra::CompiledKernel> scenario_kernel(
    KernelCache& cache, const Scenario& s) {
  return cache.get(scenario_kernel_config(s), scenario_arch(s),
                   scenario_kernel_kind(s));
}

/// Lockstep-group key: scenarios may share a lane batch only when they run
/// the same compiled kernel through the same engine and execution tier
/// (lanes of one BatchedCgraMachine all run one tier).
std::string scenario_group_key(const Scenario& s) {
  std::string key =
      s.engine == ScenarioEngine::kTurnLevel ? "turn|" : "tick|";
  key += kernel_cache_key(scenario_kernel_config(s), scenario_arch(s),
                          scenario_kernel_kind(s));
  key += '|';
  key += cgra::exec_tier_name(s.engine == ScenarioEngine::kTurnLevel
                                  ? s.turnloop.exec_tier
                                  : s.framework.exec_tier);
  return key;
}

// --- shared metric extraction ----------------------------------------------

void fill_windows(const Scenario& scenario, double jump_s,
                  MetricWindows& windows) {
  windows.jump_s = jump_s;
  windows.end_s = scenario.duration_s;
  windows.f_sync_nominal_hz = scenario.f_sync_nominal_hz;
}

[[nodiscard]] double finite_fraction(std::span<const double> xs) {
  if (xs.empty()) return 1.0;
  std::size_t n = 0;
  for (const double v : xs) {
    if (std::isfinite(v)) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

/// Fault-campaign columns: injector counters plus supervisor episode stats.
/// Without a supervisor the finite-output ratio falls back to the fraction
/// of finite phase samples — exactly 1.0 on a healthy run either way, so the
/// healthy-path byte-identity regression holds.
void fill_fault_metrics(const fault::FaultInjector* injector,
                        const hil::Supervisor* supervisor,
                        std::span<const double> phases, ScenarioMetrics& m) {
  if (injector != nullptr) m.faults_injected = injector->windows_entered();
  if (supervisor != nullptr) {
    const hil::SupervisorStats& s = supervisor->stats();
    m.faults_detected = s.faults_detected;
    m.faults_recovered = s.recoveries;
    m.time_to_recovery_turns = s.mean_time_to_recovery_turns();
    m.finite_output_ratio = s.finite_output_ratio();
  } else {
    m.finite_output_ratio = finite_fraction(phases);
  }
}

void finalize_framework_result(const Scenario& scenario, hil::Framework& fw,
                               double wall_s, bool collect_traces,
                               ScenarioResult& out) {
  MetricWindows windows;
  fill_windows(scenario,
               scenario.framework.jumps ? scenario.framework.jumps->start_s()
                                        : 0.0,
               windows);
  out.metrics = extract_phase_metrics(fw.phase_trace().times(),
                                      fw.phase_trace().values(), windows);
  out.metrics.realtime_violations = fw.realtime_violations();
  out.metrics.cgra_runs = fw.cgra_runs();
  out.metrics.sim_time_s = scenario.duration_s;
  out.metrics.schedule_cycles =
      static_cast<std::int64_t>(fw.kernel().schedule.length);
  const obs::DeadlineStats deadline = fw.deadline().stats();
  out.metrics.deadline_headroom_min = deadline.headroom_min;
  out.metrics.deadline_headroom_p50 = deadline.headroom_p50;
  out.metrics.deadline_headroom_p99 = deadline.headroom_p99;
  out.metrics.worst_overrun_cycles = deadline.worst_overrun_cycles;
  fill_fault_metrics(fw.injector(), fw.supervisor(),
                     fw.phase_trace().values(), out.metrics);
  out.metrics.wall_time_s = wall_s;
  out.metrics.wall_over_sim =
      scenario.duration_s > 0.0 ? wall_s / scenario.duration_s : 0.0;

  if (collect_traces) {
    out.trace_time_s = fw.phase_trace().times();
    out.trace_phase_rad = fw.phase_trace().values();
  }
}

void finalize_turn_result(const Scenario& scenario, hil::TurnLoop& loop,
                          std::vector<double>&& ts,
                          std::vector<double>&& phases, double wall_s,
                          bool collect_traces, ScenarioResult& out) {
  MetricWindows windows;
  fill_windows(scenario,
               scenario.turnloop.jumps ? scenario.turnloop.jumps->start_s()
                                       : 0.0,
               windows);
  out.metrics = extract_phase_metrics(ts, phases, windows);
  out.metrics.realtime_violations = loop.realtime_violations();
  out.metrics.cgra_runs = loop.turn();
  out.metrics.sim_time_s = scenario.duration_s;
  out.metrics.schedule_cycles =
      static_cast<std::int64_t>(loop.kernel().schedule.length);
  const obs::DeadlineStats deadline = loop.deadline().stats();
  out.metrics.deadline_headroom_min = deadline.headroom_min;
  out.metrics.deadline_headroom_p50 = deadline.headroom_p50;
  out.metrics.deadline_headroom_p99 = deadline.headroom_p99;
  out.metrics.worst_overrun_cycles = deadline.worst_overrun_cycles;
  fill_fault_metrics(loop.injector(), loop.supervisor(), phases, out.metrics);
  out.metrics.wall_time_s = wall_s;
  out.metrics.wall_over_sim =
      scenario.duration_s > 0.0 ? wall_s / scenario.duration_s : 0.0;

  if (collect_traces) {
    out.trace_time_s = std::move(ts);
    out.trace_phase_rad = std::move(phases);
  }
}

[[nodiscard]] std::int64_t turn_count(const Scenario& scenario) {
  return static_cast<std::int64_t>(scenario.duration_s *
                                   scenario.turnloop.f_ref_hz);
}

/// Opt-in oracle axis: re-runs the (turn-level) scenario through the spec's
/// fidelity pair and fills the two oracle metric columns. Runs identically
/// from the serial and the chunked path — the oracle constructs its own
/// loops from (scenario config, derived seed) alone, so the sweep's
/// byte-identity guarantee extends to these columns.
void run_scenario_oracle(const Scenario& scenario, std::uint64_t seed,
                         ScenarioMetrics& metrics) {
  if (!scenario.oracle.enabled) return;
  hil::TurnLoopConfig tc = scenario.turnloop;
  tc.noise_seed = seed;
  oracle::OracleConfig oc;
  oc.reference = scenario.oracle.reference;
  oc.candidate = scenario.oracle.candidate;
  oc.budget = scenario.oracle.budget;
  oc.checkpoint_stride = scenario.oracle.checkpoint_stride;
  oc.turns = std::max<std::int64_t>(1, turn_count(scenario));
  // Sweeps only report the columns; minimising and archiving a divergence is
  // the oracle_hunt driver's job.
  oc.shrink = false;
  const oracle::OracleReport rep = oracle::run_oracle(tc, oc);
  metrics.max_ulp_err = rep.max_ulp_err;
  metrics.first_divergent_turn = rep.first_divergent_turn;
}

// --- per-scenario (serial) runners ------------------------------------------

ScenarioResult run_framework_scenario(const Scenario& scenario,
                                      std::size_t index, std::uint64_t seed,
                                      KernelCache& cache,
                                      bool collect_traces) {
  ScenarioResult out;
  out.name = scenario.name;
  out.index = index;
  out.seed = seed;

  hil::FrameworkConfig fc = scenario.framework;
  fc.noise_seed = seed;
  auto kernel = cache.get(hil::Framework::effective_kernel_config(fc),
                          fc.arch);

  const auto wall_begin = std::chrono::steady_clock::now();
  hil::Framework fw(fc, std::move(kernel));
  {
    // One span per scenario task: the trace shows which worker ran which
    // scenario and for how long. scenario.name outlives the span.
    obs::ScopedSpan span(scenario.name);
    fw.run_seconds(scenario.duration_s);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  finalize_framework_result(
      scenario, fw,
      std::chrono::duration<double>(wall_end - wall_begin).count(),
      collect_traces, out);
  if (scenario.ensemble_reference) {
    run_ensemble_reference(scenario, seed, out);
  }
  return out;
}

ScenarioResult run_turn_scenario(const Scenario& scenario, std::size_t index,
                                 std::uint64_t seed, KernelCache& cache,
                                 bool collect_traces) {
  ScenarioResult out;
  out.name = scenario.name;
  out.index = index;
  out.seed = seed;

  hil::TurnLoopConfig tc = scenario.turnloop;
  tc.noise_seed = seed;
  auto kernel = cache.get(hil::TurnLoop::effective_kernel_config(tc), tc.arch,
                          scenario_kernel_kind(scenario));

  const auto turns = turn_count(scenario);
  std::vector<double> ts, phases;
  ts.reserve(static_cast<std::size_t>(turns));
  phases.reserve(static_cast<std::size_t>(turns));

  const auto wall_begin = std::chrono::steady_clock::now();
  hil::TurnLoop loop(tc, std::move(kernel));
  {
    obs::ScopedSpan span(scenario.name);
    loop.run(turns, [&](const hil::TurnRecord& r) {
      ts.push_back(r.time_s);
      phases.push_back(r.phase_rad);
    });
  }
  const auto wall_end = std::chrono::steady_clock::now();

  finalize_turn_result(
      scenario, loop, std::move(ts), std::move(phases),
      std::chrono::duration<double>(wall_end - wall_begin).count(),
      collect_traces, out);
  run_scenario_oracle(scenario, seed, out.metrics);
  if (scenario.ensemble_reference) {
    run_ensemble_reference(scenario, seed, out);
  }
  return out;
}

ScenarioResult run_scenario(const Scenario& scenario, std::size_t index,
                            std::uint64_t seed, KernelCache& cache,
                            bool collect_traces) {
  return scenario.engine == ScenarioEngine::kTurnLevel
             ? run_turn_scenario(scenario, index, seed, cache, collect_traces)
             : run_framework_scenario(scenario, index, seed, cache,
                                      collect_traces);
}

// --- lockstep chunk drivers -------------------------------------------------

/// Runs one chunk of sample-accurate scenarios as lanes of a batched
/// machine: every framework runs in deferred-CGRA mode, parking at its
/// reference crossing; each round executes one batched kernel iteration
/// across all parked lanes and acknowledges them. Lanes that exhausted their
/// tick budget drop out of the active set (lane-masked execution keeps the
/// others bit-identical to the serial path).
void run_framework_chunk(const SweepConfig& config,
                         const std::vector<std::size_t>& members,
                         KernelCache& cache,
                         std::vector<ScenarioResult>& results) {
  const std::size_t n = members.size();
  const auto wall_begin = std::chrono::steady_clock::now();
  auto kernel = scenario_kernel(cache, config.scenarios[members[0]]);

  std::vector<std::unique_ptr<hil::Framework>> fws(n);
  std::vector<cgra::SensorBus*> buses(n);
  std::vector<Tick> end_tick(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Scenario& scenario = config.scenarios[members[k]];
    hil::FrameworkConfig fc = scenario.framework;
    fc.noise_seed = scenario_seed(config.seed, members[k]);
    fws[k] = std::make_unique<hil::Framework>(fc, kernel);
    fws[k]->set_cgra_deferred(true);
    buses[k] = &fws[k]->cgra_bus();
    end_tick[k] = kSampleClock.to_ticks(scenario.duration_s);
  }
  cgra::BatchedCgraMachine machine(
      *kernel, std::move(buses), cgra::Precision::kFloat32,
      config.scenarios[members[0]].framework.exec_tier);
  for (std::size_t k = 0; k < n; ++k) {
    // Injected state faults and the supervisor's state guard act on this
    // framework's lane of the shared machine, not the idle owned one.
    fws[k]->attach_cgra_model(machine, k);
  }

  {
    obs::ScopedSpan span("sweep.batch_chunk");
    std::vector<std::uint32_t> active;
    active.reserve(n);
    std::vector<char> done(n, 0);
    for (;;) {
      active.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (done[k]) continue;
        const Tick remaining = end_tick[k] - fws[k]->now();
        if (remaining > 0 && fws[k]->run_until_cgra_request(remaining)) {
          active.push_back(static_cast<std::uint32_t>(k));
        } else {
          done[k] = 1;
        }
      }
      if (active.empty()) break;
      const unsigned exec =
          machine.run_iteration_lanes(active.data(), active.size());
      for (const std::uint32_t id : active) {
        fws[id]->complete_cgra_run(exec);
      }
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count() /
      static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = members[k];
    const Scenario& scenario = config.scenarios[i];
    ScenarioResult& out = results[i];
    out.name = scenario.name;
    out.index = i;
    out.seed = scenario_seed(config.seed, i);
    finalize_framework_result(scenario, *fws[k], wall_s,
                              config.collect_traces, out);
    if (scenario.ensemble_reference) {
      run_ensemble_reference(scenario, out.seed, out);
    }
  }
}

/// Runs one chunk of turn-level scenarios in lockstep: each revolution,
/// every active loop presents its inputs (begin_turn), one batched kernel
/// iteration executes all active lanes, and every loop completes its
/// revolution (finish_turn).
void run_turn_chunk(const SweepConfig& config,
                    const std::vector<std::size_t>& members,
                    KernelCache& cache, std::vector<ScenarioResult>& results) {
  const std::size_t n = members.size();
  const auto wall_begin = std::chrono::steady_clock::now();
  auto kernel = scenario_kernel(cache, config.scenarios[members[0]]);

  std::vector<std::unique_ptr<hil::TurnLoop>> loops(n);
  std::vector<cgra::SensorBus*> buses(n);
  std::vector<std::int64_t> turns(n);
  std::vector<std::vector<double>> ts(n), phases(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Scenario& scenario = config.scenarios[members[k]];
    hil::TurnLoopConfig tc = scenario.turnloop;
    tc.noise_seed = scenario_seed(config.seed, members[k]);
    loops[k] = std::make_unique<hil::TurnLoop>(tc, kernel,
                                               hil::TurnLoop::ExternalModel{});
    buses[k] = &loops[k]->cgra_bus();
    turns[k] = turn_count(scenario);
    ts[k].reserve(static_cast<std::size_t>(turns[k]));
    phases[k].reserve(static_cast<std::size_t>(turns[k]));
  }
  cgra::BatchedCgraMachine machine(
      *kernel, std::move(buses), cgra::Precision::kFloat32,
      config.scenarios[members[0]].turnloop.exec_tier);
  for (std::size_t k = 0; k < n; ++k) {
    loops[k]->attach_model(machine, k);
  }

  {
    obs::ScopedSpan span("sweep.batch_chunk");
    std::vector<std::uint32_t> active;
    active.reserve(n);
    for (;;) {
      active.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (loops[k]->turn() < turns[k] && !loops[k]->aborted()) {
          loops[k]->begin_turn();
          active.push_back(static_cast<std::uint32_t>(k));
        }
      }
      if (active.empty()) break;
      const unsigned exec =
          machine.run_iteration_lanes(active.data(), active.size());
      for (const std::uint32_t id : active) {
        const hil::TurnRecord r = loops[id]->finish_turn(exec);
        ts[id].push_back(r.time_s);
        phases[id].push_back(r.phase_rad);
      }
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count() /
      static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = members[k];
    const Scenario& scenario = config.scenarios[i];
    ScenarioResult& out = results[i];
    out.name = scenario.name;
    out.index = i;
    out.seed = scenario_seed(config.seed, i);
    finalize_turn_result(scenario, *loops[k], std::move(ts[k]),
                         std::move(phases[k]), wall_s, config.collect_traces,
                         out);
    run_scenario_oracle(scenario, out.seed, out.metrics);
    if (scenario.ensemble_reference) {
      run_ensemble_reference(scenario, out.seed, out);
    }
  }
}

/// Partitions scenario indices into lockstep chunks: scenarios group by
/// (engine, kernel-cache key) in index order, each group splitting into runs
/// of at most `lanes`. The grouping is deterministic (ordered map, ascending
/// indices), so chunk composition never depends on thread scheduling.
std::vector<std::vector<std::size_t>> plan_chunks(
    const std::vector<Scenario>& scenarios, std::size_t lanes) {
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    groups[scenario_group_key(scenarios[i])].push_back(i);
  }
  std::vector<std::vector<std::size_t>> chunks;
  for (const auto& [key, members] : groups) {
    for (std::size_t p = 0; p < members.size(); p += lanes) {
      const std::size_t e = std::min(members.size(), p + lanes);
      chunks.emplace_back(members.begin() + static_cast<std::ptrdiff_t>(p),
                          members.begin() + static_cast<std::ptrdiff_t>(e));
    }
  }
  return chunks;
}

}  // namespace

std::uint64_t scenario_seed(std::uint64_t master, std::size_t index) noexcept {
  // splitmix64 over (master, index): well-spread, stable, order-free.
  std::uint64_t z = master +
                    0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SweepResult run_sweep(const SweepConfig& config, ThreadPool* pool) {
  const auto wall_begin = std::chrono::steady_clock::now();

  KernelCache local_cache;
  KernelCache& cache = config.cache != nullptr ? *config.cache : local_cache;
  const std::size_t compilations_before = cache.compilations();

  for (const auto& scenario : config.scenarios) {
    if (scenario.oracle.enabled &&
        scenario.engine != ScenarioEngine::kTurnLevel) {
      throw ConfigError("sweep: scenario '" + scenario.name +
                        "' enables the differential oracle on a "
                        "sample-accurate engine; the oracle's fidelities are "
                        "all turn-granular", ErrorCode::kUnsupported);
    }
  }

  SweepResult result;
  result.scenarios.resize(config.scenarios.size());

  // Distinct-kernel accounting doubles as the attribution grouping: members
  // of one cache key share one compiled schedule, so one profile.
  std::map<std::string, std::vector<std::size_t>> distinct;
  for (std::size_t i = 0; i < config.scenarios.size(); ++i) {
    const auto& scenario = config.scenarios[i];
    distinct[kernel_cache_key(scenario_kernel_config(scenario),
                              scenario_arch(scenario),
                              scenario_kernel_kind(scenario))]
        .push_back(i);
  }
  result.distinct_kernels = distinct.size();

  ThreadPool local_pool(pool != nullptr ? 1 : config.threads);
  ThreadPool& runner = pool != nullptr ? *pool : local_pool;
  result.threads_used = runner.size();

  // Observability: completed-scenario counter, pending-queue gauge and a
  // Perfetto counter track. None of it reaches the deterministic results.
  obs::Counter& completed =
      obs::Registry::global().counter("sweep.scenarios_completed");
  obs::Gauge& pending_gauge =
      obs::Registry::global().gauge("sweep.scenarios_pending");
  pending_gauge.set(static_cast<double>(config.scenarios.size()));
  std::atomic<std::size_t> pending{config.scenarios.size()};
  const auto account_done = [&](std::size_t count) {
    completed.add(count);
    const auto left = static_cast<double>(
        pending.fetch_sub(count, std::memory_order_relaxed) - count);
    pending_gauge.set(left);
    obs::Tracer::global().counter("sweep.scenarios_pending", left);
  };

  if (config.batch_lanes > 1) {
    // Batched path: chunks of kernel-sharing scenarios are the unit of work.
    const auto chunks = plan_chunks(config.scenarios, config.batch_lanes);
    result.batch_chunks = chunks.size();
    obs::Registry::global().counter("sweep.batch.chunks").add(chunks.size());
    runner.parallel_for(0, chunks.size(), [&](std::size_t c) {
      const auto& members = chunks[c];
      if (config.scenarios[members[0]].engine == ScenarioEngine::kTurnLevel) {
        run_turn_chunk(config, members, cache, result.scenarios);
      } else {
        run_framework_chunk(config, members, cache, result.scenarios);
      }
      account_done(members.size());
    });
  } else {
    // One scenario per index; slot `i` is written only by the task running
    // scenario i, and every input of that task is derived from (config, i) —
    // this is what makes the sweep schedule-independent.
    runner.parallel_for(0, config.scenarios.size(), [&](std::size_t i) {
      result.scenarios[i] =
          run_scenario(config.scenarios[i], i, scenario_seed(config.seed, i),
                       cache, config.collect_traces);
      account_done(1);
    });
  }

  // Per-kernel cycle attribution: static schedule profile × the summed
  // cgra_runs of the member scenarios. Ordered by cache key (the std::map),
  // so the report section is deterministic at any thread/lane count.
  for (const auto& [key, members] : distinct) {
    KernelAttribution ka;
    // peek(): the scenarios already resolved every key, and the attribution
    // pass must not inflate the cache's lookup/hit statistics.
    auto kernel = cache.peek(key);
    if (kernel == nullptr) {
      kernel = scenario_kernel(cache, config.scenarios[members[0]]);
    }
    ka.profile = cgra::kernel_cycle_profile(*kernel);
    for (const std::size_t idx : members) {
      ka.iterations +=
          static_cast<std::uint64_t>(result.scenarios[idx].metrics.cgra_runs);
    }
    ka.scenario_indices = members;
    result.attribution.push_back(std::move(ka));
  }

  result.kernel_compilations = cache.compilations() - compilations_before;
  result.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  return result;
}

}  // namespace citl::sweep
