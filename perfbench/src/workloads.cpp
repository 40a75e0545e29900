// The workloads: turnloop and chain (in process, one thread) and served (two
// clients over the wire; run by hand, see README.md). Each checks its
// outputs bit for bit against a reference replay, measures fixed windows of
// requests, and times set-ups and recoveries between them. Traced runs
// interleave traced and untraced windows, so the tracing overhead is
// measured on the same engine state.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iterator>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cgra/codegen.hpp"
#include "core/simtime.hpp"
#include "gate.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace citl;
namespace fs = std::filesystem;

void Outcome::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  std::fprintf(stderr, "perfbench: FAILED %llu: %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

namespace {

/// Every workload runs the same request mix: steps of kStepUnits turns
/// (reference periods for the chain), every kPollEvery-th request an
/// operator poll instead — four by-name reads.
constexpr std::uint32_t kStepUnits = 128;
constexpr int kPollEvery = 4;
/// Between measurement windows, one set-up and one recovery are timed every
/// kRepEvery_s, so they sample the whole run, not one moment of it.
constexpr double kRepEvery_s = 0.25;
/// Every kSampleEvery-th turn or revolution of a traced step is timed and
/// recorded as spans (a few MB of trace per run).
constexpr std::int64_t kSampleEvery = 256;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool is_poll(int request) { return request % kPollEvery == kPollEvery - 1; }

/// One measurement window of a fixed request count: its duration and the
/// latencies inside it. A poll in process takes a few tens of nanoseconds,
/// below the 10 ns granularity of the clock here, so a window keeps its mean
/// poll latency and poll_ms_p50 is the interquartile mean of those means:
/// a median estimate that does not snap to the clock's ticks.
struct Window {
  double s = 0.0;
  std::vector<double> step_s;
  double poll_mean_s = 0.0;
};

/// Timings every workload collects.
struct Samples {
  std::vector<double> setup_s, recover_s;
  std::vector<Window> windows;          ///< untraced
  std::vector<double> traced_window_s;  ///< traced runs only
};

/// The six end-to-end metrics. `units_per_window` is the turns (periods)
/// one client steps per window; `clients` step concurrently.
///
/// Noise on a shared host only ever adds time, and it comes in spells that
/// can cover half a run. So rates and latencies are taken from the fastest
/// decile of windows (the windows the host left alone), and recover_s from
/// the fastest decile of recoveries; set-up is the median of its repeats.
void add_end_to_end(Outcome& out, const Samples& s, double units_per_window,
                    double clients) {
  std::vector<double> dur;
  for (const Window& w : s.windows) dur.push_back(w.s);
  const double p10 = quantile(dur, 0.10);
  std::vector<double> steps, polls;
  for (const Window& w : s.windows) {
    if (w.s > p10) continue;
    steps.insert(steps.end(), w.step_s.begin(), w.step_s.end());
    polls.push_back(w.poll_mean_s);
  }
  const double rate = clients * units_per_window / p10;
  out.add("setup_s", median(s.setup_s), "s");
  out.add("turns_per_s", rate, "1/s");
  out.add("step_ms_p50", 1e3 * quantile(steps, 0.50), "ms");
  out.add("step_ms_p90", 1e3 * quantile(steps, 0.90), "ms");
  out.add("poll_ms_p50", 1e3 * trimmed_mean(polls, 0.25), "ms");
  out.add("recover_s", quantile(s.recover_s, 0.10), "s");
  std::printf("samples: %zu windows (%zu in the fastest decile, holding %zu "
              "steps, %zu beyond p90), %zu set-ups, %zu recoveries\n",
              dur.size(), polls.size(), steps.size(),
              beyond_count(steps.size(), 0.90), s.setup_s.size(),
              s.recover_s.size());
  if (!s.traced_window_s.empty()) {
    const double traced_rate =
        clients * window_rate(units_per_window, s.traced_window_s);
    out.add("trace.overhead_pct", 100.0 * (rate - traced_rate) / rate, "%");
  }
}

void check_gate(Outcome& out, const char* what, const GateResult& g) {
  if (!g.ok()) {
    out.fail(g.mismatched, std::string(what) + ": " +
                               std::to_string(g.mismatched) + " of " +
                               std::to_string(g.compared) +
                               " records differ from the reference, first at " +
                               std::to_string(g.first_mismatch));
  }
}

/// The in-process closed loop behind turnloop and chain. `engine` has been
/// made and gated; this runs windows of `window_requests` requests for
/// opt.seconds (alternating with traced windows when traced), and times a
/// set-up (engine.make()) and a recovery (engine.recover()) every
/// kRepEvery_s in between. A window's polls run back to back after its
/// steps, behind one untimed poll: a lone in-process poll after a step
/// measures the cache misses the step left behind (30 ns to 2 us on a shared
/// host), not the poll.
template <typename Engine>
void run_windows(const Options& opt, obs::Tracer* tracer, Engine& engine,
                 int window_requests, Outcome& out) {
  Samples s;
  double sink = 0.0;
  const int polls = window_requests / kPollEvery;
  const auto window = [&](bool traced) {
    const std::uint64_t w0 = now_ns();
    Window w;
    for (int i = polls; i < window_requests; ++i) {
      const std::uint64_t t0 = now_ns();
      if (traced) {
        engine.traced_step(*tracer);
      } else {
        engine.step();
        w.step_s.push_back(seconds_since(t0));
      }
    }
    sink += engine.poll();  // untimed: refills what the steps evicted
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < polls; ++i) sink += engine.poll();
    w.poll_mean_s = seconds_since(t0) / polls;
    w.s = seconds_since(w0);
    if (traced) {
      s.traced_window_s.push_back(w.s);
    } else {
      s.windows.push_back(std::move(w));
    }
    out.attempted += static_cast<std::uint64_t>(window_requests);
  };
  window(false);  // warm-up
  s = Samples{};

  const std::uint64_t start = now_ns();
  std::uint64_t last_rep = 0;
  while (seconds_since(start) < opt.seconds) {
    if (last_rep == 0 || seconds_since(last_rep) >= kRepEvery_s) {
      cgra::NativeKernelCache::global().clear_memory();  // as a new process
      const std::uint64_t t0 = now_ns();
      const auto fresh = engine.make();
      s.setup_s.push_back(seconds_since(t0));
      cgra::NativeKernelCache::global().clear_memory();
      s.recover_s.push_back(engine.recover(out));
      ++out.attempted;
      last_rep = now_ns();
    }
    window(false);
    if (tracer != nullptr) window(true);
  }
  if (!std::isfinite(sink)) out.fail(1, "poll returned a non-finite value");
  add_end_to_end(out, s, (window_requests - polls) * double{kStepUnits}, 1.0);
}

/// The four by-name reads of an operator poll.
double poll_model(const cgra::BeamModel& m) {
  return api::kernel_param(m, "v_scale") + api::kernel_state(m, "gamma_r") +
         api::kernel_state(m, "dgamma0") + api::kernel_state(m, "dt0");
}

// --- turnloop ---------------------------------------------------------------

class TurnloopEngine {
 public:
  TurnloopEngine(std::uint64_t seed, Outcome& out)
      : cfg_(api::to_turnloop_config(session_config(seed))), loop_(make()) {
    out.exec_tier =
        std::string(cgra::exec_tier_name(loop_->model().exec_tier()));
    // Gate: the measured loop's first turns against an interpreter replay.
    hil::TurnLoopConfig ref_cfg = cfg_;
    ref_cfg.exec_tier = cgra::ExecTier::kInterpreter;
    hil::TurnLoop ref(ref_cfg);
    std::vector<hil::TurnRecord> got, want;
    for (int i = 0; i < 4096; ++i) {
      got.push_back(loop_->step());
      want.push_back(ref.step());
    }
    out.attempted += got.size();
    check_gate(out, "turnloop vs interpreter replay",
               compare_bits<hil::TurnRecord>(got, want));
  }

  [[nodiscard]] std::unique_ptr<hil::TurnLoop> make() const {
    return std::make_unique<hil::TurnLoop>(cfg_);
  }

  void step() {
    for (std::uint32_t i = 0; i < kStepUnits; ++i) {
      sink_ += loop_->step().phase_rad;
    }
  }

  /// The same step split into its layers, every kSampleEvery-th turn timed.
  void traced_step(obs::Tracer& tracer) {
    for (std::uint32_t i = 0; i < kStepUnits; ++i) {
      const bool sample = turn_++ % kSampleEvery == 0;
      const std::uint64_t t0 = sample ? tracer.now_ns() : 0;
      loop_->begin_turn();
      const std::uint64_t t1 = sample ? tracer.now_ns() : 0;
      const unsigned cycles = loop_->model().run_iteration_all_lanes();
      const std::uint64_t t2 = sample ? tracer.now_ns() : 0;
      sink_ += loop_->finish_turn(cycles).phase_rad;
      if (sample) {
        tracer.complete("hil.turn", t0, tracer.now_ns() - t0);
        tracer.complete("cgra.iter", t1, t2 - t1);
      }
    }
  }

  [[nodiscard]] double poll() const { return poll_model(loop_->model()); }

  /// Crash recovery as the session runtime does it: a fresh engine restored
  /// from the last checkpoint image replays the turns run since (4096 here,
  /// about 2 ms: short enough that some recoveries miss the host's slow
  /// spells). The recovered engine must then match the one it replaces.
  double recover(Outcome& out) {
    constexpr int kReplayTurns = 4096;
    const hil::TurnLoop::Checkpoint cp = loop_->checkpoint();
    for (int i = 0; i < kReplayTurns; ++i) sink_ += loop_->step().phase_rad;
    const std::uint64_t t0 = now_ns();
    auto fresh = make();
    fresh->restore(cp);
    for (int i = 0; i < kReplayTurns; ++i) (void)fresh->step();
    const double dt = seconds_since(t0);
    const hil::TurnRecord got = fresh->step();
    const hil::TurnRecord want = loop_->step();
    check_gate(out, "turnloop recovery from checkpoint",
               compare_bits<hil::TurnRecord>({&got, 1}, {&want, 1}));
    loop_ = std::move(fresh);
    return dt;
  }

  [[nodiscard]] bool finite() const { return std::isfinite(sink_); }

 private:
  hil::TurnLoopConfig cfg_;
  std::unique_ptr<hil::TurnLoop> loop_;
  double sink_ = 0.0;
  std::uint64_t turn_ = 0;
};

// --- chain ------------------------------------------------------------------

class ChainEngine {
 public:
  ChainEngine(std::uint64_t seed, Outcome& out)
      : cfg_(chain_config(seed)),
        ticks_per_period_(kSampleClock.frequency_hz() / cfg_.f_ref_hz),
        fw_(make()) {
    out.exec_tier =
        std::string(cgra::exec_tier_name(fw_->machine().exec_tier()));
    gate(out);
  }

  [[nodiscard]] std::unique_ptr<hil::Framework> make() const {
    return std::make_unique<hil::Framework>(cfg_);
  }

  void step() { fw_->run_ticks(ticks(kStepUnits)); }

  /// Deferred-CGRA mode splits a revolution into the sample chain up to the
  /// CGRA request, the kernel iteration, and the completion bookkeeping.
  void traced_step(obs::Tracer& tracer) {
    fw_->set_cgra_deferred(true);
    const Tick end = fw_->now() + ticks(kStepUnits);
    while (fw_->now() < end) {
      const bool sample = revolution_++ % kSampleEvery == 0;
      const std::uint64_t t0 = sample ? tracer.now_ns() : 0;
      const bool pending = fw_->run_until_cgra_request(
          static_cast<std::int64_t>(end - fw_->now()));
      const std::uint64_t t1 = sample ? tracer.now_ns() : 0;
      if (pending) {
        const unsigned cycles = fw_->machine().run_iteration_all_lanes();
        const std::uint64_t t2 = sample ? tracer.now_ns() : 0;
        fw_->complete_cgra_run(cycles);
        if (sample) {
          tracer.complete("hil.framework_cgra", t1, tracer.now_ns() - t1);
          tracer.complete("cgra.iter", t1, t2 - t1);
        }
      }
      if (sample) tracer.complete("sig.chain", t0, t1 - t0);
    }
    fw_->set_cgra_deferred(false);
  }

  [[nodiscard]] double poll() const { return poll_model(fw_->machine()); }

  /// The sample-accurate engine has no checkpoint image, so a restart
  /// re-locks from scratch: a fresh engine runs until its first kernel
  /// iteration completes, i.e. until beam output resumes.
  double recover(Outcome& out) {
    const std::uint64_t t0 = now_ns();
    auto fresh = make();
    const std::int64_t limit = ticks(64);
    while (fresh->cgra_runs() == 0 && fresh->now() < limit) fresh->tick();
    const double dt = seconds_since(t0);
    if (fresh->cgra_runs() == 0) {
      out.fail(1, "chain: no kernel iteration within 64 periods of a restart");
    }
    return dt;
  }

  [[nodiscard]] bool finite() const {
    return std::isfinite(fw_->last_phase_rad());
  }

 private:
  [[nodiscard]] std::int64_t ticks(std::int64_t periods) const {
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(periods) * ticks_per_period_));
  }

  /// run_ticks() of the measured engine against tick() of an
  /// interpreter-tier engine: every beam DAC sample plus the recorded phase
  /// and correction traces. A mismatch fails the revolution it falls in.
  void gate(Outcome& out) {
    constexpr std::int64_t kGatePeriods = 64;
    hil::FrameworkConfig ref_cfg = cfg_;
    ref_cfg.exec_tier = cgra::ExecTier::kInterpreter;
    hil::Framework ref(ref_cfg);
    fw_->params().set("record_enable", 1.0);
    ref.params().set("record_enable", 1.0);
    fw_->run_ticks(ticks(kGatePeriods));
    std::vector<double> dac;
    for (std::int64_t i = 0; i < ticks(kGatePeriods); ++i) {
      dac.push_back(ref.tick().beam_v);
    }
    fw_->params().set("record_enable", 0.0);

    std::set<std::int64_t> bad_periods;
    compare_bits<double>(fw_->beam_trace().values(), dac, [&](std::size_t i) {
      bad_periods.insert(static_cast<std::int64_t>(static_cast<double>(i) /
                                                   ticks_per_period_));
    });
    const hil::Trace* traces[][2] = {
        {&fw_->phase_trace(), &ref.phase_trace()},
        {&fw_->correction_trace(), &ref.correction_trace()}};
    for (const auto& [mine, theirs] : traces) {
      const auto& t = theirs->times().size() >= mine->times().size()
                          ? theirs->times()
                          : mine->times();
      const auto mark = [&](std::size_t i) {
        bad_periods.insert(static_cast<std::int64_t>(t[i] * cfg_.f_ref_hz));
      };
      compare_bits<double>(mine->values(), theirs->values(), mark);
      compare_bits<double>(mine->times(), theirs->times(), mark);
    }
    out.attempted += kGatePeriods;
    if (!bad_periods.empty()) {
      out.fail(bad_periods.size(),
               "chain: outputs differ from the tick-by-tick replay in " +
                   std::to_string(bad_periods.size()) + " revolutions");
    }
  }

  hil::FrameworkConfig cfg_;
  double ticks_per_period_;
  std::unique_ptr<hil::Framework> fw_;
  std::int64_t revolution_ = 0;
};

}  // namespace

api::SessionConfig session_config(std::uint64_t seed, unsigned stream) {
  api::SessionConfig c = api::paper_operating_point();
  const std::uint64_t h = splitmix64(seed * 16 + stream);
  c.noise_seed = h;
  c.phase_noise_rad = 5e-4 * (1.0 + static_cast<double>(h % 1024) / 1024.0);
  return c;
}

hil::FrameworkConfig chain_config(std::uint64_t seed) {
  // The sample-accurate engine takes no detector noise (api::
  // to_framework_config refuses it) and ADC noise would add a random draw
  // per sample to the chain being measured, so the seed moves the start of
  // the phase-jump programme instead (1-2 ms), plus the noise stream.
  api::SessionConfig sc = api::paper_operating_point();
  const std::uint64_t h = splitmix64(seed * 16);
  sc.noise_seed = h;
  sc.jump_start_s = 1e-3 * (1.0 + static_cast<double>(h % 1024) / 1024.0);
  return api::to_framework_config(sc);
}

Outcome run_turnloop(const Options& opt, obs::Tracer* tracer) {
  Outcome out;
  TurnloopEngine engine(opt.seed, out);
  // 24 steps + 8 polls: 3072 turns, about 1.3 ms at the interpreter tier.
  run_windows(opt, tracer, engine, 32, out);
  if (!engine.finite()) out.fail(1, "turnloop: non-finite phase output");
  return out;
}

Outcome run_chain(const Options& opt, obs::Tracer* tracer) {
  Outcome out;
  ChainEngine engine(opt.seed, out);
  // 48 steps + 16 polls: 6144 reference periods, about 65 ms. Sixteen
  // polls of ~25 ns span enough clock ticks to time them as a batch.
  run_windows(opt, tracer, engine, 64, out);
  if (!engine.finite()) out.fail(1, "chain: non-finite phase output");
  return out;
}

// --- served ---------------------------------------------------------------

namespace {

constexpr unsigned kClients = 2;
constexpr int kWindowRequests = 32;     ///< 24 steps + 8 polls
constexpr int kSegmentRequests = 1024;  ///< per client and segment
constexpr int kRestarts = 5;
constexpr double kWindowTurns =
    kWindowRequests * (kPollEvery - 1) / kPollEvery * double{kStepUnits};

/// One operator poll: the by-name reads an operator console issues.
struct Poll {
  std::int64_t turn = 0;  ///< session turn the values were read at
  double v[4] = {};
};

/// What one client saw: its windows, and — for the first segment, which
/// the gate checks — every response.
struct ClientLog {
  std::vector<Window> windows;
  std::vector<double> traced_window_s;
  std::vector<hil::TurnRecord> records;  ///< first segment's step responses
  std::vector<Poll> polls;               ///< first segment's polls
  std::vector<hil::TurnRecord> after;    ///< the step after the last restart
  std::uint64_t attempted = 0;
  std::uint64_t steps_ok = 0;
  std::vector<std::string> errors;
};

serve::ServerConfig server_config(const std::string& dir) {
  serve::ServerConfig sc;
  sc.workers = 2;
  sc.runtime.state_dir = dir;
  return sc;
}

/// One client's closed loop for one segment: step, step, step, poll, ...
void client_segment(serve::SessionClient& client, std::uint32_t id, bool keep,
                    obs::Tracer* tracer, ClientLog& log) {
  Window w;
  std::uint64_t w0 = now_ns();
  for (int i = 0; i < kSegmentRequests; ++i) {
    const bool poll = is_poll(i);
    const std::uint64_t ts = tracer != nullptr ? tracer->now_ns() : 0;
    const std::uint64_t t0 = now_ns();
    ++log.attempted;
    try {
      if (poll) {
        const Poll p{static_cast<std::int64_t>(log.steps_ok * kStepUnits),
                     {client.param(id, "v_scale"), client.state(id, "gamma_r"),
                      client.state(id, "dgamma0"), client.state(id, "dt0")}};
        if (keep) log.polls.push_back(p);
      } else {
        const auto recs = client.step(id, kStepUnits);
        ++log.steps_ok;
        if (keep) {
          log.records.insert(log.records.end(), recs.begin(), recs.end());
        }
      }
    } catch (const std::exception& e) {
      log.errors.push_back(e.what());
    }
    const double dt = seconds_since(t0);
    if (tracer != nullptr) {
      tracer->complete(poll ? "serve.poll" : "serve.step", ts,
                       tracer->now_ns() - ts);
    } else if (poll) {
      w.poll_mean_s += dt / (kWindowRequests / kPollEvery);
    } else {
      w.step_s.push_back(dt);
    }
    if ((i + 1) % kWindowRequests == 0) {
      w.s = seconds_since(w0);
      if (tracer != nullptr) {
        log.traced_window_s.push_back(w.s);
      } else {
        log.windows.push_back(std::move(w));
      }
      w = Window{};
      w0 = now_ns();
    }
  }
}

/// A server on `dir` with one connected client per session.
struct Deployment {
  std::unique_ptr<serve::SessionServer> server;
  std::unique_ptr<serve::SessionClient> clients[kClients];

  explicit Deployment(const std::string& dir)
      : server(std::make_unique<serve::SessionServer>(server_config(dir))) {
    server->start();
    for (auto& c : clients) {
      c = std::make_unique<serve::SessionClient>(server->port());
    }
  }
  ~Deployment() {
    for (auto& c : clients) c.reset();
    server->stop();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

/// Replays each session in-process (interpreter tier): the first segment's
/// step responses and polls must match bit for bit, and so must the step
/// after the last recovery. Mismatching responses count as failed.
void check_sessions(Outcome& out, const ClientLog* logs,
                    const api::SessionConfig* cfgs) {
  for (unsigned c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[c];
    hil::TurnLoopConfig tc = api::to_turnloop_config(cfgs[c]);
    tc.exec_tier = cgra::ExecTier::kInterpreter;
    hil::TurnLoop ref(tc);
    const cgra::BeamModel& m = ref.model();
    const cgra::ParamHandle v_scale = m.param_handle("v_scale");
    const cgra::StateHandle states[3] = {m.state_handle("gamma_r"),
                                         m.state_handle("dgamma0"),
                                         m.state_handle("dt0")};
    std::vector<hil::TurnRecord> want;
    std::size_t next_poll = 0;
    std::uint64_t bad_polls = 0;
    const auto check_polls = [&] {
      for (; next_poll < log.polls.size() &&
             log.polls[next_poll].turn == ref.turn();
           ++next_poll) {
        const double v[4] = {m.param(v_scale, 0), m.state(states[0], 0),
                             m.state(states[1], 0), m.state(states[2], 0)};
        bad_polls += !compare_bits<double>(log.polls[next_poll].v, v).ok();
      }
    };
    for (std::size_t i = 0; i < log.records.size(); ++i) {
      check_polls();
      want.push_back(ref.step());
    }
    check_polls();
    for (std::uint64_t t = log.records.size(); t < log.steps_ok * kStepUnits;
         ++t) {
      (void)ref.step();
    }
    for (std::uint32_t i = 0; i < kStepUnits; ++i) want.push_back(ref.step());

    std::vector<hil::TurnRecord> got = log.records;
    got.insert(got.end(), log.after.begin(), log.after.end());
    if (log.after.empty()) want.resize(got.size());  // already counted failed
    std::set<std::size_t> bad_steps;  // kStepUnits records per response
    compare_bits<hil::TurnRecord>(got, want, [&](std::size_t i) {
      bad_steps.insert(i / kStepUnits);
    });
    const std::string who = "served session " + std::to_string(c);
    if (!bad_steps.empty()) {
      out.fail(bad_steps.size(),
               who + ": step responses differ from the in-process replay");
    }
    if (bad_polls != 0 || next_poll != log.polls.size()) {
      out.fail(bad_polls + (log.polls.size() - next_poll),
               who + ": poll values differ from the in-process replay");
    }
  }
}

}  // namespace

Outcome run_served(const Options& opt, obs::Tracer* tracer) {
  Outcome out;
  // Session A is plain; session B is supervised and never compacts, so its
  // recovery replays every turn it ever ran.
  api::SessionConfig cfgs[kClients] = {session_config(opt.seed, 0),
                                       session_config(opt.seed, 1)};
  cfgs[1].supervised = true;
  out.exec_tier = std::string(cgra::exec_tier_name(
      hil::TurnLoop(api::to_turnloop_config(cfgs[0])).model().exec_tier()));
  const fs::path dir = fs::path(opt.state_dir) / "served";
  const fs::path live = dir / "live";
  fs::remove_all(dir);
  fs::create_directories(live);

  // Set-up: server start, connect, create, with an empty in-process kernel
  // memo. Timed for the measured deployment and again on a scratch state
  // dir before every segment.
  Samples s;
  std::uint32_t ids[kClients] = {};
  const auto deploy = [&](const fs::path& state, std::uint32_t* out_ids) {
    fs::create_directories(state);
    cgra::NativeKernelCache::global().clear_memory();
    const std::uint64_t t0 = now_ns();
    auto d = std::make_unique<Deployment>(state.string());
    for (unsigned c = 0; c < kClients; ++c) {
      out_ids[c] = d->clients[c]->create(cfgs[c]).session_id;
    }
    s.setup_s.push_back(seconds_since(t0));
    out.attempted += kClients;
    return d;
  };
  std::unique_ptr<Deployment> dep = deploy(live, ids);

  // Load: a fixed request count, 2 segments of kSegmentRequests per client
  // per second of run time, then kRestarts restarts of the server on the
  // same state dir with attach() of both sessions. The request count, not
  // the clock, ends the load, so every restart replays the same journals
  // whatever the speed.
  ClientLog logs[kClients];
  const int segments = 2 * opt.seconds;
  for (int seg = 0; seg < segments; ++seg) {
    {
      std::uint32_t scratch_ids[kClients];
      (void)deploy(dir / ("setup-" + std::to_string(seg)), scratch_ids);
    }
    obs::Tracer* seg_tracer = seg % 2 == 1 ? tracer : nullptr;
    std::latch go(1);
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        go.wait();
        client_segment(*dep->clients[c], ids[c], seg == 0, seg_tracer,
                       logs[c]);
      });
    }
    go.count_down();
  }
  for (int r = 0; r < kRestarts; ++r) {
    dep.reset();
    const std::uint64_t t0 = now_ns();
    dep = std::make_unique<Deployment>(live.string());
    for (unsigned c = 0; c < kClients; ++c) {
      ++logs[c].attempted;
      try {
        const auto at = dep->clients[c]->attach(ids[c]);
        if (at.turn != logs[c].steps_ok * kStepUnits) {
          logs[c].errors.push_back("attach() resumed at turn " +
                                   std::to_string(at.turn));
        }
      } catch (const std::exception& e) {
        logs[c].errors.push_back(e.what());
      }
    }
    s.recover_s.push_back(seconds_since(t0));
  }
  for (unsigned c = 0; c < kClients; ++c) {
    ++logs[c].attempted;
    try {
      logs[c].after = dep->clients[c]->step(ids[c], kStepUnits);
    } catch (const std::exception& e) {
      logs[c].errors.push_back(e.what());
    }
  }
  dep.reset();
  fs::remove_all(dir);

  for (ClientLog& log : logs) {
    out.attempted += log.attempted;
    if (!log.errors.empty()) {
      out.fail(log.errors.size(), "served: " + log.errors.front());
    }
    std::move(log.windows.begin(), log.windows.end(),
              std::back_inserter(s.windows));
    s.traced_window_s.insert(s.traced_window_s.end(),
                             log.traced_window_s.begin(),
                             log.traced_window_s.end());
  }
  check_sessions(out, logs, cfgs);
  add_end_to_end(out, s, kWindowTurns, kClients);
  return out;
}

}  // namespace perfbench
