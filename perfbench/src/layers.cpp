// The per-layer probe suite of a traced run.
//
// It calls each module's public functions from outside, the way the
// workloads drive them, and times them without touching the program. Two
// probe rules keep the numbers honest:
//   * wall time: calls that take about as long as a clock read are timed one
//     in kSampleEvery, and the measured cost of the probe itself
//     (probe_cost_ns) is subtracted from every sample;
//   * instructions: a counter read costs ~1 us of wall time, so instruction
//     passes are separate from timing passes, and each bracketed delta has
//     the counter's own fixed read cost subtracted. The median per call is
//     reported: it repeats exactly for a given seed, where a mean picks up
//     the odd extra instruction the virtualised counter books on a call.
// Every metric carries the end-to-end metric it is expected to move.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cgra/codegen.hpp"
#include "cgra/kernels.hpp"
#include "gate.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/runtime.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace citl;
namespace fs = std::filesystem;

namespace {

/// Cost of one timing probe (two steady-clock reads), in ns: what sampled
/// timings subtract.
double probe_cost_ns() {
  std::vector<double> d;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t t0 = now_ns();
    d.push_back(static_cast<double>(now_ns() - t0));
  }
  return trimmed_mean(std::move(d), 0.1);
}

constexpr std::int64_t kSampleEvery = 16;
/// Of the timed calls, one in kSpanEvery is also kept as a trace span.
constexpr std::int64_t kSpanEvery = 16;
constexpr double kTrim = 0.1;  ///< trimmed means drop 10 % at each end
constexpr int kReps = 5;
constexpr std::uint32_t kStepTurns = 128;
/// Steps per session in the serve probes: one served segment's worth
/// (1024 requests, every 4th a poll), so the journals match the workload's.
constexpr int kServeSteps = 768;

/// Records a span [t0, t1) and returns its duration in ns.
double span(obs::Tracer& tracer, const char* name, std::uint64_t t0,
            std::uint64_t t1) {
  tracer.complete(name, t0, t1 - t0);
  return static_cast<double>(t1 - t0);
}

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* feeds;  ///< end-to-end metric(s) it should move
};

// The layer -> end-to-end map (README.md, "Layers").
constexpr LayerMetric kLayers[] = {
    {"cgra.iter_ns", "ns", "turnloop turns_per_s; served step_ms_p50"},
    {"cgra.iter_instr", "count", "turnloop turns_per_s; served step_ms_p50"},
    {"cgra.schedule_ticks", "count", "simulated; moves only with the schedule"},
    {"cgra.compile_ms", "ms", "setup_s (all workloads)"},
    {"cgra.codegen_ms", "ms", "setup_s (all workloads)"},
    {"hil.turn_ns", "ns", "turnloop turns_per_s"},
    {"hil.turn_instr", "count", "turnloop turns_per_s"},
    {"hil.deadline_occupancy_p99", "ratio", "simulated; must stay identical"},
    {"sig.chain_ns_per_sample", "ns", "chain turns_per_s"},
    {"sig.chain_instr_per_sample", "count", "chain turns_per_s"},
    {"hil.framework_cgra_ns", "ns", "chain turns_per_s (slightly)"},
    {"serve.runtime_step_ms", "ms", "served step_ms_p50, step_ms_p90"},
    {"serve.journal_append_ms", "ms", "served step_ms_p50, step_ms_p90"},
    {"serve.codec_us", "us", "served step_ms_p50"},
    {"serve.wire_ms", "ms", "served step_ms_p50, poll_ms_p50 (derived)"},
    {"serve.journal_bytes_per_step", "bytes", "served step_ms_p50"},
    {"serve.recover_scan_ms", "ms", "served recover_s"},
    {"serve.recover_replay_turns", "count", "served recover_s"},
    {"serve.client_retries", "count", "failed operations"},
    {"trace.probe_ns", "ns", "subtracted from sampled timings"},
    {"trace.overhead_pct", "%", "traced vs untraced turns_per_s"},
};

const LayerMetric& layer(const std::string& name) {
  for (const LayerMetric& m : kLayers) {
    if (name == m.name) return m;
  }
  throw std::logic_error("unknown layer metric " + name);
}

void add(Outcome& out, const char* name, double value) {
  out.add(name, value, layer(name).unit);
}

// --- cgra + hil: compile, codegen, the turn and its kernel iteration ------

void turn_layers(const Options& opt, obs::Tracer& tracer, double probe_ns,
                 const InstrCounter& ctr, Outcome& out,
                 std::vector<hil::TurnRecord>& records) {
  const hil::TurnLoopConfig tc =
      api::to_turnloop_config(session_config(opt.seed));
  const std::string source =
      cgra::beam_kernel_source(hil::TurnLoop::effective_kernel_config(tc));
  std::vector<double> compile_ms;
  std::unique_ptr<cgra::CompiledKernel> kernel;
  for (int i = 0; i < kReps; ++i) {
    const std::uint64_t t0 = tracer.now_ns();
    kernel = std::make_unique<cgra::CompiledKernel>(
        cgra::compile_kernel(source, tc.arch, "beam_sampled"));
    compile_ms.push_back(span(tracer, "cgra.compile", t0, tracer.now_ns()) *
                         1e-6);
  }
  add(out, "cgra.compile_ms", median(compile_ms));

  // Native resolution from the warm disk cache, as a fresh process sees it.
  auto& native = cgra::NativeKernelCache::global();
  if (native.get(*kernel, cgra::Precision::kFloat32, 1) != nullptr) {
    std::vector<double> codegen_ms;
    for (int i = 0; i < kReps; ++i) {
      native.clear_memory();
      const std::uint64_t t0 = tracer.now_ns();
      (void)native.get(*kernel, cgra::Precision::kFloat32, 1);
      codegen_ms.push_back(span(tracer, "cgra.codegen", t0, tracer.now_ns()) *
                           1e-6);
    }
    add(out, "cgra.codegen_ms", median(codegen_ms));
  } else {
    std::printf("cgra.codegen_ms absent: native tier unavailable (%s)\n",
                native.last_error().c_str());
  }

  hil::TurnLoop loop(tc);
  for (int i = 0; i < 4096; ++i) records.push_back(loop.step());
  std::vector<double> iter_ns, turn_ns;
  unsigned cycles = 0;
  for (std::int64_t i = 0; i < 524288; ++i) {
    if (i % kSampleEvery != 0) {
      loop.begin_turn();
      (void)loop.finish_turn(loop.model().run_iteration_all_lanes());
      continue;
    }
    const std::uint64_t t0 = tracer.now_ns();
    loop.begin_turn();
    const std::uint64_t t1 = tracer.now_ns();
    cycles = loop.model().run_iteration_all_lanes();
    const std::uint64_t t2 = tracer.now_ns();
    (void)loop.finish_turn(cycles);
    const std::uint64_t t3 = tracer.now_ns();
    if (i % (kSampleEvery * kSpanEvery) == 0) {
      tracer.complete("hil.turn", t0, t3 - t0);
      tracer.complete("cgra.iter", t1, t2 - t1);
    }
    iter_ns.push_back(
        std::max(0.0, static_cast<double>(t2 - t1) - probe_ns));
    turn_ns.push_back(std::max(
        0.0, static_cast<double>((t1 - t0) + (t3 - t2)) - 2 * probe_ns));
  }
  add(out, "cgra.iter_ns", trimmed_mean(iter_ns, kTrim));
  add(out, "hil.turn_ns", trimmed_mean(turn_ns, kTrim));
  add(out, "cgra.schedule_ticks", cycles);
  add(out, "hil.deadline_occupancy_p99",
      loop.deadline().occupancy_quantile(0.99));

  if (ctr.available()) {
    const double ovh = static_cast<double>(ctr.read_overhead());
    std::vector<double> iter, turn;
    for (int i = 0; i < 2048; ++i) {
      const std::uint64_t c0 = ctr.read();
      loop.begin_turn();
      const std::uint64_t c1 = ctr.read();
      const unsigned n = loop.model().run_iteration_all_lanes();
      const std::uint64_t c2 = ctr.read();
      (void)loop.finish_turn(n);
      const std::uint64_t c3 = ctr.read();
      iter.push_back(static_cast<double>(c2 - c1) - ovh);
      turn.push_back(static_cast<double>((c1 - c0) + (c3 - c2)) - 2 * ovh);
    }
    add(out, "cgra.iter_instr", median(iter));
    add(out, "hil.turn_instr", median(turn));
  }
}

// --- sig + hil: the sample chain in deferred-CGRA mode --------------------

void chain_layers(const Options& opt, obs::Tracer& tracer, double probe_ns,
                  const InstrCounter& ctr, Outcome& out) {
  hil::Framework fw(chain_config(opt.seed));
  fw.set_cgra_deferred(true);
  // One revolution: chain up to the CGRA request, iteration, completion.
  const auto revolution = [&](std::uint64_t* t) {
    t[0] = tracer.now_ns();
    const Tick tick0 = fw.now();
    const bool pending = fw.run_until_cgra_request(1 << 20);
    t[1] = tracer.now_ns();
    if (pending) fw.complete_cgra_run(fw.machine().run_iteration_all_lanes());
    t[2] = tracer.now_ns();
    return static_cast<double>(fw.now() - tick0);
  };
  std::uint64_t t[3];
  for (int i = 0; i < 64; ++i) revolution(t);  // past the start-up periods
  std::vector<double> chain_ns, cgra_ns;
  for (int i = 0; i < 16384; ++i) {
    const double ticks = revolution(t);
    if (i % kSpanEvery == 0) {
      tracer.complete("sig.chain", t[0], t[1] - t[0]);
      tracer.complete("hil.framework_cgra", t[1], t[2] - t[1]);
    }
    chain_ns.push_back(
        std::max(0.0, static_cast<double>(t[1] - t[0]) - probe_ns) / ticks);
    cgra_ns.push_back(
        std::max(0.0, static_cast<double>(t[2] - t[1]) - probe_ns));
  }
  add(out, "sig.chain_ns_per_sample", trimmed_mean(chain_ns, kTrim));
  add(out, "hil.framework_cgra_ns", trimmed_mean(cgra_ns, kTrim));

  if (ctr.available()) {
    const double ovh = static_cast<double>(ctr.read_overhead());
    std::vector<double> per_sample;
    for (int i = 0; i < 256; ++i) {
      const Tick tick0 = fw.now();
      const std::uint64_t c0 = ctr.read();
      const bool pending = fw.run_until_cgra_request(1 << 20);
      const double instr = static_cast<double>(ctr.read() - c0) - ovh;
      per_sample.push_back(instr / static_cast<double>(fw.now() - tick0));
      if (pending) fw.complete_cgra_run(fw.machine().run_iteration_all_lanes());
    }
    add(out, "sig.chain_instr_per_sample", median(per_sample));
  }
}

// --- serve: runtime step, journal, codec, wire, recovery scan --------------

/// Turns a recovery replays from one journal: steps after its last
/// checkpoint image (all of them when it never compacted).
std::uint64_t replay_turns(const serve::JournalScan& scan) {
  std::uint64_t turns = 0;
  for (const serve::JournalRecord& rec : scan.records) {
    if (rec.type == serve::JournalRecordType::kCheckpoint) turns = 0;
    if (rec.type == serve::JournalRecordType::kStep) {
      serve::WireReader r(rec.payload);
      turns += r.u32();
    }
  }
  return turns;
}

void serve_layers(const Options& opt, obs::Tracer& tracer,
                  const std::vector<hil::TurnRecord>& sample, Outcome& out) {
  const fs::path dir = fs::path(opt.state_dir) / "layers";
  fs::remove_all(dir);
  fs::create_directories(dir / "runtime");
  fs::create_directories(dir / "wire");
  // The served workload's two sessions: A plain, B supervised.
  api::SessionConfig cfgs[2] = {session_config(opt.seed, 0),
                                session_config(opt.seed, 1)};
  cfgs[1].supervised = true;

  // One step response's protocol work: encode 128 records into a frame,
  // split it back out of a byte stream, decode the records.
  std::vector<double> codec_us;
  const std::span<const hil::TurnRecord> recs(sample.data(), kStepTurns);
  for (int i = 0; i < 2048; ++i) {
    const std::uint64_t t0 = tracer.now_ns();
    serve::WireWriter w;
    for (const auto& r : recs) serve::encode_turn_record(w, r);
    serve::Frame f;
    f.opcode = serve::Opcode::kStep;
    f.payload = w.take();
    const std::vector<std::uint8_t> bytes = serve::encode_frame(f);
    serve::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    const auto frame = parser.next();
    serve::WireReader rd(frame->payload);
    std::vector<hil::TurnRecord> back;
    back.reserve(kStepTurns);
    for (std::uint32_t k = 0; k < kStepTurns; ++k) {
      back.push_back(serve::decode_turn_record(rd));
    }
    codec_us.push_back(span(tracer, "serve.codec", t0, tracer.now_ns()) *
                       1e-3);
    if (i == 0 && !compare_bits<hil::TurnRecord>(back, recs).ok()) {
      out.fail(1, "serve codec: decoded records differ from the encoded ones");
    }
  }
  const double codec = trimmed_mean(codec_us, kTrim);
  add(out, "serve.codec_us", codec);

  // The same 128-turn steps in-process (journal on) and over loopback, in
  // alternation so both see the same host conditions; the wire share is the
  // round trip the runtime step and the codec do not explain.
  std::vector<double> step_ms, wire_ms;
  std::vector<std::string> journals;
  std::uint64_t retries = 0;
  {
    serve::RuntimeConfig rc;
    rc.state_dir = (dir / "runtime").string();
    serve::SessionRuntime rt(rc);
    serve::ServerConfig sc;
    sc.workers = 2;
    sc.runtime.state_dir = (dir / "wire").string();
    serve::SessionServer server(sc);
    server.start();
    serve::SessionClient client(server.port());
    std::uint32_t local[2], remote[2];
    for (int s = 0; s < 2; ++s) {
      local[s] = rt.create(cfgs[s]);
      remote[s] = client.create(cfgs[s]).session_id;
    }
    const serve::RuntimeStats s0 = rt.stats();
    for (int i = 0; i < kServeSteps; ++i) {
      for (int s = 0; s < 2; ++s) {
        const std::uint64_t t0 = tracer.now_ns();
        (void)rt.step(local[s], kStepTurns, static_cast<std::uint64_t>(i) + 1);
        const std::uint64_t t1 = tracer.now_ns();
        (void)client.step(remote[s], kStepTurns);
        const std::uint64_t t2 = tracer.now_ns();
        step_ms.push_back(span(tracer, "serve.runtime_step", t0, t1) * 1e-6);
        wire_ms.push_back((span(tracer, "serve.wire_step", t1, t2) -
                           static_cast<double>(t1 - t0)) * 1e-6);
      }
    }
    const serve::RuntimeStats s1 = rt.stats();
    retries = client.client_stats().retries;
    server.stop();
    add(out, "serve.runtime_step_ms", trimmed_mean(step_ms, kTrim));
    add(out, "serve.journal_bytes_per_step",
        static_cast<double>(s1.journal_bytes - s0.journal_bytes) /
            static_cast<double>(s1.step_requests - s0.step_requests));
    add(out, "serve.wire_ms", trimmed_mean(wire_ms, kTrim) - codec * 1e-3);
    add(out, "serve.client_retries", static_cast<double>(retries));
    for (const auto& e : fs::directory_iterator(dir / "runtime")) {
      journals.push_back(e.path().string());
    }
  }

  // Recovery's first phase: scanning both journals of one served segment.
  std::vector<double> scan_ms;
  std::uint64_t turns = 0;
  for (int i = 0; i < kReps; ++i) {
    turns = 0;
    const std::uint64_t t0 = tracer.now_ns();
    for (const std::string& path : journals) {
      turns += replay_turns(serve::scan_journal(path));
    }
    scan_ms.push_back(
        span(tracer, "serve.recover_scan", t0, tracer.now_ns()) * 1e-6);
  }
  add(out, "serve.recover_scan_ms", trimmed_mean(scan_ms, kTrim));
  add(out, "serve.recover_replay_turns", static_cast<double>(turns));

  std::vector<double> append_ms;
  serve::JournalWriter w((dir / "append.journal").string(), 1,
                         api::session_config_digest(cfgs[0]));
  for (std::uint64_t seq = 1; seq <= 512; ++seq) {
    serve::WireWriter p;
    p.u32(kStepTurns);
    p.u64(seq);
    const auto payload = p.take();
    const std::uint64_t t0 = tracer.now_ns();
    w.append(serve::JournalRecordType::kStep, payload);
    append_ms.push_back(
        span(tracer, "serve.journal_append", t0, tracer.now_ns()) * 1e-6);
  }
  add(out, "serve.journal_append_ms", trimmed_mean(append_ms, kTrim));
}

}  // namespace

void run_layers(const Options& opt, obs::Tracer& tracer, Outcome& out) {
  const InstrCounter ctr;
  const double probe_ns = probe_cost_ns();
  std::vector<hil::TurnRecord> records;
  turn_layers(opt, tracer, probe_ns, ctr, out, records);
  chain_layers(opt, tracer, probe_ns, ctr, out);
  serve_layers(opt, tracer, records, out);
  add(out, "trace.probe_ns", probe_ns);
  if (!ctr.available()) {
    std::printf("instruction metrics absent: perf counter unavailable\n");
  }
}

void print_layer_table(const std::vector<Metric>& metrics) {
  std::printf("%-28s %16s %-6s  %s\n", "layer metric", "value", "unit",
              "should move");
  for (const LayerMetric& l : kLayers) {
    for (const Metric& m : metrics) {
      if (m.name == l.name) {
        std::printf("%-28s %16.6f %-6s  %s\n", l.name, m.value, l.unit,
                    l.feeds);
      }
    }
  }
}

}  // namespace perfbench
