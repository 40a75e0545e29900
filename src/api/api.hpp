// citl::api — the stable public facade over the HIL stack.
//
// Before this layer existed, every entry point rolled its own setup: the
// examples copied the operating-point plumbing (ring, gamma, gap voltage),
// the console spoke string-keyed machine methods, and the sweep builder took
// raw engine configs. The facade promotes that ad-hoc
// surface into one coherent API that the session server (src/serve/), the
// operator console, the examples and the sweep all consume:
//
//   * SessionConfig  — a flat, plain-data description of one virtual
//                      synchrotron (operating point + engine knobs). Flat on
//                      purpose: the citl-wire-v1 protocol serialises exactly
//                      these fields, so what a remote client can request is
//                      what a library caller can construct — nothing more.
//   * to_turnloop_config / to_framework_config — deterministic expansion
//                      into the engine configs (host-side initialisation:
//                      ring from the harmonic, gamma from f_ref, gap voltage
//                      from the target synchrotron frequency).
//   * by-name kernel access — the one interactive path to kernel
//                      parameters/states of any cgra::BeamModel. It resolves
//                      a handle per call (fine for consoles and RPC, wrong
//                      for per-revolution hot paths) and reports the same
//                      typed ConfigError a direct handle lookup would.
//   * ErrorCode      — re-exported from core/error.hpp: the one error
//                      taxonomy shared by library exceptions and the wire
//                      protocol's response status (docs/SERVING.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/error.hpp"
#include "hil/framework.hpp"
#include "hil/turnloop.hpp"

namespace citl::api {

using citl::Error;
using citl::ErrorCode;
using citl::error_code_name;

/// One virtual synchrotron, as the public API describes it. Field semantics
/// follow the paper's operating point; defaults() IS the paper's §V point.
/// Plain data, no invariants enforced at construction — validate() (called
/// by the converters and the session runtime) reports violations as
/// ConfigError naming the offending field.
struct SessionConfig {
  // --- operating point ----------------------------------------------------
  double f_ref_hz = 800.0e3;     ///< revolution (reference) frequency
  int harmonic = 4;              ///< RF harmonic number (ring = sis18(h))
  /// Target synchrotron frequency; the gap voltage is derived from it unless
  /// gap_voltage_v overrides it explicitly.
  double f_sync_hz = 1280.0;
  /// Explicit gap amplitude [V]; <= 0 means "derive from f_sync_hz".
  double gap_voltage_v = 0.0;
  // --- stimulus -----------------------------------------------------------
  double jump_amplitude_deg = 0.0;  ///< 0 = no phase-jump programme
  double jump_start_s = 1.0e-3;
  double jump_interval_s = 1.0;
  // --- control loop -------------------------------------------------------
  double gain = -5.0;            ///< beam-phase controller gain
  bool control_enabled = true;
  // --- engine knobs -------------------------------------------------------
  bool pipelined = true;         ///< 2-stage kernel pipelining (the paper's)
  bool cycle_accurate = false;   ///< walk the CGRA schedule cycle by cycle
  bool synthesize_waveform = false;  ///< CORDIC on-chip waveform synthesis
  bool quantise_period = false;  ///< hardware-style period quantisation
  /// Kernel execution back end (cgra/exec_tier.hpp): interpreter, bytecode,
  /// native codegen, or auto (the default: native when a host compiler
  /// exists, else bytecode). All tiers are bit-identical, so this knob
  /// changes throughput only — but it is still part of the config digest
  /// (the journal records exactly what ran).
  cgra::ExecTier exec_tier = cgra::ExecTier::kAuto;
  double phase_noise_rad = 0.0;  ///< detector noise injection
  std::uint64_t noise_seed = 7;  ///< deterministic per-session noise stream
  /// Supervised recovery layer with default thresholds (SupervisorConfig);
  /// sessions with a supervisor cannot be snapshot/restored (its internal
  /// state is not part of the checkpoint image).
  bool supervised = false;
};

/// The paper's §V operating point: 14N7+, 800 kHz, h = 4, f_sync ≈ 1.28 kHz,
/// 8 deg jumps at gain -5 (the defaults above, with the jump programme on).
[[nodiscard]] SessionConfig paper_operating_point();

/// Throws ConfigError (naming the offending field) when the configuration
/// is not realisable: non-positive frequencies, harmonic < 1, |gain| = 0
/// combined with control enabled is permitted (it just does nothing).
void validate(const SessionConfig& config);

/// Gap amplitude [V] realising config.f_sync_hz at the configured ring and
/// energy (or config.gap_voltage_v verbatim when that override is set).
[[nodiscard]] double effective_gap_voltage_v(const SessionConfig& config);

/// FNV-1a digest over the canonical field encoding (the citl-wire-v1 create
/// payload order, raw binary64 bit patterns for doubles). Equal configs —
/// and only equal configs, up to hash collision — share a digest; the
/// session journal stores it in the file header so recovery refuses to
/// replay a step log against a different operating point.
[[nodiscard]] std::uint64_t session_config_digest(const SessionConfig& config);

/// Expands a SessionConfig into the turn-level engine configuration. The
/// expansion is deterministic: equal SessionConfigs produce byte-identical
/// TurnLoopConfigs, which is what makes a session stepped over the wire
/// bit-identical to the in-process library path (pinned by ServeServer
/// tests).
[[nodiscard]] hil::TurnLoopConfig to_turnloop_config(
    const SessionConfig& config);

/// Expands a SessionConfig into the sample-accurate engine configuration
/// (examples and sweeps; the session server serves the turn-level engine).
[[nodiscard]] hil::FrameworkConfig to_framework_config(
    const SessionConfig& config);

// --- by-name kernel access (interactive path) -----------------------------
// Resolves a handle per call and delegates; machines themselves are
// addressed only by handle. Unknown names throw ConfigError{kUnknownKey}
// naming the kernel and the offending key, exactly like
// param_handle()/state_handle().

void set_kernel_param(cgra::BeamModel& model, std::string_view name,
                      double value, std::size_t lane = 0);
[[nodiscard]] double kernel_param(const cgra::BeamModel& model,
                                  std::string_view name, std::size_t lane = 0);
void set_kernel_state(cgra::BeamModel& model, std::string_view name,
                      double value, std::size_t lane = 0);
[[nodiscard]] double kernel_state(const cgra::BeamModel& model,
                                  std::string_view name, std::size_t lane = 0);

}  // namespace citl::api
