// Kernel execution tiers.
//
// The functional executor (BatchedCgraMachine, any lane count) evaluates a
// compiled kernel through three interchangeable back ends with bit-identical
// results (the Codegen* tests pin it per kernel and precision). The
// cycle-accurate CgraMachine has no tier: it always interprets, since it is
// the timing twin.
//
//   kInterpreter — walk the dataflow graph node by node, dispatching on
//                  OpKind (the original engine).
//   kBytecode    — a flat instruction stream lowered once from the compiled
//                  schedule: operand banks are pre-resolved (pipeline edges,
//                  param/state slots) and dispatch is a computed goto.
//                  Always available; no toolchain dependency.
//   kNative      — straight-line C++ emitted from the dataflow graph (SIMD
//                  over the SoA lanes), compiled by the host compiler,
//                  dlopen'd and cached on disk (cgra/codegen.hpp). Falls
//                  back to kBytecode when no compiler is available.
//   kAuto        — kNative when a host compiler can be found, else kBytecode.
//
// The tier is a configuration knob (FrameworkConfig / TurnLoopConfig /
// api::SessionConfig), kAuto by default; the machine resolves kAuto and the
// no-compiler fallback at construction and reports the tier it actually
// runs via exec_tier(). Pin kInterpreter to run the original engine.
#pragma once

#include <cstdint>
#include <string_view>

namespace citl::cgra {

enum class ExecTier : std::uint8_t {
  kInterpreter = 0,
  kBytecode = 1,
  kNative = 2,
  kAuto = 3,
};

[[nodiscard]] constexpr std::string_view exec_tier_name(ExecTier t) noexcept {
  switch (t) {
    case ExecTier::kInterpreter: return "interpreter";
    case ExecTier::kBytecode: return "bytecode";
    case ExecTier::kNative: return "native";
    case ExecTier::kAuto: return "auto";
  }
  return "?";
}

/// Parses an exec_tier_name() string; returns false on unknown names.
[[nodiscard]] constexpr bool parse_exec_tier(std::string_view s,
                                             ExecTier* out) noexcept {
  if (s == "interpreter") { *out = ExecTier::kInterpreter; return true; }
  if (s == "bytecode") { *out = ExecTier::kBytecode; return true; }
  if (s == "native") { *out = ExecTier::kNative; return true; }
  if (s == "auto") { *out = ExecTier::kAuto; return true; }
  return false;
}

}  // namespace citl::cgra
