// Bytecode tier: a compiled kernel lowered to a flat instruction stream.
//
// The interpreter re-derives everything per node per iteration: operand
// resolution walks the Node table, pipeline edges are re-tested with
// is_pipeline_edge(), param/state sources scan slot tables, and each node
// pays a switch on OpKind. Lowering runs that analysis exactly once: each
// instruction carries its opcode, its destination row offset and fully
// resolved operand row offsets (values vs pipeline-register bank, param and
// state slots pre-multiplied by the lane count), so execution is a computed
// goto over a dense array. Always available — no toolchain dependency — and
// bit-identical to the interpreter by construction: every handler performs
// the same arithmetic, in the same order, as cgra/exec.hpp and
// BatchedCgraMachine::run_pass (the Codegen* tests pin it per kernel).
// BatchedCgraMachine is the only owner; a single-lane machine is a program
// lowered for one lane.
//
// The program evaluates node rows only; latching pipeline registers and
// states (and the obs bookkeeping) stays in the machine's commit, so
// checkpoints and counters are tier-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"

namespace citl::cgra {

/// Dense opcode set of the VM (arithmetic ops mirror OpKind; sources and IO
/// get their own entry points so no handler re-tests the node class).
enum class BcOp : std::uint8_t {
  kConst = 0,
  kParam,
  kState,
  kLoad,
  kStore,
  kMove,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kSqrt,
  kNeg,
  kAbs,
  kMin,
  kMax,
  kFloor,
  kSin,
  kCos,
  kCmpLt,
  kCmpLe,
  kCmpEq,
  kSelect,
  kHalt,
};

/// Pointers into the owning machine's execution state for one pass. `values`
/// is written (one row per node); the other banks are read-only during the
/// pass — the machine's commit latches pipes and states afterwards.
struct BcContext {
  double* values = nullptr;            ///< [node * lanes + lane]
  const double* pipe_regs = nullptr;   ///< [node * lanes + lane]
  const double* state_vals = nullptr;  ///< [state index * lanes + lane]
  const double* param_vals = nullptr;  ///< [param index * lanes + lane]
  std::size_t lanes = 0;
  float* scratch_f = nullptr;          ///< >= 4 * lanes (CORDIC, binary32)
  double* scratch_d = nullptr;         ///< >= 4 * lanes (CORDIC, binary64)
};

class BytecodeProgram {
 public:
  struct Instr {
    BcOp op = BcOp::kHalt;
    std::uint8_t a_pipe = 0;  ///< operand A reads the pipe bank (else values)
    std::uint8_t b_pipe = 0;
    std::uint8_t c_pipe = 0;
    std::uint32_t dst = 0;    ///< destination row offset (node * lanes)
    std::uint32_t a = 0;      ///< operand row offsets (bank-relative)
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    double konst = 0.0;       ///< kConst literal (raw; quantised at run time)
  };

  /// Lowers `kernel` for machines with `lanes` lanes (row offsets are baked,
  /// so a program is specific to its machine's width).
  BytecodeProgram(const CompiledKernel& kernel, std::size_t lanes);

  /// One functional pass over every lane; `buses[lane]` serves that lane's
  /// loads and stores.
  void run_dense(Precision precision, const BcContext& ctx,
                 SensorBus* const* buses) const;
  /// One functional pass over `lane_ids[0 .. n_active)` (ascending).
  void run_masked(Precision precision, const BcContext& ctx,
                  SensorBus* const* buses, const std::uint32_t* lane_ids,
                  std::size_t n_active) const;

  [[nodiscard]] std::size_t instruction_count() const noexcept {
    return instrs_.size();  // includes the trailing kHalt
  }
  [[nodiscard]] const std::vector<Instr>& instructions() const noexcept {
    return instrs_;
  }

 private:
  std::vector<Instr> instrs_;
};

}  // namespace citl::cgra
