// CGRA machines: the model interface and the cycle-accurate reference.
//
// A compiled kernel runs on one of two machines with identical results (a
// tested invariant):
//   * BatchedCgraMachine (batch.hpp) — the functional executor: evaluates the
//                   dataflow graph in topological order over N lanes, on the
//                   interpreter, bytecode or native tier (exec_tier.hpp).
//                   With one lane it runs every long closed-loop simulation.
//   * CgraMachine (here) — the cycle-accurate reference: walks the schedule
//                   cycle by cycle, issuing each operation on its PE at its
//                   context slot and committing results at op latency; IO
//                   hits the bus at the scheduled cycle. This is the
//                   software twin of the overlay and provides the
//                   deterministic timing the paper relies on.
//
// Arithmetic is performed in IEEE binary32 by default — the overlay's PEs
// are single-precision floating-point operators — with an optional binary64
// mode for precision studies.
//
// Model-facing API: parameters and loop-carried states are addressed through
// ParamHandle / StateHandle, resolved once from the kernel. By-name access
// for interactive use (console, tests) goes through the citl::api helpers
// (api/api.hpp), which resolve a handle per call and must stay off
// per-revolution hot paths.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cgra/attribution.hpp"
#include "cgra/exec_tier.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"

namespace citl::cgra {

enum class Precision { kFloat32, kFloat64 };

/// Index of a runtime parameter within its kernel's parameter table.
/// Resolved once (param_handle / BeamModel::param_handle); valid only for
/// machines executing the kernel it was resolved from.
struct ParamHandle {
  int index = -1;
  [[nodiscard]] constexpr bool valid() const noexcept { return index >= 0; }
};

/// Index of a loop-carried state within its kernel's state table.
struct StateHandle {
  int index = -1;
  [[nodiscard]] constexpr bool valid() const noexcept { return index >= 0; }
};

/// Resolves `name` against the kernel's parameter table. Throws citl::Error
/// (ConfigError) naming the kernel and the offending key if absent.
[[nodiscard]] ParamHandle param_handle(const CompiledKernel& kernel,
                                       std::string_view name);
[[nodiscard]] StateHandle state_handle(const CompiledKernel& kernel,
                                       std::string_view name);
/// Non-throwing lookups: an invalid handle means "not present".
[[nodiscard]] ParamHandle find_param(const CompiledKernel& kernel,
                                     std::string_view name) noexcept;
[[nodiscard]] StateHandle find_state(const CompiledKernel& kernel,
                                     std::string_view name) noexcept;

namespace detail {
/// Shared ConfigError construction for every kernel-executing machine, so a
/// stale handle or an out-of-range lane reports identically (kernel + key
/// naming) whether CgraMachine or BatchedCgraMachine raised it.
[[noreturn]] void throw_invalid_handle(const CompiledKernel& kernel,
                                       const char* what);
[[noreturn]] void throw_lane_out_of_range(const CompiledKernel& kernel,
                                          std::size_t lane, std::size_t lanes);
}  // namespace detail

/// Common interface of the kernel-executing machines: BatchedCgraMachine
/// (batch.hpp) runs N lanes of the same kernel functionally in lockstep,
/// CgraMachine runs one lane cycle by cycle. hil::Framework, hil::TurnLoop
/// and the sweep engine drive models through this interface so a loop body
/// is agnostic about whether it owns a machine or one lane of a shared one.
class BeamModel {
 public:
  virtual ~BeamModel() = default;

  /// The kernel this model executes; it must outlive the model.
  [[nodiscard]] const CompiledKernel& kernel() const noexcept {
    return *kernel_;
  }
  /// Number of independent lanes (scenarios) this model executes per
  /// iteration. CgraMachine: always 1.
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// The execution tier this model actually runs (kAuto and the no-compiler
  /// fallback are resolved at construction — never kAuto here). All tiers
  /// are bit-identical; this is for reporting and tests. The cycle-accurate
  /// walk always interprets.
  [[nodiscard]] virtual ExecTier exec_tier() const noexcept {
    return ExecTier::kInterpreter;
  }

  /// Resets every lane: states to initial values, params to defaults,
  /// pipeline registers cleared.
  virtual void reset() = 0;

  /// Per-lane parameter / state access. Throws citl::Error for an invalid
  /// handle or an out-of-range lane. Values are quantised to the machine's
  /// working precision on write, exactly like the hardware register file.
  virtual void set_param(ParamHandle h, double value, std::size_t lane) = 0;
  [[nodiscard]] virtual double param(ParamHandle h,
                                     std::size_t lane) const = 0;
  virtual void set_state(StateHandle h, double value, std::size_t lane) = 0;
  [[nodiscard]] virtual double state(StateHandle h,
                                     std::size_t lane) const = 0;

  /// Runs one kernel iteration on every lane (functionally on
  /// BatchedCgraMachine, cycle by cycle on CgraMachine); returns the CGRA
  /// clock ticks one iteration occupies (== schedule length — identical in
  /// functional and cycle-accurate execution, a tested invariant).
  virtual unsigned run_iteration_all_lanes() = 0;

  // --- checkpoint hooks (hil::Supervisor guard layer) ---------------------
  /// Number of loop-carried states — the snapshot image length.
  [[nodiscard]] std::size_t state_count() const noexcept {
    return kernel().dfg.states().size();
  }
  /// Copies one lane's loop-carried state values (by state index) into
  /// `out[0 .. state_count())`. Pure read: never perturbs execution.
  virtual void snapshot_states(std::size_t lane, double* out) const = 0;
  /// Restores one lane's states from a snapshot_states() image, bit-exactly.
  /// Pipeline registers are not part of the image; after a rollback they
  /// still hold post-fault values for one iteration.
  virtual void restore_states(std::size_t lane, const double* values) = 0;

  /// Cross-iteration pipeline registers: the stage-0 node values latched by
  /// the previous iteration, read by the next iteration's stage-1 operations
  /// (one slot per DFG node). Loop-carried state therefore = states + pipe
  /// regs; the oracle's checkpoints snapshot both so a rollback replays the
  /// trajectory bit-exactly even on pipelined kernels. The Supervisor's
  /// state-only image stays intentionally smaller (a rollback there accepts
  /// one iteration of post-fault pipe values).
  [[nodiscard]] virtual std::size_t pipe_reg_count() const noexcept {
    return kernel().dfg.size();
  }
  /// Copies one lane's pipeline registers into `out[0 .. pipe_reg_count())`.
  virtual void snapshot_pipe_regs(std::size_t lane, double* out) const = 0;
  /// Restores one lane's pipeline registers, bit-exactly.
  virtual void restore_pipe_regs(std::size_t lane, const double* values) = 0;

  // Handle resolution against this model's kernel.
  [[nodiscard]] ParamHandle param_handle(std::string_view name) const {
    return cgra::param_handle(kernel(), name);
  }
  [[nodiscard]] StateHandle state_handle(std::string_view name) const {
    return cgra::state_handle(kernel(), name);
  }

 protected:
  explicit BeamModel(const CompiledKernel& kernel) noexcept
      : kernel_(&kernel) {}

 private:
  const CompiledKernel* kernel_;
};

class CgraMachine final : public BeamModel {
 public:
  /// The machine keeps a reference to the kernel and the bus; both must
  /// outlive it.
  CgraMachine(const CompiledKernel& kernel, SensorBus& bus,
              Precision precision = Precision::kFloat32);

  /// Resets states to their initial values and clears pipeline registers.
  void reset() override;

  void set_param(ParamHandle h, double value, std::size_t lane = 0) override;
  [[nodiscard]] double param(ParamHandle h,
                             std::size_t lane = 0) const override;
  void set_state(StateHandle h, double value, std::size_t lane = 0) override;
  [[nodiscard]] double state(StateHandle h,
                             std::size_t lane = 0) const override;

  void snapshot_states(std::size_t lane, double* out) const override;
  void restore_states(std::size_t lane, const double* values) override;
  void snapshot_pipe_regs(std::size_t lane, double* out) const override;
  void restore_pipe_regs(std::size_t lane, const double* values) override;

  /// Runs one loop iteration cycle by cycle; returns the number of CGRA
  /// clock ticks consumed (== schedule length).
  unsigned run_iteration_cycle_accurate();

  unsigned run_iteration_all_lanes() override {
    return run_iteration_cycle_accurate();
  }

  /// Value computed for `node` in the most recent iteration.
  [[nodiscard]] double value(NodeId node) const;

  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept override { return 1; }

 private:
  [[nodiscard]] double eval(const Node& n, double a, double b, double c);
  void commit_iteration();
  [[nodiscard]] double quantise(double v) const noexcept;
  void check_lane(std::size_t lane) const;

  SensorBus* bus_;
  Precision precision_;
  std::vector<double> values_;      ///< current-iteration node results
  std::vector<double> pipe_regs_;   ///< previous-iteration stage-0 results
  std::vector<double> state_vals_;  ///< current state values (by state index)
  std::vector<double> param_vals_;  ///< current param values (by param index)
  std::vector<NodeId> issue_order_; ///< nodes by (start cycle, NodeId)
  std::vector<int> param_slot_;     ///< node id -> param index (or -1)
  std::vector<int> state_slot_;     ///< node id -> state index (or -1)
  std::uint64_t iterations_ = 0;
  AttributionCounters attribution_counters_;  ///< per-op cycle metrics
};

}  // namespace citl::cgra
