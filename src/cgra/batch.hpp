// The functional CGRA executor: N lanes of one kernel in lockstep
// (structure-of-arrays).
//
// A sweep runs the *same* compiled kernel over many operating points; the
// overlay exploits the tracking map's parallelism in hardware, and this is
// the software twin of that idea: BatchedCgraMachine executes N independent
// lanes of one CompiledKernel in lockstep. Node values live in
// structure-of-arrays layout — values_[node * lanes + lane], contiguous per
// node — so evaluating one dataflow node across all lanes is a tight,
// auto-vectorizable inner loop instead of N interpreter walks. With one lane
// it is the functional engine of every closed loop (hil::TurnLoop,
// hil::Framework, hil::RampLoop); CgraMachine (machine.hpp) is only the
// cycle-accurate reference.
//
// Each lane drives its own SensorBus: the machine takes one bus per lane,
// and the lane count is the number of buses.
//
// Determinism contract (docs/BATCHING.md): every lane computes bit-identical
// results to a cycle-accurate CgraMachine running the same inputs, on every
// exec tier. The per-operator arithmetic is shared (cgra/exec.hpp), the
// CORDIC is evaluated branch-free across lanes with the same operation
// sequence as the scalar rotation, and sensor-bus traffic is issued per lane
// in ascending lane order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"
#include "core/aligned.hpp"

namespace citl::cgra {

class BytecodeProgram;  // bytecode.hpp
class NativeKernel;     // codegen.hpp

class BatchedCgraMachine final : public BeamModel {
 public:
  /// One lane per entry of `buses` (at least one; none may be null). The
  /// machine keeps references to the kernel and the buses; all must outlive
  /// it. `tier` picks the execution back end (exec_tier.hpp); kAuto and the
  /// no-compiler fallback resolve at construction.
  BatchedCgraMachine(const CompiledKernel& kernel,
                     std::vector<SensorBus*> buses,
                     Precision precision = Precision::kFloat32,
                     ExecTier tier = ExecTier::kInterpreter);
  ~BatchedCgraMachine() override;

  [[nodiscard]] std::size_t lanes() const noexcept override { return lanes_; }
  [[nodiscard]] ExecTier exec_tier() const noexcept override { return tier_; }

  void reset() override;

  void set_param(ParamHandle h, double value, std::size_t lane) override;
  [[nodiscard]] double param(ParamHandle h, std::size_t lane) const override;
  void set_state(StateHandle h, double value, std::size_t lane) override;
  [[nodiscard]] double state(StateHandle h, std::size_t lane) const override;

  void snapshot_states(std::size_t lane, double* out) const override;
  void restore_states(std::size_t lane, const double* values) override;
  void snapshot_pipe_regs(std::size_t lane, double* out) const override;
  void restore_pipe_regs(std::size_t lane, const double* values) override;

  /// One functional iteration on every lane; returns the CGRA clock ticks
  /// one iteration occupies (== schedule length).
  unsigned run_iteration_all_lanes() override;

  /// One functional iteration on a subset of lanes (ascending, no
  /// duplicates); inactive lanes keep their values, states and pipeline
  /// registers untouched. Used when scenarios of one batch end at different
  /// times. Bit-identical to running those lanes full-width.
  unsigned run_iteration_lanes(const std::uint32_t* lane_ids,
                               std::size_t n_active);

  /// Value computed for `node` on `lane` in its most recent iteration.
  [[nodiscard]] double value(NodeId node, std::size_t lane) const;

  /// Batched iterations executed (one per run_iteration_* call).
  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_;
  }
  /// Per-lane iteration count (lane_iterations()[l] == iterations lane l ran).
  [[nodiscard]] const std::vector<std::uint64_t>& lane_iterations()
      const noexcept {
    return lane_iterations_;
  }

 private:
  template <typename LaneMap>
  void execute(const LaneMap& lm, std::size_t n_active);
  template <typename F, typename LaneMap>
  void run_pass(const LaneMap& lm, std::size_t n);
  template <typename F, typename LaneMap>
  void eval_cordic(const Node& n, const double* in, double* out,
                   const LaneMap& lm, std::size_t n_active);
  template <typename LaneMap>
  void commit(const LaneMap& lm, std::size_t n_active);
  template <typename LaneMap>
  void commit_bookkeeping(const LaneMap& lm, std::size_t n_active);
  template <typename F>
  [[nodiscard]] F* scratch_base() noexcept;
  [[nodiscard]] double quantise(double v) const noexcept;
  void check_lane(std::size_t lane) const;
  void check_handle(bool valid, const char* what) const;

  [[nodiscard]] double* row(NodeId node) noexcept {
    return values_.data() + static_cast<std::size_t>(node) * lanes_;
  }
  [[nodiscard]] const double* operand_row(NodeId consumer,
                                          NodeId producer) const noexcept {
    const std::size_t p = static_cast<std::size_t>(producer) * lanes_;
    return kernel().dfg.is_pipeline_edge(producer, consumer)
               ? pipe_regs_.data() + p
               : values_.data() + p;
  }

  std::vector<SensorBus*> buses_;   ///< one per lane
  Precision precision_;
  std::size_t lanes_;
  // Cache-line aligned: one f64 row (8 lanes) is exactly one line, and row
  // accesses must not straddle lines (core/aligned.hpp).
  core::CacheAlignedVector<double> values_;      ///< [node * lanes + lane]
  core::CacheAlignedVector<double> pipe_regs_;   ///< [node * lanes + lane]
  core::CacheAlignedVector<double> state_vals_;  ///< [state index * lanes + lane]
  core::CacheAlignedVector<double> param_vals_;  ///< [param index * lanes + lane]
  std::vector<NodeId> topo_;
  std::vector<int> param_slot_;     ///< node id -> param index (or -1)
  std::vector<int> state_slot_;     ///< node id -> state index (or -1)
  /// Row offsets (node * lanes) of the stage-0 nodes, whose rows commit()
  /// latches into the pipeline registers.
  std::vector<std::size_t> stage0_rows_;
  std::vector<float> scratch_f_;    ///< 4 * lanes CORDIC scratch (binary32)
  std::vector<double> scratch_d_;   ///< 4 * lanes CORDIC scratch (binary64)
  std::uint64_t iterations_ = 0;
  std::vector<std::uint64_t> lane_iterations_;
  AttributionCounters attribution_counters_;  ///< per-op cycle metrics
  // Obs handles resolved once in the constructor (name lookups take the
  // registry mutex). The per-iteration bookkeeping gates on
  // Registry::enabled() as one branch, so a disabled registry costs a single
  // relaxed load per iteration instead of one per instrument.
  obs::Counter* obs_batched_ = nullptr;
  obs::Counter* obs_lane_iters_ = nullptr;
  obs::Gauge* obs_lanes_active_ = nullptr;
  obs::Counter* obs_iterations_ = nullptr;
  obs::Counter* obs_cycles_ = nullptr;
  obs::Counter* obs_tier_iters_ = nullptr;
  ExecTier tier_ = ExecTier::kInterpreter;    ///< resolved (never kAuto)
  std::unique_ptr<BytecodeProgram> bytecode_;
  std::shared_ptr<const NativeKernel> native_;
};

/// The one-lane model a closed loop owns (hil::TurnLoop, hil::Framework,
/// hil::RampLoop), chosen once at construction: the cycle-accurate
/// CgraMachine when `cycle_accurate` is set, else the functional
/// BatchedCgraMachine over `bus` at `tier`. Both give the same bits; the
/// choice trades speed for the cycle-by-cycle walk of the schedule.
[[nodiscard]] std::unique_ptr<BeamModel> make_loop_model(
    const CompiledKernel& kernel, SensorBus& bus, bool cycle_accurate,
    ExecTier tier, Precision precision = Precision::kFloat32);

}  // namespace citl::cgra
