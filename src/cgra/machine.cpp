#include "cgra/machine.hpp"

#include <algorithm>

#include "cgra/exec.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace citl::cgra {

namespace {

[[noreturn]] void throw_unknown(const CompiledKernel& kernel, const char* what,
                                std::string_view name) {
  std::string msg = "unknown kernel ";
  msg += what;
  msg += " '";
  msg += name;
  msg += "' in kernel '";
  msg += kernel.name;
  msg += "' (have:";
  if (std::string_view(what) == "parameter") {
    for (const auto& p : kernel.dfg.params()) msg += " " + p.name;
  } else {
    for (const auto& s : kernel.dfg.states()) msg += " " + s.name;
  }
  msg += ")";
  throw ConfigError(msg, ErrorCode::kUnknownKey);
}

}  // namespace

namespace detail {

void throw_invalid_handle(const CompiledKernel& kernel, const char* what) {
  throw ConfigError(std::string("invalid ") + what + " handle for kernel '" +
                        kernel.name + "'",
                    ErrorCode::kUnknownKey);
}

void throw_lane_out_of_range(const CompiledKernel& kernel, std::size_t lane,
                             std::size_t lanes) {
  throw ConfigError("lane " + std::to_string(lane) +
                        " out of range in kernel '" + kernel.name + "' (" +
                        std::to_string(lanes) +
                        (lanes == 1 ? " lane)" : " lanes)"),
                    ErrorCode::kOutOfRange);
}

}  // namespace detail

ParamHandle param_handle(const CompiledKernel& kernel, std::string_view name) {
  const ParamHandle h = find_param(kernel, name);
  if (!h.valid()) throw_unknown(kernel, "parameter", name);
  return h;
}

StateHandle state_handle(const CompiledKernel& kernel, std::string_view name) {
  const StateHandle h = find_state(kernel, name);
  if (!h.valid()) throw_unknown(kernel, "state", name);
  return h;
}

ParamHandle find_param(const CompiledKernel& kernel,
                       std::string_view name) noexcept {
  const auto& params = kernel.dfg.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) return ParamHandle{static_cast<int>(i)};
  }
  return ParamHandle{};
}

StateHandle find_state(const CompiledKernel& kernel,
                       std::string_view name) noexcept {
  const auto& states = kernel.dfg.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i].name == name) return StateHandle{static_cast<int>(i)};
  }
  return StateHandle{};
}

CgraMachine::CgraMachine(const CompiledKernel& kernel, SensorBus& bus,
                         Precision precision)
    : BeamModel(kernel),
      bus_(&bus),
      precision_(precision),
      attribution_counters_(kernel) {
  values_.assign(kernel.dfg.size(), 0.0);
  pipe_regs_.assign(kernel.dfg.size(), 0.0);
  // Issue order: by start cycle, then NodeId. The schedule guarantees every
  // operand is committed (producer finish <= consumer start), so issuing in
  // start order and committing at finish reproduces the hardware exactly.
  const Schedule& sched = kernel.schedule;
  issue_order_.resize(kernel.dfg.size());
  for (std::size_t i = 0; i < issue_order_.size(); ++i) {
    issue_order_[i] = static_cast<NodeId>(i);
  }
  const auto start = [&sched](NodeId id) {
    return sched.placement[static_cast<std::size_t>(id)].start;
  };
  std::sort(issue_order_.begin(), issue_order_.end(),
            [&start](NodeId a, NodeId b) {
              return start(a) != start(b) ? start(a) < start(b) : a < b;
            });
  // Node -> param/state slot tables, so source nodes resolve their value in
  // O(1) inside the walk instead of scanning the var tables.
  param_slot_.assign(kernel.dfg.size(), -1);
  state_slot_.assign(kernel.dfg.size(), -1);
  const auto& params = kernel.dfg.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    param_slot_[static_cast<std::size_t>(params[i].node)] =
        static_cast<int>(i);
  }
  const auto& states = kernel.dfg.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    state_slot_[static_cast<std::size_t>(states[i].node)] =
        static_cast<int>(i);
  }
  reset();
}

void CgraMachine::reset() {
  const Dfg& g = kernel().dfg;
  state_vals_.clear();
  for (const auto& s : g.states()) state_vals_.push_back(s.initial);
  param_vals_.clear();
  for (const auto& p : g.params()) param_vals_.push_back(p.default_value);
  std::fill(values_.begin(), values_.end(), 0.0);
  std::fill(pipe_regs_.begin(), pipe_regs_.end(), 0.0);
  iterations_ = 0;
}

void CgraMachine::check_lane(std::size_t lane) const {
  if (lane != 0) detail::throw_lane_out_of_range(kernel(), lane, 1);
}

void CgraMachine::set_param(ParamHandle h, double value, std::size_t lane) {
  check_lane(lane);
  if (!h.valid() ||
      static_cast<std::size_t>(h.index) >= param_vals_.size()) {
    detail::throw_invalid_handle(kernel(), "parameter");
  }
  param_vals_[static_cast<std::size_t>(h.index)] = quantise(value);
}

double CgraMachine::param(ParamHandle h, std::size_t lane) const {
  check_lane(lane);
  if (!h.valid() ||
      static_cast<std::size_t>(h.index) >= param_vals_.size()) {
    detail::throw_invalid_handle(kernel(), "parameter");
  }
  return param_vals_[static_cast<std::size_t>(h.index)];
}

double CgraMachine::state(StateHandle h, std::size_t lane) const {
  check_lane(lane);
  if (!h.valid() ||
      static_cast<std::size_t>(h.index) >= state_vals_.size()) {
    detail::throw_invalid_handle(kernel(), "state");
  }
  return state_vals_[static_cast<std::size_t>(h.index)];
}

void CgraMachine::snapshot_states(std::size_t lane, double* out) const {
  check_lane(lane);
  for (std::size_t s = 0; s < state_vals_.size(); ++s) out[s] = state_vals_[s];
}

void CgraMachine::restore_states(std::size_t lane, const double* values) {
  check_lane(lane);
  // Raw copy, no re-quantise: the image came from snapshot_states() and is
  // already at working precision, so the round-trip is bit-exact.
  for (std::size_t s = 0; s < state_vals_.size(); ++s) state_vals_[s] = values[s];
}

void CgraMachine::snapshot_pipe_regs(std::size_t lane, double* out) const {
  check_lane(lane);
  for (std::size_t i = 0; i < pipe_regs_.size(); ++i) out[i] = pipe_regs_[i];
}

void CgraMachine::restore_pipe_regs(std::size_t lane, const double* values) {
  check_lane(lane);
  for (std::size_t i = 0; i < pipe_regs_.size(); ++i) pipe_regs_[i] = values[i];
}

void CgraMachine::set_state(StateHandle h, double value, std::size_t lane) {
  check_lane(lane);
  if (!h.valid() ||
      static_cast<std::size_t>(h.index) >= state_vals_.size()) {
    detail::throw_invalid_handle(kernel(), "state");
  }
  state_vals_[static_cast<std::size_t>(h.index)] = quantise(value);
}

double CgraMachine::value(NodeId node) const {
  CITL_CHECK(node >= 0 && static_cast<std::size_t>(node) < values_.size());
  return values_[static_cast<std::size_t>(node)];
}

double CgraMachine::quantise(double v) const noexcept {
  return precision_ == Precision::kFloat32
             ? static_cast<double>(static_cast<float>(v))
             : v;
}

double CgraMachine::eval(const Node& n, double a, double b, double c) {
  return precision_ == Precision::kFloat32
             ? detail::eval_scalar<float>(n.kind, a, b, c)
             : detail::eval_scalar<double>(n.kind, a, b, c);
}

unsigned CgraMachine::run_iteration_cycle_accurate() {
  const Dfg& g = kernel().dfg;
  const Schedule& sched = kernel().schedule;

  std::vector<double> committed = values_;  // results visible to consumers
  struct PendingWrite {
    unsigned cycle;
    NodeId node;
    double value;
  };
  std::vector<PendingWrite> pending;

  std::size_t next_event = 0;
  for (unsigned cycle = 0; cycle <= sched.length; ++cycle) {
    // Commit results whose latency elapsed.
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->cycle <= cycle) {
        committed[static_cast<std::size_t>(it->node)] = it->value;
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    // Issue ops starting this cycle.
    while (next_event < issue_order_.size() &&
           sched.placement[static_cast<std::size_t>(issue_order_[next_event])]
                   .start == cycle) {
      const NodeId id = issue_order_[next_event];
      ++next_event;
      const Node& n = g.node(id);
      auto read_operand = [&](NodeId producer) {
        if (g.is_pipeline_edge(producer, id)) {
          return pipe_regs_[static_cast<std::size_t>(producer)];
        }
        return committed[static_cast<std::size_t>(producer)];
      };
      double out = 0.0;
      switch (n.kind) {
        case OpKind::kConst:
          out = quantise(n.constant);
          break;
        case OpKind::kParam:
          out = param_vals_[static_cast<std::size_t>(
              param_slot_[static_cast<std::size_t>(id)])];
          break;
        case OpKind::kState:
          out = state_vals_[static_cast<std::size_t>(
              state_slot_[static_cast<std::size_t>(id)])];
          break;
        case OpKind::kLoad: {
          const DecodedAddress da = decode_address(read_operand(n.args[0]));
          out = quantise(bus_->read(da.region, da.offset));
          break;
        }
        case OpKind::kStore: {
          const DecodedAddress da = decode_address(read_operand(n.args[0]));
          const double val = read_operand(n.args[1]);
          bus_->write(da.region, da.offset, val);
          out = val;
          break;
        }
        case OpKind::kMove:
          out = read_operand(n.args[0]);
          break;
        default: {
          const double a = n.arity() > 0 ? read_operand(n.args[0]) : 0.0;
          const double b = n.arity() > 1 ? read_operand(n.args[1]) : 0.0;
          const double c = n.arity() > 2 ? read_operand(n.args[2]) : 0.0;
          out = eval(n, a, b, c);
          break;
        }
      }
      values_[static_cast<std::size_t>(id)] = out;
      pending.push_back(
          {sched.placement[static_cast<std::size_t>(id)].finish, id, out});
    }
  }
  CITL_CHECK_MSG(pending.empty(), "uncommitted results after makespan");
  commit_iteration();
  return sched.length;
}

void CgraMachine::commit_iteration() {
  const Dfg& g = kernel().dfg;
  // Pipeline registers latch this iteration's stage-0 values.
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.node(static_cast<NodeId>(i)).stage == 0) {
      pipe_regs_[i] = values_[i];
    }
  }
  // States take their update nodes' values.
  const auto& states = g.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    state_vals_[i] = values_[static_cast<std::size_t>(states[i].update)];
  }
  ++iterations_;
  // Per-iteration occupancy accounting: one context switch through the whole
  // schedule, `length` CGRA clock ticks consumed.
  static obs::Counter& iterations =
      obs::Registry::global().counter("cgra.iterations");
  static obs::Counter& cycles =
      obs::Registry::global().counter("cgra.schedule_cycles");
  iterations.add();
  cycles.add(kernel().schedule.length);
  attribution_counters_.add_iterations(1);
}

}  // namespace citl::cgra
