#include "oracle/host_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "cgra/exec.hpp"
#include "core/error.hpp"
#include "core/units.hpp"

namespace citl::oracle {

namespace {

using cgra::SensorRegion;

/// sinf as the overlay computes it, in binary64: the CORDIC rotation is the
/// PE's defining algorithm, so the reference evaluates the same rotation —
/// in double throughout — rather than libm sin.
double cordic_sin(double angle) {
  double c, s;
  cgra::detail::cordic_rotate<double>(angle, &c, &s);
  return s;
}

const cgra::CompiledKernel& checked_kernel(
    const std::shared_ptr<const cgra::CompiledKernel>& kernel) {
  CITL_CHECK_MSG(kernel != nullptr, "host model needs a kernel");
  return *kernel;
}

}  // namespace

HostReferenceModel::HostReferenceModel(
    std::shared_ptr<const cgra::CompiledKernel> kernel,
    const cgra::BeamKernelConfig& cfg, bool analytic, cgra::SensorBus& bus)
    : BeamModel(checked_kernel(kernel)),
      kernel_owner_(std::move(kernel)),
      cfg_(cfg),
      analytic_(analytic),
      bus_(&bus) {
  const auto& dfg = kernel_owner_->dfg;
  s_dgamma_.assign(static_cast<std::size_t>(cfg_.n_bunches), -1);
  s_dt_.assign(static_cast<std::size_t>(cfg_.n_bunches), -1);
  for (std::size_t s = 0; s < dfg.states().size(); ++s) {
    const std::string& name = dfg.states()[s].name;
    if (name == "gamma_r") {
      s_gamma_ = static_cast<int>(s);
    } else if (name.rfind("dgamma", 0) == 0) {
      const int j = std::stoi(name.substr(6));
      CITL_CHECK(j >= 0 && j < cfg_.n_bunches);
      s_dgamma_[static_cast<std::size_t>(j)] = static_cast<int>(s);
    } else if (name.rfind("dt", 0) == 0) {
      const int j = std::stoi(name.substr(2));
      CITL_CHECK(j >= 0 && j < cfg_.n_bunches);
      s_dt_[static_cast<std::size_t>(j)] = static_cast<int>(s);
    }
  }
  for (std::size_t p = 0; p < dfg.params().size(); ++p) {
    const std::string& name = dfg.params()[p].name;
    if (name == "v_scale") p_v_scale_ = static_cast<int>(p);
    if (name == "v_hat") p_v_hat_ = static_cast<int>(p);
    if (name == "gap_phase") p_gap_phase_ = static_cast<int>(p);
  }
  CITL_CHECK_MSG(s_gamma_ >= 0, "host model mirrors only the turn-loop "
                                "kernels (no gamma_r state found)");
  for (int j = 0; j < cfg_.n_bunches; ++j) {
    CITL_CHECK(s_dgamma_[static_cast<std::size_t>(j)] >= 0 &&
               s_dt_[static_cast<std::size_t>(j)] >= 0);
  }
  if (analytic_) {
    CITL_CHECK_MSG(p_v_hat_ >= 0 && p_gap_phase_ >= 0,
                   "analytic host model needs v_hat/gap_phase params");
  } else {
    CITL_CHECK_MSG(p_v_scale_ >= 0, "sampled host model needs v_scale param");
  }
  pipe_.assign(1 + static_cast<std::size_t>(cfg_.n_bunches), 0.0);
  reset();
}

void HostReferenceModel::reset() {
  const auto& dfg = kernel().dfg;
  states_.resize(dfg.states().size());
  for (std::size_t s = 0; s < states_.size(); ++s) {
    states_[s] = dfg.states()[s].initial;
  }
  params_.resize(dfg.params().size());
  for (std::size_t p = 0; p < params_.size(); ++p) {
    params_[p] = dfg.params()[p].default_value;
  }
  std::fill(pipe_.begin(), pipe_.end(), 0.0);
}

void HostReferenceModel::check_lane(std::size_t lane) const {
  if (lane != 0) cgra::detail::throw_lane_out_of_range(kernel(), lane, 1);
}

void HostReferenceModel::set_param(cgra::ParamHandle h, double value,
                                   std::size_t lane) {
  check_lane(lane);
  if (!h.valid() || static_cast<std::size_t>(h.index) >= params_.size()) {
    cgra::detail::throw_invalid_handle(kernel(), "parameter");
  }
  params_[static_cast<std::size_t>(h.index)] = value;
}

double HostReferenceModel::param(cgra::ParamHandle h, std::size_t lane) const {
  check_lane(lane);
  if (!h.valid() || static_cast<std::size_t>(h.index) >= params_.size()) {
    cgra::detail::throw_invalid_handle(kernel(), "parameter");
  }
  return params_[static_cast<std::size_t>(h.index)];
}

void HostReferenceModel::set_state(cgra::StateHandle h, double value,
                                   std::size_t lane) {
  check_lane(lane);
  if (!h.valid() || static_cast<std::size_t>(h.index) >= states_.size()) {
    cgra::detail::throw_invalid_handle(kernel(), "state");
  }
  states_[static_cast<std::size_t>(h.index)] = value;
}

double HostReferenceModel::state(cgra::StateHandle h, std::size_t lane) const {
  check_lane(lane);
  if (!h.valid() || static_cast<std::size_t>(h.index) >= states_.size()) {
    cgra::detail::throw_invalid_handle(kernel(), "state");
  }
  return states_[static_cast<std::size_t>(h.index)];
}

void HostReferenceModel::snapshot_states(std::size_t lane, double* out) const {
  check_lane(lane);
  for (std::size_t s = 0; s < states_.size(); ++s) out[s] = states_[s];
}

void HostReferenceModel::restore_states(std::size_t lane,
                                        const double* values) {
  check_lane(lane);
  for (std::size_t s = 0; s < states_.size(); ++s) states_[s] = values[s];
}

void HostReferenceModel::snapshot_pipe_regs(std::size_t lane,
                                            double* out) const {
  check_lane(lane);
  for (std::size_t i = 0; i < pipe_.size(); ++i) out[i] = pipe_[i];
}

void HostReferenceModel::restore_pipe_regs(std::size_t lane,
                                           const double* values) {
  check_lane(lane);
  for (std::size_t i = 0; i < pipe_.size(); ++i) pipe_[i] = values[i];
}

unsigned HostReferenceModel::run_iteration_all_lanes() {
  if (analytic_) {
    run_analytic();
  } else {
    run_sampled();
  }
  return kernel().schedule.length;
}

void HostReferenceModel::run_sampled() {
  const double qm = cfg_.ion.charge_over_mc2();
  const double lr = cfg_.ring.circumference_m;
  const double inv_h = 1.0 / static_cast<double>(cfg_.ring.harmonic);
  const int nb = cfg_.n_bunches;
  const double v_scale = params_[static_cast<std::size_t>(p_v_scale_)];
  const double gamma_r = states_[static_cast<std::size_t>(s_gamma_)];

  // ---- stage 0: sensing (kernels.cpp beam_kernel_source, same order) -----
  const double period = bus_->read(SensorRegion::kPeriod, 0.0);
  const double ginv = 1.0 / (gamma_r * gamma_r);
  const double beta = std::sqrt(1.0 - ginv);
  const double t_r = lr / (beta * kSpeedOfLight);
  const double dT = t_r - period;
  const double fs = cfg_.sample_rate_hz;
  const double a_ref = dT * fs;
  const double a0 = std::floor(a_ref);
  const double v0 = bus_->read(SensorRegion::kRefBuf, a0);
  double vr;
  if (cfg_.interpolate) {
    // Kernel address literal is region_base + 1.0, so the neighbour read
    // decodes to offset 1.0 + a0.
    const double v1 = bus_->read(SensorRegion::kRefBuf, 1.0 + a0);
    vr = (v0 + (v1 - v0) * (a_ref - a0)) * v_scale;
  } else {
    vr = v0 * v_scale;
  }
  std::vector<double> va(static_cast<std::size_t>(nb));
  for (int j = 0; j < nb; ++j) {
    const double dt_j = states_[static_cast<std::size_t>(
        s_dt_[static_cast<std::size_t>(j)])];
    double adr = (dT + dt_j) * fs;
    if (j != 0) adr += period * fs * (static_cast<double>(j) * inv_h);
    const double base = std::floor(adr);
    const double w0 = bus_->read(SensorRegion::kGapBuf, base);
    if (cfg_.interpolate) {
      const double w1 = bus_->read(SensorRegion::kGapBuf, 1.0 + base);
      va[static_cast<std::size_t>(j)] =
          (w0 + (w1 - w0) * (adr - base)) * v_scale;
    } else {
      va[static_cast<std::size_t>(j)] = w0 * v_scale;
    }
  }
  for (int j = 0; j < nb; ++j) {
    const double dt_j = states_[static_cast<std::size_t>(
        s_dt_[static_cast<std::size_t>(j)])];
    bus_->write(SensorRegion::kActuator, static_cast<double>(j), dT + dt_j);
  }

  // ---- stage 1: tracking update. A pipelined kernel's stage 1 consumes the
  // voltages the *previous* revolution computed (the pipeline registers);
  // the plain kernel consumes this revolution's.
  const double use_vr = cfg_.pipelined ? pipe_[0] : vr;
  const double g_new = gamma_r + qm * use_vr;
  const double g2 = 1.0 / (g_new * g_new);
  const double eta = cfg_.ring.alpha_c - g2;
  const double nbeta2 = 1.0 - g2;
  const double nbeta = std::sqrt(nbeta2);
  const double drift = lr * eta / (nbeta * nbeta2 * g_new * kSpeedOfLight);
  states_[static_cast<std::size_t>(s_gamma_)] = g_new;
  for (int j = 0; j < nb; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    const double use_va = cfg_.pipelined ? pipe_[1 + sj] : va[sj];
    const std::size_t ig = static_cast<std::size_t>(s_dgamma_[sj]);
    const std::size_t it = static_cast<std::size_t>(s_dt_[sj]);
    const double dg_new = states_[ig] + qm * (use_va - use_vr);
    states_[ig] = dg_new;
    states_[it] = states_[it] + drift * dg_new;
  }
  // Latch this revolution's stage-0 voltages for the next one.
  pipe_[0] = vr;
  for (int j = 0; j < nb; ++j) {
    pipe_[1 + static_cast<std::size_t>(j)] = va[static_cast<std::size_t>(j)];
  }
}

void HostReferenceModel::run_analytic() {
  const double qm = cfg_.ion.charge_over_mc2();
  const double lr = cfg_.ring.circumference_m;
  const int nb = cfg_.n_bunches;
  const double v_hat = params_[static_cast<std::size_t>(p_v_hat_)];
  const double gap_phase = params_[static_cast<std::size_t>(p_gap_phase_)];
  const double gamma_r = states_[static_cast<std::size_t>(s_gamma_)];

  // ---- stage 0: timing + on-chip waveform synthesis ----------------------
  const double period = bus_->read(SensorRegion::kPeriod, 0.0);
  const double ginv = 1.0 / (gamma_r * gamma_r);
  const double beta = std::sqrt(1.0 - ginv);
  const double t_r = lr / (beta * kSpeedOfLight);
  const double dT = t_r - period;
  const double omega =
      (kTwoPi * static_cast<double>(cfg_.ring.harmonic)) / period;
  // V_R = 0: the reference particle rides the undisturbed zero crossing, and
  // as a kernel *constant* it is served to stage 1 directly (no pipe reg).
  const double vr = 0.0;
  std::vector<double> va(static_cast<std::size_t>(nb));
  for (int j = 0; j < nb; ++j) {
    const double dt_j = states_[static_cast<std::size_t>(
        s_dt_[static_cast<std::size_t>(j)])];
    va[static_cast<std::size_t>(j)] =
        v_hat * cordic_sin(omega * (dT + dt_j) + gap_phase);
  }
  for (int j = 0; j < nb; ++j) {
    const double dt_j = states_[static_cast<std::size_t>(
        s_dt_[static_cast<std::size_t>(j)])];
    bus_->write(SensorRegion::kActuator, static_cast<double>(j), dT + dt_j);
  }

  // ---- stage 1 ------------------------------------------------------------
  const double g_new = gamma_r + qm * vr;
  const double g2 = 1.0 / (g_new * g_new);
  const double eta = cfg_.ring.alpha_c - g2;
  const double nbeta2 = 1.0 - g2;
  const double nbeta = std::sqrt(nbeta2);
  const double drift = lr * eta / (nbeta * nbeta2 * g_new * kSpeedOfLight);
  states_[static_cast<std::size_t>(s_gamma_)] = g_new;
  for (int j = 0; j < nb; ++j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    const double use_va = cfg_.pipelined ? pipe_[1 + sj] : va[sj];
    const std::size_t ig = static_cast<std::size_t>(s_dgamma_[sj]);
    const std::size_t it = static_cast<std::size_t>(s_dt_[sj]);
    const double dg_new = states_[ig] + qm * (use_va - vr);
    states_[ig] = dg_new;
    states_[it] = states_[it] + drift * dg_new;
  }
  pipe_[0] = vr;
  for (int j = 0; j < nb; ++j) {
    pipe_[1 + static_cast<std::size_t>(j)] = va[static_cast<std::size_t>(j)];
  }
}

}  // namespace citl::oracle
