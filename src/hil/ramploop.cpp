#include "hil/ramploop.hpp"

#include <array>
#include <cmath>

#include "cgra/batch.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "phys/relativity.hpp"

namespace citl::hil {

/// Bus for the ramp kernel: the period reflects the sweep position, the gap
/// buffer presents V̂·sin(φ_s + ω_RF·t) — the waveform as seen from the
/// synchronous particle's arrival.
class RampLoop::RampBus final : public cgra::SensorBus {
 public:
  explicit RampBus(double sample_rate_hz, int harmonic)
      : fs_(sample_rate_hz), harmonic_(harmonic) {}

  double read(cgra::SensorRegion region, double offset) override {
    switch (region) {
      case cgra::SensorRegion::kPeriod:
        return offset < 0.5 ? period_s : 1.0 / period_s;
      case cgra::SensorRegion::kGapBuf: {
        const double t = offset / fs_;
        const double omega = kTwoPi * static_cast<double>(harmonic_) /
                             period_s;
        return adc_amplitude_v * std::sin(sync_phase_rad + omega * t);
      }
      case cgra::SensorRegion::kRefBuf:
        return 0.0;  // the ramp kernel does not sample the reference channel
      default:
        CITL_CHECK_MSG(false, "read from a write-only sensor region");
        return 0.0;
    }
  }

  void write(cgra::SensorRegion region, double offset, double value) override {
    if (region == cgra::SensorRegion::kActuator) {
      const auto j = static_cast<std::size_t>(offset + 0.5);
      CITL_CHECK_MSG(j < arrivals.size(), "actuator bunch index out of range");
      arrivals[j] = value;
    }
  }

  // Per-turn inputs:
  double period_s = 1.0;
  double sync_phase_rad = 0.0;
  double adc_amplitude_v = 0.0;
  // Outputs:
  std::array<double, 16> arrivals{};

 private:
  double fs_;
  int harmonic_;
};

RampLoop::RampLoop(const RampLoopConfig& config) : config_(config) {
  CITL_CHECK_MSG(config.f_start_hz > 0.0 &&
                     config.f_end_hz > config.f_start_hz,
                 "ramp must sweep the frequency upwards");
  cgra::BeamKernelConfig kc = config.kernel;
  kc.gamma0 = phys::gamma_from_revolution_frequency(
      config.f_start_hz, kc.ring.circumference_m);
  kc.v_scale = 1.0;  // the ramp bus hands out physical volts directly
  kernel_ = cgra::compile_kernel(cgra::ramp_beam_kernel_source(kc),
                                 config.arch, "beam_ramp");
  bus_ = std::make_unique<RampBus>(kc.sample_rate_hz, kc.ring.harmonic);
  machine_ = cgra::make_loop_model(kernel_, *bus_, config.cycle_accurate,
                                  cgra::ExecTier::kInterpreter);
  h_dt0_ = cgra::state_handle(kernel_, "dt0");
  h_dgamma0_ = cgra::state_handle(kernel_, "dgamma0");
}

RampLoop::~RampLoop() = default;

double RampLoop::f_ref_hz() const noexcept {
  const double frac = std::min(time_s_ / config_.ramp_s, 1.0);
  return config_.f_start_hz + frac * (config_.f_end_hz - config_.f_start_hz);
}

void RampLoop::displace(double dgamma, double dt_s) {
  machine_->set_state(h_dgamma0_, dgamma, 0);
  machine_->set_state(h_dt0_, dt_s, 0);
}

RampRecord RampLoop::step() {
  const double f_now = f_ref_hz();
  const double t_rev = 1.0 / f_now;
  const phys::Ring& ring = config_.kernel.ring;
  const phys::Ion& ion = config_.kernel.ion;

  // Synchronous voltage demanded by the sweep at this instant.
  const double gamma_now = phys::gamma_from_revolution_frequency(
      f_now, ring.circumference_m);
  const double t_next = time_s_ + t_rev;
  const double f_next =
      config_.f_start_hz +
      std::min(t_next / config_.ramp_s, 1.0) *
          (config_.f_end_hz - config_.f_start_hz);
  const double gamma_next = phys::gamma_from_revolution_frequency(
      f_next, ring.circumference_m);
  const double v_sync = (gamma_next - gamma_now) / ion.charge_over_mc2();

  const double vhat = config_.programme.amplitude_v(time_s_);
  if (std::abs(v_sync) > vhat) {
    throw ConfigError(
        "ramp too fast: the sweep needs more synchronous voltage than the "
        "amplitude programme provides");
  }
  const double phi_s = std::asin(v_sync / vhat);

  bus_->period_s = t_rev;
  bus_->sync_phase_rad = phi_s;
  bus_->adc_amplitude_v = vhat;  // v_scale = 1: bus serves physical volts

  machine_->run_iteration_all_lanes();
  time_s_ += t_rev;

  RampRecord r;
  r.time_s = time_s_;
  r.f_ref_hz = f_now;
  r.gap_amplitude_v = vhat;
  r.sync_phase_rad = phi_s;
  r.dt_s = machine_->state(h_dt0_, 0);
  r.dgamma = machine_->state(h_dgamma0_, 0);
  const double bucket_half = 0.5 * t_rev / ring.harmonic;
  r.bucket_fill = std::abs(r.dt_s) / bucket_half;
  return r;
}

void RampLoop::run(std::int64_t turns,
                   const std::function<void(const RampRecord&)>& cb) {
  for (std::int64_t i = 0; i < turns; ++i) {
    const RampRecord r = step();
    if (cb) cb(r);
  }
}

}  // namespace citl::hil
