#include "sig/dds.hpp"

#include <cmath>

#include "core/error.hpp"

namespace citl::sig {

Dds::SineTable Dds::make_sine_table(unsigned lut_bits) {
  CITL_CHECK_MSG(lut_bits >= 4 && lut_bits <= 20, "LUT size out of range");
  const std::size_t n = std::size_t{1} << lut_bits;
  auto lut = std::make_shared<std::vector<double>>(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*lut)[i] = std::sin(kTwoPi * static_cast<double>(i) /
                         static_cast<double>(n));
  }
  return lut;
}

Dds::Dds(ClockDomain clock, double frequency_hz, double amplitude_v,
         unsigned lut_bits)
    : Dds(clock, frequency_hz, amplitude_v, make_sine_table(lut_bits)) {}

Dds::Dds(ClockDomain clock, double frequency_hz, double amplitude_v,
         SineTable table)
    : clock_(clock),
      frequency_hz_(frequency_hz),
      amplitude_v_(amplitude_v),
      table_(std::move(table)) {
  CITL_CHECK_MSG(table_ != nullptr && !table_->empty() &&
                     (table_->size() & (table_->size() - 1)) == 0,
                 "sine table size must be a power of two");
  unsigned lut_bits = 0;
  while ((std::size_t{1} << lut_bits) < table_->size()) ++lut_bits;
  CITL_CHECK_MSG(lut_bits >= 4 && lut_bits <= 20, "LUT size out of range");
  CITL_CHECK_MSG(frequency_hz > 0.0 &&
                     frequency_hz < clock.frequency_hz() / 2.0,
                 "DDS frequency must respect Nyquist");
  lut_ = table_->data();
  idx_mask_ = table_->size() - 1;
  shift_ = kAccBits - lut_bits;
  frac_mask_ = (std::uint64_t{1} << shift_) - 1;
  frac_scale_ = std::ldexp(1.0, -static_cast<int>(shift_));
  retune();
}

void Dds::retune() noexcept {
  const double full = std::ldexp(1.0, kAccBits);  // 2^48
  tuning_word_ = static_cast<std::uint64_t>(
      frequency_hz_ / clock_.frequency_hz() * full + 0.5);
}

void Dds::set_frequency(double frequency_hz) noexcept {
  frequency_hz_ = frequency_hz;
  retune();
}

void Dds::set_phase_offset(double rad) noexcept {
  phase_offset_rad_ = rad;
  const double full = std::ldexp(1.0, kAccBits);
  double frac = rad / kTwoPi;
  frac -= std::floor(frac);
  offset_word_ = static_cast<std::uint64_t>(frac * full + 0.5);
}

double Dds::lookup(std::uint64_t acc) const noexcept {
  const std::uint64_t masked = acc & ((std::uint64_t{1} << kAccBits) - 1);
  // Linear interpolation between adjacent LUT entries: the hardware truncates,
  // but interpolation keeps spurs below the 14-bit converter floor, which is
  // what a real Group DDS achieves with dithering. Scaling by 2^-shift is
  // exact, so it equals dividing by 2^shift bit for bit.
  const std::uint64_t idx = masked >> shift_;
  const double frac = static_cast<double>(masked & frac_mask_) * frac_scale_;
  const double a = lut_[idx];
  const double b = lut_[(idx + 1) & idx_mask_];
  return a + (b - a) * frac;
}

double Dds::current() const noexcept {
  return amplitude_v_ * lookup(accumulator_ + offset_word_);
}

double Dds::tick() noexcept {
  const double out = current();
  accumulator_ += tuning_word_;
  return out;
}

double Dds::phase_rad() const noexcept {
  const std::uint64_t masked =
      (accumulator_ + offset_word_) & ((std::uint64_t{1} << kAccBits) - 1);
  return kTwoPi * static_cast<double>(masked) / std::ldexp(1.0, kAccBits);
}

}  // namespace citl::sig
