// Correctness gate: bit-for-bit comparison of an output stream against a
// reference replay. Every engine in citl is deterministic and every exec
// tier is bit-identical by contract, so "equal" means equal bit patterns —
// a one-ulp difference is a failure, and so is a missing record.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>

namespace perfbench {

struct GateResult {
  std::size_t compared = 0;    ///< positions checked (the longer stream)
  std::size_t mismatched = 0;  ///< differing or missing positions
  /// First differing position; equals `compared` when there is none.
  std::size_t first_mismatch = 0;
  [[nodiscard]] bool ok() const noexcept { return mismatched == 0; }
};

/// Compares `got` against `want` element by element, bytewise (T must have
/// no padding: doubles and structs of doubles such as hil::TurnRecord).
/// Elements past the end of the shorter stream count as mismatches;
/// `on_mismatch(i)` is called for each mismatching position i.
template <typename T, typename F>
GateResult compare_bits(std::span<const T> got, std::span<const T> want,
                        F&& on_mismatch) {
  static_assert(std::is_trivially_copyable_v<T>);
  GateResult r;
  r.compared = got.size() > want.size() ? got.size() : want.size();
  r.first_mismatch = r.compared;
  for (std::size_t i = 0; i < r.compared; ++i) {
    const bool same = i < got.size() && i < want.size() &&
                      std::memcmp(&got[i], &want[i], sizeof(T)) == 0;
    if (!same) {
      if (r.mismatched == 0) r.first_mismatch = i;
      ++r.mismatched;
      on_mismatch(i);
    }
  }
  return r;
}

template <typename T>
GateResult compare_bits(std::span<const T> got, std::span<const T> want) {
  return compare_bits(got, want, [](std::size_t) {});
}

}  // namespace perfbench
