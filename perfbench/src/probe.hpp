// Measurement probes: a user-space instruction counter and a steady clock.
//
// The instruction counter is perf_event_open(PERF_COUNT_HW_INSTRUCTIONS)
// restricted to user space and the calling thread, which works unprivileged
// at perf_event_paranoid <= 2. A read() costs about a microsecond of wall
// time but only a fixed handful of user-space instructions, so counts taken
// around single calls are exact once that fixed cost (read_overhead()) is
// subtracted. When the counter cannot be opened the instruction metrics are
// left out, never estimated.
#pragma once

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

class InstrCounter {
 public:
  InstrCounter() {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
    if (fd_ >= 0) {
      overhead_ = read();
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t a = read();
        overhead_ = std::min(overhead_, read() - a);
      }
    }
  }
  ~InstrCounter() {
    if (fd_ >= 0) close(fd_);
  }
  InstrCounter(const InstrCounter&) = delete;
  InstrCounter& operator=(const InstrCounter&) = delete;

  [[nodiscard]] bool available() const noexcept { return fd_ >= 0; }

  /// Instructions retired in user space by this thread since the counter
  /// opened (0 when unavailable).
  [[nodiscard]] std::uint64_t read() const noexcept {
    std::uint64_t v = 0;
    if (fd_ >= 0 && ::read(fd_, &v, sizeof v) != sizeof v) v = 0;
    return v;
  }

  /// Instructions two back-to-back read()s count between them; subtract it
  /// from every bracketed delta.
  [[nodiscard]] std::uint64_t read_overhead() const noexcept {
    return overhead_;
  }

 private:
  int fd_ = -1;
  std::uint64_t overhead_ = 0;
};

}  // namespace perfbench
