#pragma once
/// \file process.hpp
/// \brief Waiting on worker processes through pidfds.
///
/// A pidfd (Linux >= 5.3) is a descriptor that pins one process and
/// turns readable when that process exits. The supervisor's event loop
/// sleeps in one `poll()` over its workers' pidfds, so a finished worker
/// wakes it at once instead of at the next fixed tick; the resume path
/// signals a stale worker through its pidfd, so a pid recycled between
/// the cmdline check and the kill can never be hit.
///
/// Where the kernel refuses a pidfd (an older kernel, a seccomp filter)
/// the handle is empty and nothing else changes: `poll()` skips
/// negative descriptors, so the same wait runs to its timeout and the
/// exit is noticed there, as on a fixed tick. No SIGCHLD handler and no
/// self-pipe: both are process-global and would interact with the CLI's
/// SIGINT/SIGTERM handlers and with blocking `waitpid` calls.

#include <sys/types.h>

#include <chrono>
#include <span>

namespace nodebench::supervise {

/// An owned pidfd; empty (`get() == -1`) when the kernel refused one.
/// Every pidfd is close-on-exec, so later workers never inherit it.
class Pidfd {
 public:
  Pidfd() = default;
  /// Opens a pidfd for `pid`; on failure the handle is empty and errno
  /// says why (ESRCH: no such process).
  explicit Pidfd(pid_t pid);
  ~Pidfd();
  Pidfd(Pidfd&& other) noexcept;
  Pidfd& operator=(Pidfd&& other) noexcept;
  Pidfd(const Pidfd&) = delete;
  Pidfd& operator=(const Pidfd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] explicit operator bool() const { return fd_ >= 0; }

  /// Sends `sig` to the pinned process; false (errno set) when it fails,
  /// including when the handle is empty.
  bool sendSignal(int sig) const;

 private:
  int fd_ = -1;
};

/// Blocks until one of `pidfds` is readable (its process exited),
/// `timeout` passes, or a signal interrupts the wait (EINTR — the caller
/// re-checks its stop flag). Negative entries are skipped; with none
/// left this is a plain sleep. True when a process exited.
bool awaitAnyExit(std::span<const int> pidfds,
                  std::chrono::milliseconds timeout);

}  // namespace nodebench::supervise
