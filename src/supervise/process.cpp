#include "supervise/process.hpp"

#include <poll.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <utility>
#include <vector>

namespace nodebench::supervise {

// Raw syscalls: glibc before 2.36 has no wrappers, and 2.36's
// <sys/pidfd.h> declares them without C linkage.
Pidfd::Pidfd(pid_t pid)
    : fd_(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0U))) {}

Pidfd::~Pidfd() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Pidfd::Pidfd(Pidfd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Pidfd& Pidfd::operator=(Pidfd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

bool Pidfd::sendSignal(int sig) const {
  return ::syscall(SYS_pidfd_send_signal, fd_, sig, nullptr, 0U) == 0;
}

bool awaitAnyExit(std::span<const int> pidfds,
                  std::chrono::milliseconds timeout) {
  std::vector<pollfd> fds;
  fds.reserve(pidfds.size());
  for (const int fd : pidfds) {
    fds.push_back(pollfd{fd, POLLIN, 0});
  }
  const auto ms = std::clamp<std::chrono::milliseconds::rep>(timeout.count(),
                                                             0, INT_MAX);
  return ::poll(fds.data(), fds.size(), static_cast<int>(ms)) > 0;
}

}  // namespace nodebench::supervise
