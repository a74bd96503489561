/// \file process_test.cpp
/// \brief The supervisor's exit wait: a pidfd wakes `awaitAnyExit` as
/// soon as its child exits, a running child (next to an empty handle,
/// which is skipped) leaves it waiting out its timeout, and a pidfd
/// carries a signal to the process it pins.

#include "supervise/process.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <utility>

namespace nodebench::supervise {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

/// Forks a child that exits at once (`exitNow`) or blocks until killed.
pid_t forkChild(bool exitNow) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (exitNow) {
      ::_exit(0);
    }
    for (;;) {
      ::pause();
    }
  }
  return pid;
}

/// The handle, or a skip when this kernel refuses pidfds (the
/// supervisor then waits out each timeout, which these tests would not
/// see).
#define OPEN_PIDFD_OR_SKIP(var, pid)                                   \
  Pidfd var(pid);                                                      \
  if (!(var)) {                                                        \
    const int err = errno;                                             \
    ::kill(pid, SIGKILL);                                              \
    ::waitpid(pid, nullptr, 0);                                        \
    GTEST_SKIP() << "pidfd_open unavailable (errno " << err << ")";    \
  }

TEST(AwaitAnyExit, WakesWhenAChildExits) {
  const pid_t pid = forkChild(true);
  ASSERT_GT(pid, 0);
  OPEN_PIDFD_OR_SKIP(pidfd, pid);
  const int fds[] = {pidfd.get()};
  const auto t0 = Clock::now();
  EXPECT_TRUE(awaitAnyExit(fds, milliseconds(10000)));
  EXPECT_LT(Clock::now() - t0, milliseconds(5000))
      << "the exit must end the wait, not the 10 s timeout";
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(AwaitAnyExit, WithNoFdsSleepsForTheTimeout) {
  const auto t0 = Clock::now();
  EXPECT_FALSE(awaitAnyExit({}, milliseconds(50)));
  EXPECT_GE(Clock::now() - t0, milliseconds(50));
}

TEST(AwaitAnyExit, RunningChildWaitsForTheTimeoutAndExitThenWakes) {
  const pid_t pid = forkChild(false);
  ASSERT_GT(pid, 0);
  OPEN_PIDFD_OR_SKIP(pidfd, pid);
  const int fds[] = {-1, pidfd.get()};
  const auto t0 = Clock::now();
  EXPECT_FALSE(awaitAnyExit(fds, milliseconds(100)));
  EXPECT_GE(Clock::now() - t0, milliseconds(100));

  ASSERT_TRUE(pidfd.sendSignal(SIGKILL));
  EXPECT_TRUE(awaitAnyExit(fds, milliseconds(10000)));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
}

TEST(Pidfd, IsCloseOnExecAndEmptyForAMissingProcess) {
  const pid_t pid = forkChild(true);
  ASSERT_GT(pid, 0);
  OPEN_PIDFD_OR_SKIP(pidfd, pid);
  EXPECT_NE(::fcntl(pidfd.get(), F_GETFD) & FD_CLOEXEC, 0);
  ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);

  // Reaped: the pid names no process now (unless recycled, which a
  // freshly reaped pid is not in practice).
  const Pidfd gone(pid);
  EXPECT_FALSE(gone);
  EXPECT_EQ(errno, ESRCH);
  EXPECT_FALSE(gone.sendSignal(0));
}

TEST(Pidfd, MoveTransfersOwnership) {
  const pid_t pid = forkChild(true);
  ASSERT_GT(pid, 0);
  OPEN_PIDFD_OR_SKIP(first, pid);
  const int fd = first.get();
  Pidfd second(std::move(first));
  EXPECT_FALSE(first);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(second.get(), fd);
  Pidfd third;
  third = std::move(second);
  EXPECT_EQ(third.get(), fd);
  const int fds[] = {third.get()};
  EXPECT_TRUE(awaitAnyExit(fds, milliseconds(10000)));
  ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);
}

}  // namespace
}  // namespace nodebench::supervise
