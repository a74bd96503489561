#pragma once
/// \file io.hpp
/// \brief Durable file I/O shared by the framed logs (campaign journal,
/// results store, supervisor journal) and the serve daemon's state
/// directory. It gives every writer two robustness properties:
///
///  - **Append rollback.** `appendDurable` remembers the file's end
///    offset before writing and, when the write or fsync fails midway
///    (ENOSPC, EIO), truncates the file back to that offset before
///    rethrowing. A failed append therefore *never* leaves a torn frame
///    behind: the journal needs no torn-tail recovery on the next resume
///    and the strict store decoder keeps accepting the file.
///  - **I/O fault injection.** A test-only shim (`setIoFailure`) makes
///    the Nth subsequent write or fsync fail with a chosen errno —
///    optionally after a partial write, the worst case rollback must
///    handle — so the ENOSPC/EIO paths are testable without filling a
///    disk. The shim sits beside the `--crash-after-cell` hook in the
///    robustness toolbox; production builds never arm it.
///
/// Every function takes a `what` label ("journal", "store", "serve
/// state") so error texts keep naming the subsystem that failed.

#include <cstdint>
#include <span>
#include <string>

namespace nodebench::campaign::io {

/// Atomically replaces `path` with `content` (write temp, fsync, rename,
/// sync parent dir). The temp file is unlinked on failure.
void atomicWrite(const std::string& path, std::span<const std::uint8_t> content,
                 const char* what);

/// Durable append with rollback: seeks to the end, writes `bytes`,
/// fsyncs. If any step fails the file is truncated back to its
/// pre-append length before the error propagates, so the on-disk record
/// stream is never left with a torn frame. (If even the rollback
/// truncate fails the error says so — the caller then knows the tail is
/// suspect and the torn-tail recovery path applies.)
void appendDurable(int fd, std::span<const std::uint8_t> bytes,
                   const std::string& path, const char* what);

// --- test-only fault injection ----------------------------------------------

/// Which syscall the armed fault fires on.
enum class IoOp : int {
  Write = 0,  ///< ::write fails (no bytes reach the file).
  PartialWrite = 1,  ///< ::write lands half the bytes, then fails.
  Fsync = 2,  ///< The write lands fully, then ::fsync fails.
};

/// Arms the shim: the (`afterCalls` + 1)-th subsequent matching syscall
/// issued through this layer fails with `errnoValue` (e.g. ENOSPC, EIO).
/// The shim disarms itself after firing once. Test-only; not reentrant
/// with concurrent arming (but safe against concurrent I/O).
void setIoFailure(IoOp op, int afterCalls, int errnoValue);

/// Disarms the shim (idempotent).
void clearIoFailure();

/// Number of times an armed fault has fired since the last arm/clear
/// (tests assert the fault actually triggered).
[[nodiscard]] int ioFailuresFired();

}  // namespace nodebench::campaign::io
