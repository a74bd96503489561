#pragma once
/// \file framed_log.hpp
/// \brief The one codec behind nodebench's three framed files: the
/// campaign journal (NBCJ), the results store (NBRS) and the supervisor
/// journal (NBSV).
///
/// All three share one layout — magic (4 bytes), u32 schema version, a
/// header frame, then record frames — where a frame is [u32 payload
/// length][u32 CRC32 of payload][payload], little-endian. A format
/// differs from the others only in its `FramedFormat` descriptor and its
/// payload schemas, which live with the format. This file owns the rest:
/// header encoding, the frame cursor, the policy-driven decoder, the
/// capped file loader and the create / resume / append lifecycle over
/// `io::atomicWrite` and `io::appendDurable`.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace nodebench::campaign {

/// Thrown when a resumed journal, store or supervisor journal was
/// recorded under a different configuration; what() names the
/// mismatched parameter and both values.
class ConfigMismatchError : public Error {
 public:
  using Error::Error;
};

/// What a format does with an invalid record frame.
enum class TailPolicy {
  Truncate,  ///< A kill mid-append is normal: keep the valid prefix, warn.
  Refuse,    ///< A finished artifact: any invalid frame throws.
};

/// Throws a format's corruption error; formats pass `raiseAs<E>`.
using RaiseFn = void (*)(const std::string& what);

template <class E>
void raiseAs(const std::string& what) {
  throw E(what);
}

/// Everything that tells one framed format from another.
struct FramedFormat {
  char magic[4];
  std::uint32_t version;
  std::uint32_t maxFrameBytes;  ///< Longer frames are corruption.
  std::uintmax_t maxFileBytes;  ///< Larger files are refused unread.
  TailPolicy tail;
  RaiseFn raise;         ///< The format's corruption error.
  const char* title;     ///< "not a nodebench <title> (bad magic bytes)"
  const char* noun;      ///< "<noun> header truncated"; io:: error label
  const char* fileNoun;  ///< "cannot open <fileNoun>: <path>"
  const char* unit;      ///< "record" / "event" in torn-tail warnings
};

/// Magic, version and the framed header payload: a file's first bytes.
[[nodiscard]] std::vector<std::uint8_t> encodeFramedHeader(
    const FramedFormat& format, std::span<const std::uint8_t> payload);

/// One [len][crc][payload] frame.
[[nodiscard]] std::vector<std::uint8_t> frame(
    std::span<const std::uint8_t> payload);

using PayloadFn = std::function<void(std::span<const std::uint8_t>)>;

/// Decodes a file image under `format`'s policy, handing the header
/// payload to `onHeader` and each record payload to `onRecord`. Bad
/// magic, version or header — or a JournalCorruptError (the payload
/// reader's error) out of `onHeader` — throw the format's error. Under
/// Truncate the first bad record frame, or a JournalCorruptError out of
/// `onRecord`, ends the walk with a torn-tail warning; under Refuse it
/// throws. Returns the length of the valid prefix.
std::size_t decodeFramed(const FramedFormat& format,
                         std::span<const std::uint8_t> bytes,
                         const PayloadFn& onHeader, const PayloadFn& onRecord,
                         std::vector<std::string>& warnings);

/// Reads a whole file, refusing one larger than `maxBytes` from its size
/// alone: "<fileNoun> <path> is implausibly large (<n> bytes)", thrown
/// through `raise`.
[[nodiscard]] std::vector<std::uint8_t> loadCapped(const std::string& path,
                                                   const char* fileNoun,
                                                   std::uintmax_t maxBytes,
                                                   RaiseFn raise);
[[nodiscard]] std::vector<std::uint8_t> loadCapped(const FramedFormat& format,
                                                   const std::string& path);

/// `value`, or — when it is not valid UTF-8 — the format's error "<noun>
/// <unit> carries invalid UTF-8 in its <field> field".
[[nodiscard]] std::string utf8Checked(const FramedFormat& format,
                                      std::string value, const char* field);

/// Throws ConfigMismatchError("cannot resume <path>: <mismatch>") unless
/// `mismatch` is empty.
void refuseMismatch(const std::string& path, const std::string& mismatch);

/// The append side of an open framed file; owns its descriptor.
class FramedLog {
 public:
  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;
  ~FramedLog();

  /// Writes `header` (encodeFramedHeader's bytes) to a fresh file by
  /// write-temp / fsync / rename and opens it for appending. Refuses an
  /// existing file: resuming must be an explicit decision.
  [[nodiscard]] static std::unique_ptr<FramedLog> create(
      const FramedFormat& format, const std::string& path,
      std::span<const std::uint8_t> header);

  /// Opens a decoded file for appending, first rewriting its valid
  /// prefix atomically when the decode kept fewer than all of `bytes`,
  /// so appends continue from a clean frame boundary.
  [[nodiscard]] static std::unique_ptr<FramedLog> reopen(
      const FramedFormat& format, const std::string& path,
      std::span<const std::uint8_t> bytes, std::size_t validBytes);

  /// Durable append of one encoded frame (write + fsync, rolled back on
  /// failure).
  void append(std::span<const std::uint8_t> framed);

 private:
  FramedLog(const FramedFormat& format, const std::string& path);

  const FramedFormat& format_;
  std::string path_;
  int fd_ = -1;
};

}  // namespace nodebench::campaign
