#include "campaign/framed_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "campaign/io.hpp"
#include "campaign/journal.hpp"
#include "core/checksum.hpp"
#include "core/utf8.hpp"

namespace nodebench::campaign {

namespace {

enum class FrameFault { None, Incomplete, TooLong, PastEnd, BadChecksum };

struct Frame {
  FrameFault fault = FrameFault::None;
  std::uint32_t length = 0;               ///< As read, even when faulty.
  std::span<const std::uint8_t> payload;  ///< Empty unless fault == None.
};

/// Walks the frames of a file image without copying: payloads are spans
/// into the caller's bytes.
class FrameCursor {
 public:
  FrameCursor(std::span<const std::uint8_t> bytes, std::size_t pos,
              std::uint32_t maxFrameBytes)
      : bytes_(bytes), pos_(pos), maxFrameBytes_(maxFrameBytes) {}

  [[nodiscard]] bool done() const { return pos_ >= bytes_.size(); }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// Reads the frame at the cursor, advancing past it only when valid.
  [[nodiscard]] Frame next();

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_;
  std::uint32_t maxFrameBytes_;
};

Frame FrameCursor::next() {
  Frame f;
  if (bytes_.size() - pos_ < 8) {
    f.fault = FrameFault::Incomplete;
    return f;
  }
  PayloadReader prefix(bytes_.subspan(pos_, 8));
  f.length = prefix.u32();
  const std::uint32_t crc = prefix.u32();
  if (f.length > maxFrameBytes_) {
    f.fault = FrameFault::TooLong;
  } else if (bytes_.size() - pos_ - 8 < f.length) {
    f.fault = FrameFault::PastEnd;
  } else if (crc32(bytes_.subspan(pos_ + 8, f.length)) != crc) {
    f.fault = FrameFault::BadChecksum;
  } else {
    f.payload = bytes_.subspan(pos_ + 8, f.length);
    pos_ += 8 + f.length;
  }
  return f;
}

/// Throws through the format's error type; the trailing throw only
/// satisfies [[noreturn]] (every RaiseFn throws).
[[noreturn]] void fail(const FramedFormat& format, const std::string& what) {
  format.raise(what);
  throw Error(what);
}

/// What is wrong with a faulty frame, as every frame diagnostic ends.
std::string faultText(const Frame& f, std::uint32_t maxFrameBytes) {
  switch (f.fault) {
    case FrameFault::Incomplete:
      return "truncated";
    case FrameFault::TooLong:
      return "length " + std::to_string(f.length) + " exceeds the " +
             std::to_string(maxFrameBytes) + "-byte limit";
    case FrameFault::PastEnd:
      return "extends past end of file";
    default:
      return "checksum mismatch";
  }
}

}  // namespace

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
  PayloadWriter prefix;
  prefix.putU32(static_cast<std::uint32_t>(payload.size()));
  prefix.putU32(crc32(payload));
  std::vector<std::uint8_t> out;
  out.reserve(8 + payload.size());
  out.insert(out.end(), prefix.bytes().begin(), prefix.bytes().end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encodeFramedHeader(
    const FramedFormat& format, std::span<const std::uint8_t> payload) {
  PayloadWriter version;
  version.putU32(format.version);
  std::vector<std::uint8_t> out(format.magic, format.magic + 4);
  out.insert(out.end(), version.bytes().begin(), version.bytes().end());
  const auto framed = frame(payload);
  out.insert(out.end(), framed.begin(), framed.end());
  return out;
}

std::size_t decodeFramed(const FramedFormat& format,
                         std::span<const std::uint8_t> bytes,
                         const PayloadFn& onHeader, const PayloadFn& onRecord,
                         std::vector<std::string>& warnings) {
  const std::string noun = format.noun;
  if (bytes.size() < 8 || std::memcmp(bytes.data(), format.magic, 4) != 0) {
    fail(format,
         std::string("not a nodebench ") + format.title + " (bad magic bytes)");
  }
  const std::uint32_t version = PayloadReader(bytes.subspan(4, 4)).u32();
  if (version != format.version) {
    fail(format, "unsupported " + noun + " schema version " +
                     std::to_string(version) + " (this build reads " +
                     std::to_string(format.version) + ")");
  }
  const bool truncate = format.tail == TailPolicy::Truncate;
  // A payload that fails to parse is corruption of the format; under
  // Refuse the reader's own text is prefixed so it names the format.
  const auto payloadError = [&](const JournalCorruptError& e) {
    return truncate ? std::string(e.what())
                    : noun + " payload corrupt: " + e.what();
  };

  // Header frame: mandatory under every policy — without the recorded
  // configuration nothing after it can be trusted.
  FrameCursor cursor(bytes, 8, format.maxFrameBytes);
  const Frame header = cursor.next();
  if (header.fault != FrameFault::None) {
    fail(format, noun + " header " +
                     (truncate && header.fault != FrameFault::BadChecksum
                          ? std::string("truncated")
                          : faultText(header, format.maxFrameBytes)));
  }
  try {
    onHeader(header.payload);
  } catch (const JournalCorruptError& e) {
    fail(format, payloadError(e));
  }

  // Record frames: the valid prefix is kept. Under Truncate the first
  // invalid frame marks a torn tail (a kill mid-append) and everything
  // from there on is dropped with a warning.
  std::size_t kept = 0;
  std::size_t valid = cursor.pos();
  while (!cursor.done()) {
    const Frame f = cursor.next();
    std::string why;
    if (f.fault == FrameFault::None) {
      try {
        onRecord(f.payload);
        ++kept;
        valid = cursor.pos();
        continue;
      } catch (const JournalCorruptError& e) {
        why = payloadError(e);
      }
    } else if (!truncate) {
      why = noun + " " + format.unit + " " + faultText(f, format.maxFrameBytes);
    } else if (f.fault == FrameFault::Incomplete) {
      why = std::string("incomplete ") + format.unit + " frame";
    } else {
      why = format.unit + (" " + faultText(f, format.maxFrameBytes));
    }
    if (!truncate) {
      fail(format, why);
    }
    warnings.push_back("torn tail truncated: " + why + "; dropped " +
                       std::to_string(bytes.size() - valid) +
                       " trailing byte(s), kept " + std::to_string(kept) +
                       " valid " + format.unit + "(s)");
    break;
  }
  return valid;
}

std::vector<std::uint8_t> loadCapped(const std::string& path,
                                     const char* fileNoun,
                                     std::uintmax_t maxBytes, RaiseFn raise) {
  const std::string noun = fileNoun;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw Error("cannot open " + noun + ": " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    throw Error("cannot stat " + noun + ": " + path);
  }
  if (static_cast<std::uintmax_t>(size) > maxBytes) {
    raise(noun + " " + path + " is implausibly large (" +
          std::to_string(size) + " bytes)");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw Error("failed reading " + noun + ": " + path);
  }
  return bytes;
}

std::vector<std::uint8_t> loadCapped(const FramedFormat& format,
                                     const std::string& path) {
  return loadCapped(path, format.fileNoun, format.maxFileBytes, format.raise);
}

std::string utf8Checked(const FramedFormat& format, std::string value,
                        const char* field) {
  if (!validUtf8(value)) {
    fail(format, std::string(format.noun) + " " + format.unit +
                     " carries invalid UTF-8 in its " + field + " field");
  }
  return value;
}

void refuseMismatch(const std::string& path, const std::string& mismatch) {
  if (!mismatch.empty()) {
    throw ConfigMismatchError("cannot resume " + path + ": " + mismatch);
  }
}

// --- FramedLog lifecycle -----------------------------------------------------

FramedLog::FramedLog(const FramedFormat& format, const std::string& path)
    : format_(format), path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    throw Error(std::string("cannot reopen ") + format.noun +
                " for appending: " + path + ": " + std::strerror(errno));
  }
}

FramedLog::~FramedLog() { ::close(fd_); }

std::unique_ptr<FramedLog> FramedLog::create(
    const FramedFormat& format, const std::string& path,
    std::span<const std::uint8_t> header) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    throw Error(std::string(format.fileNoun) + " already exists: " + path +
                " (pass --resume to continue the recorded campaign, or "
                "remove the file to start fresh)");
  }
  io::atomicWrite(path, header, format.noun);
  return std::unique_ptr<FramedLog>(new FramedLog(format, path));
}

std::unique_ptr<FramedLog> FramedLog::reopen(
    const FramedFormat& format, const std::string& path,
    std::span<const std::uint8_t> bytes, std::size_t validBytes) {
  if (validBytes < bytes.size()) {
    io::atomicWrite(path, bytes.first(validBytes), format.noun);
  }
  return std::unique_ptr<FramedLog>(new FramedLog(format, path));
}

void FramedLog::append(std::span<const std::uint8_t> framed) {
  io::appendDurable(fd_, framed, path_, format_.noun);
}

}  // namespace nodebench::campaign
