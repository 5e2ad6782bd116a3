// Length-prefixed framing for the topomapd wire protocol.
//
// Every message on a topomapd connection — unix-domain socket or TCP, both
// directions — is one frame:
//
//   bytes 0..3   magic "TMP1" (protocol + framing version)
//   bytes 4..7   payload length, unsigned 32-bit big-endian
//   bytes 8..    payload: one UTF-8 JSON document (svc/protocol.hpp)
//
// The magic makes garbage rejection deterministic: a connection that sends
// anything but a frame header fails on byte 0 instead of being
// misinterpreted as a multi-gigabyte length.  Payloads above the
// configured cap are rejected before any allocation.  Framing errors are
// topomap::precondition_error (the peer violated the protocol); transport
// errors — mid-frame EOF, read/write failures — are topomap::io_error.
//
// Two consumption paths share one header layout: FrameDecoder is a pure
// incremental byte-stream decoder (unit-testable without sockets, and the
// single place truncation/oversize/garbage policy lives), while
// read_frame/write_frame do blocking I/O on a connected socket fd.
// write_frame sends the header and the caller's payload as two iovecs of
// one sendmsg, so a response is never copied into a frame buffer.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace topomap::svc {

/// Frame header: 4 magic bytes + 4 length bytes.
inline constexpr std::string_view kFrameMagic = "TMP1";
inline constexpr std::size_t kFrameHeaderSize = 8;

/// Default payload cap, applied by decoder and socket reader alike.
/// Generous for mapping responses (a 20000-task mapping is < 300 KB) while
/// bounding what one connection can make the daemon buffer.
inline constexpr std::size_t kDefaultMaxPayload = 16u << 20;

/// Wrap `payload` in a frame (header + bytes) as one string: the form
/// FrameDecoder consumes.  Sockets use write_frame, which copies nothing.
std::string encode_frame(std::string_view payload);

/// Incremental decoder: feed() raw bytes as they arrive, next() pops
/// complete payloads in order.  Throws precondition_error from feed() the
/// moment the buffered prefix cannot be a valid frame (wrong magic, or a
/// declared length above the cap) — the connection is unrecoverable after
/// that, since frame boundaries are lost.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Append bytes from the wire.  Validates as much of the buffered prefix
  /// as is decidable (magic immediately, length as soon as the header is
  /// complete).
  void feed(std::string_view bytes);

  /// The next complete payload, or nullopt when more bytes are needed.
  std::optional<std::string> next();

  /// True when no partial frame is buffered — the only clean place for a
  /// peer to close the connection.  EOF while !idle() is a truncated frame.
  bool idle() const { return buffer_.empty(); }

 private:
  void validate_prefix() const;

  std::size_t max_payload_;
  std::string buffer_;
};

/// Read one frame's payload from a connected socket.  Returns false on a
/// clean EOF at a frame boundary (peer closed).  Throws io_error on
/// mid-frame EOF or a read failure, precondition_error on protocol
/// garbage.
bool read_frame(int fd, std::string& payload,
                std::size_t max_payload = kDefaultMaxPayload);

/// Write one framed payload to a connected socket; throws io_error when
/// the peer is gone or the payload exceeds the cap a peer would accept.
void write_frame(int fd, std::string_view payload,
                 std::size_t max_payload = kDefaultMaxPayload);

}  // namespace topomap::svc
