#include "svc/frame.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "support/error.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // non-Linux: callers ignore SIGPIPE instead
#endif

namespace topomap::svc {

namespace {

std::uint32_t read_be32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
         (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
}

/// The header announcing `payload`: magic, then its length big-endian.
std::array<char, kFrameHeaderSize> frame_header(std::string_view payload) {
  TOPOMAP_REQUIRE(payload.size() <= 0xFFFFFFFFu,
                  "frame payload exceeds the 32-bit length field");
  std::array<char, kFrameHeaderSize> header;
  std::memcpy(header.data(), kFrameMagic.data(), kFrameMagic.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i)
    header[kFrameMagic.size() + i] = static_cast<char>(len >> (24 - 8 * i));
  return header;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  const std::array<char, kFrameHeaderSize> header = frame_header(payload);
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(header.data(), header.size());
  out.append(payload);
  return out;
}

void FrameDecoder::validate_prefix() const {
  const std::size_t check = std::min(buffer_.size(), kFrameMagic.size());
  if (buffer_.compare(0, check, kFrameMagic, 0, check) != 0)
    throw precondition_error(
        "svc frame: bad magic (expected \"TMP1\") — peer is not speaking "
        "the topomapd framing");
  if (buffer_.size() >= kFrameHeaderSize) {
    const std::uint32_t len = read_be32(buffer_.data() + kFrameMagic.size());
    if (len > max_payload_)
      throw precondition_error(
          "svc frame: declared payload of " + std::to_string(len) +
          " bytes exceeds the cap of " + std::to_string(max_payload_));
  }
}

void FrameDecoder::feed(std::string_view bytes) {
  buffer_.append(bytes);
  validate_prefix();
}

std::optional<std::string> FrameDecoder::next() {
  if (buffer_.size() < kFrameHeaderSize) return std::nullopt;
  const std::uint32_t len = read_be32(buffer_.data() + kFrameMagic.size());
  if (buffer_.size() < kFrameHeaderSize + len) return std::nullopt;
  std::string payload = buffer_.substr(kFrameHeaderSize, len);
  buffer_.erase(0, kFrameHeaderSize + len);
  // The tail of a multi-frame read is a new prefix; re-check it now so a
  // pipelined garbage frame fails here rather than on the next feed().
  if (!buffer_.empty()) validate_prefix();
  return payload;
}

namespace {

/// Read exactly `n` bytes.  Returns the count read before EOF (< n only at
/// EOF); throws io_error on a hard read failure.
std::size_t read_exact(int fd, char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) break;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("svc frame: read failed: ") +
                     std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

bool read_frame(int fd, std::string& payload, std::size_t max_payload) {
  char header[kFrameHeaderSize];
  const std::size_t got = read_exact(fd, header, kFrameHeaderSize);
  if (got == 0) return false;  // clean close between frames
  if (got < kFrameHeaderSize)
    throw io_error("svc frame: connection closed mid-header");
  if (std::string_view(header, kFrameMagic.size()) != kFrameMagic)
    throw precondition_error(
        "svc frame: bad magic (expected \"TMP1\") — peer is not speaking "
        "the topomapd framing");
  const std::uint32_t len = read_be32(header + kFrameMagic.size());
  if (len > max_payload)
    throw precondition_error(
        "svc frame: declared payload of " + std::to_string(len) +
        " bytes exceeds the cap of " + std::to_string(max_payload));
  payload.resize(len);
  if (read_exact(fd, payload.data(), len) < len)
    throw io_error("svc frame: connection closed mid-payload");
  return true;
}

void write_frame(int fd, std::string_view payload, std::size_t max_payload) {
  if (payload.size() > max_payload)
    throw io_error("svc frame: response of " +
                   std::to_string(payload.size()) +
                   " bytes exceeds the frame cap");
  // The header and the payload go out as two iovecs of one sendmsg, so
  // the payload is never copied behind a header.  A partial write
  // advances the pair and sends the rest.
  std::array<char, kFrameHeaderSize> header = frame_header(payload);
  iovec iov[2] = {{header.data(), header.size()},
                  {const_cast<char*>(payload.data()), payload.size()}};
  iovec* next = iov;
  int count = payload.empty() ? 1 : 2;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(count);
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("svc frame: write failed: ") +
                     std::strerror(errno));
    }
    auto sent = static_cast<std::size_t>(w);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
}

}  // namespace topomap::svc
