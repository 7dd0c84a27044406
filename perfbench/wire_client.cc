#include "wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t GetU32(std::string_view p, size_t at) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) v = (v << 8) | static_cast<uint8_t>(p[at + i]);
  return v;
}

uint64_t GetU64(std::string_view p, size_t at) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) v = (v << 8) | static_cast<uint8_t>(p[at + i]);
  return v;
}

namespace {
void PutU32(std::string* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}
}  // namespace

void AppendFrame(std::string* out, uint8_t type, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size() + 1));
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

std::string SubscribePayload(bool earliest, std::string_view xpath) {
  std::string payload(1, earliest ? '\1' : '\0');
  payload.append(xpath);
  return payload;
}

std::string U32Payload(uint32_t value) {
  std::string payload;
  PutU32(&payload, value);
  return payload;
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

void Connection::Queue(uint8_t type, std::string_view payload) {
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  }
  AppendFrame(&out_, type, payload);
}

bool Connection::Flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                             out_.size() - out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  out_.clear();
  out_pos_ = 0;
  return true;
}

bool Connection::Read(std::vector<Frame>* frames) {
  // Views handed out by the previous call are dead by contract, so the
  // unconsumed tail may move to the front here.
  if (in_begin_ > 0) {
    std::copy(in_.begin() + in_begin_, in_.begin() + in_end_, in_.begin());
    in_end_ -= in_begin_;
    in_begin_ = 0;
  }
  if (in_.size() - in_end_ < 64 * 1024) in_.resize(in_end_ + 256 * 1024);
  ssize_t n;
  do {
    n = ::recv(fd_, in_.data() + in_end_, in_.size() - in_end_, 0);
  } while (n < 0 && errno == EINTR);
  const int64_t stamp = NowNs();
  if (n <= 0) return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  in_end_ += static_cast<size_t>(n);
  const std::string_view data(in_.data(), in_end_);
  while (in_end_ - in_begin_ >= 4) {
    const uint32_t length = GetU32(data, in_begin_);
    if (length == 0) return false;  // framing violation from the server
    if (in_end_ - in_begin_ - 4 < length) break;
    Frame frame;
    frame.type = static_cast<uint8_t>(data[in_begin_ + 4]);
    frame.payload = data.substr(in_begin_ + 5, length - 1);
    frame.recv_ns = stamp;
    frames->push_back(frame);
    in_begin_ += 4 + length;
  }
  return true;
}

}  // namespace perfbench
