// The load generator's side of the xpstreamd wire protocol
// (docs/protocol.md), written from the prose contract rather than
// linked from src/server: a non-blocking connection with a send
// queue and a buffered frame reader that stamps every frame with the
// time its bytes came off the socket.

#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Frame types, docs/protocol.md "Frame types".
enum : uint8_t {
  kSubscribe = 0x01,
  kUnsubscribe = 0x02,
  kDocChunk = 0x03,
  kDocEnd = 0x04,
  kCompact = 0x05,
  kStats = 0x06,
  kSubscribeOk = 0x81,
  kUnsubscribeOk = 0x82,
  kDocOk = 0x83,
  kCompactOk = 0x84,
  kStatsOk = 0x85,
  kMatch = 0x90,
  kDocDone = 0x91,
  kError = 0xFF,
};

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// One received frame; `payload` views the connection's read buffer
/// and is valid until the next Read().
struct Frame {
  uint8_t type = 0;
  std::string_view payload;
  int64_t recv_ns = 0;
};

uint32_t GetU32(std::string_view p, size_t at);
uint64_t GetU64(std::string_view p, size_t at);

/// Appends one encoded frame to `out`.
void AppendFrame(std::string* out, uint8_t type, std::string_view payload);
std::string SubscribePayload(bool earliest, std::string_view xpath);
std::string U32Payload(uint32_t value);

/// A non-blocking TCP connection to the daemon.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Blocking connect to 127.0.0.1:port, then switches to non-blocking.
  bool Connect(uint16_t port);
  int fd() const { return fd_; }

  /// Queues a frame; Flush() writes as much as the socket takes.
  void Queue(uint8_t type, std::string_view payload);
  /// Writes queued bytes; returns false on a socket error.
  bool Flush();
  size_t pending_bytes() const { return out_.size() - out_pos_; }

  /// Reads what the socket holds (one read() call), stamps it, and
  /// appends every complete frame to `frames`. Returns false on EOF
  /// or a socket error.
  bool Read(std::vector<Frame>* frames);


 private:
  int fd_ = -1;
  std::string out_;
  size_t out_pos_ = 0;
  std::vector<char> in_;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
