// A bare XNET peer on one loopback socket: it sends and reads raw frames,
// so a test can put on the wire what NetClient never would (a refused
// hello, a broken install sequence) and see the server's exact answer.

#ifndef XCLUSTER_TESTS_RAW_PEER_H_
#define XCLUSTER_TESTS_RAW_PEER_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace xcluster {
namespace net {

class RawPeer {
 public:
  static Result<RawPeer> Connect(uint16_t port) {
    XCLUSTER_ASSIGN_OR_RETURN(ScopedFd fd,
                              TcpConnect("127.0.0.1", port, 2000));
    XC_RETURN_IF_ERROR(SetRecvTimeout(fd.get(), 5000));
    return RawPeer(std::move(fd));
  }

  Status Send(FrameType type, const std::string& payload) {
    Frame frame;
    frame.type = type;
    frame.payload = payload;
    std::string wire;
    EncodeFrame(frame, &wire);
    return WriteAll(fd_.get(), wire.data(), wire.size());
  }

  /// The next frame from the server; IOError once it has closed.
  Status Read(Frame* frame) {
    for (;;) {
      bool have_frame = false;
      XC_RETURN_IF_ERROR(decoder_.Next(frame, &have_frame));
      if (have_frame) return Status::OK();
      char chunk[4096];
      size_t got = 0;
      XC_RETURN_IF_ERROR(ReadSome(fd_.get(), chunk, sizeof(chunk), &got));
      if (got == 0) return Status::IOError("server closed the connection");
      decoder_.Feed(chunk, got);
    }
  }

  /// Sends a hello offering [min_version, max_version] and reads the
  /// server's answer into `*answer`.
  Status Hello(uint32_t min_version, uint32_t max_version, Frame* answer) {
    HelloRequest hello;
    hello.min_version = min_version;
    hello.max_version = max_version;
    XC_RETURN_IF_ERROR(Send(FrameType::kHello, EncodeHello(hello)));
    return Read(answer);
  }

 private:
  explicit RawPeer(ScopedFd fd) : fd_(std::move(fd)) {}

  ScopedFd fd_;
  FrameDecoder decoder_;
};

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_TESTS_RAW_PEER_H_
