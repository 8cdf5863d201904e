// Packet model shared by hosts and switches.
//
// One struct covers data packets, per-packet ACK/NACK (RoCEv2-style), DCQCN
// CNPs and PFC pause/resume control frames; the `type` discriminates. Sizes
// follow §5.1: 1000 B payload, small fixed headers, plus the INT stack bytes
// for schemes that enable INT.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "core/int_header.h"
#include "sim/time.h"

namespace hpcc::net {

enum class PacketType : uint8_t {
  kData,
  kAck,
  kNack,         // go-back-N: carries the receiver's expected seq
  kCnp,          // DCQCN congestion notification packet
  kPfcPause,     // 802.1Qbb pause frame for one priority
  kPfcResume,
};

inline constexpr int kPayloadBytes = 1000;   // MTU-sized data segment
inline constexpr int kDataHeaderBytes = 48;  // Eth+IP+UDP+IB BTH
inline constexpr int kAckHeaderBytes = 60;   // ACK/NACK/CNP frame
inline constexpr int kPfcFrameBytes = 64;    // MAC control frame
inline constexpr int kMaxPauseDepth = 255;   // Packet::pause_depth saturates

// Priorities: control (ACK/NACK/CNP/PFC) preempts data at egress. The paper
// uses a single data priority queue (§6); PFC acts on the data priority.
inline constexpr int kControlPriority = 0;
inline constexpr int kDataPriority = 1;
inline constexpr int kNumPriorities = 2;

struct Packet {
  PacketType type = PacketType::kData;
  // PFC PAUSE: depth of the pause chain behind this frame. 0 = the egress
  // of the packet whose ingress crossed Xoff was transmitting; d + 1 = that
  // egress was itself held by a depth-d pause. Saturates at kMaxPauseDepth.
  // Simulator-side provenance only: the wire size stays kPfcFrameBytes.
  uint8_t pause_depth = 0;

  // Flow addressing. Node ids index Topology::nodes.
  uint64_t flow_id = 0;
  uint32_t src = 0;
  uint32_t dst = 0;

  // Data: `seq` is the byte offset of the first payload byte;
  // ACK/NACK: `seq` is the cumulative ack (next expected byte).
  uint64_t seq = 0;
  int payload_bytes = 0;
  int header_bytes = kDataHeaderBytes;

  int priority = kDataPriority;

  // ECN codepoint: transport marks packets ECN-capable; switches set CE under
  // WRED; the receiver echoes CE on the ACK (`ecn_echo`).
  bool ecn_capable = false;
  bool ecn_ce = false;
  bool ecn_echo = false;

  // INT (HPCC): stamped by switches on data packets, copied to the ACK by
  // the receiver. `int_enabled` is set per-flow by the CC scheme.
  bool int_enabled = false;
  core::IntStack int_stack;

  // RCP (the §3.4/§6 explicit-feedback baseline): switches with RCP enabled
  // stamp min(rate along the path); the receiver echoes it on the ACK.
  int64_t rcp_rate_bps = std::numeric_limits<int64_t>::max();

  // IRN selective-repeat support: on a NACK, `sack_seq` identifies the
  // out-of-order segment that *was* received (so only the gap retransmits).
  uint64_t sack_seq = 0;
  bool has_sack = false;
  // Data packets advertise the sender's recovery mode so the receiver
  // responds with matching GBN/IRN semantics.
  bool irn = false;
  // ACK/NACK: payload size of the data packet being acknowledged (IRN's
  // per-packet inflight accounting).
  int acked_payload_bytes = 0;

  // PFC pause/resume: which priority to (un)pause on the receiving port.
  int pause_priority = kDataPriority;

  // Transient, valid only while the packet sits inside one switch: which
  // ingress port admitted it (for per-ingress PFC buffer accounting).
  int buffer_ingress_port = -1;

  // Timestamps for RTT measurement (TIMELY) and FCT accounting.
  sim::TimePs sent_time = 0;      // when the data packet left the sender
  sim::TimePs data_sent_time = 0; // echoed into the ACK by the receiver

  // Total bytes this packet occupies on the wire and in buffers.
  int size_bytes() const { return payload_bytes + header_bytes; }
};

// Free-list packet pool. The per-hop forward path (host egress → switch →
// ACK back) would otherwise malloc/free every packet; instead released
// packets park on a thread-local free list and are recycled by the next
// Make*. Pool rules:
//  - The pool is thread-local: each sweep-runner worker owns an independent
//    free list, so pooling is lock-free and a packet must be released on the
//    thread that acquired it (simulations are single-threaded, so this holds
//    by construction).
//  - Release scrubs the packet back to default state before pooling; a
//    recycled packet is indistinguishable from a freshly constructed one.
//  - The free list only grows on demand (steady state allocates nothing) and
//    is freed at thread exit; tests can force-free it with TrimThreadCache.
class PacketPool {
 public:
  // Returns a default-state packet, recycled when possible.
  static Packet* Acquire();
  // Scrubs `p` and parks it on this thread's free list.
  static void Release(Packet* p) noexcept;

  // Introspection (this thread's pool only; used by tests and benches).
  static size_t free_count() noexcept;        // packets parked in the pool
  static size_t allocated_count() noexcept;   // ever heap-allocated
  static void TrimThreadCache() noexcept;     // frees the parked packets
};

// PacketPtr returns its packet to the pool instead of the heap. Ownership is
// linear along the forwarding path: host → port queue → wire (released raw
// across the in-flight gap, re-wrapped at the peer) → receiver, which either
// consumes the packet (drop/deliver) or reuses it to build the response.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept { PacketPool::Release(p); }
};
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// Acquires a pooled default-state packet.
PacketPtr AllocatePacket();

// Factory helpers (defined in packet.cc).
PacketPtr MakeDataPacket(uint64_t flow_id, uint32_t src, uint32_t dst,
                         uint64_t seq, int payload_bytes, bool int_enabled,
                         bool ecn_capable);
PacketPtr MakeAck(const Packet& data, uint64_t cumulative_ack);
PacketPtr MakeNack(const Packet& data, uint64_t expected_seq);
PacketPtr MakeCnp(uint64_t flow_id, uint32_t src, uint32_t dst);
PacketPtr MakePfc(PacketType pause_or_resume, int priority, int depth = 0);

}  // namespace hpcc::net
