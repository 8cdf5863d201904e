#include "net/packet.h"

#include <cassert>
#include <vector>

namespace hpcc::net {
namespace {

// Owns this thread's free list; frees the parked packets at thread exit.
struct ThreadCache {
  std::vector<Packet*> free_list;
  size_t allocated = 0;
  ~ThreadCache() {
    for (Packet* p : free_list) delete p;
  }
};

ThreadCache& Cache() {
  static thread_local ThreadCache cache;
  return cache;
}

}  // namespace

Packet* PacketPool::Acquire() {
  ThreadCache& cache = Cache();
  if (!cache.free_list.empty()) {
    Packet* p = cache.free_list.back();
    cache.free_list.pop_back();
    return p;
  }
  ++cache.allocated;
  return new Packet();
}

void PacketPool::Release(Packet* p) noexcept {
  if (p == nullptr) return;
  *p = Packet{};  // scrub: a recycled packet must look freshly constructed
  try {
    Cache().free_list.push_back(p);
  } catch (...) {
    delete p;  // free-list growth failed; fall back to the heap
  }
}

size_t PacketPool::free_count() noexcept { return Cache().free_list.size(); }

size_t PacketPool::allocated_count() noexcept { return Cache().allocated; }

void PacketPool::TrimThreadCache() noexcept {
  ThreadCache& cache = Cache();
  for (Packet* p : cache.free_list) delete p;
  cache.free_list.clear();
}

PacketPtr AllocatePacket() { return PacketPtr(PacketPool::Acquire()); }

PacketPtr MakeDataPacket(uint64_t flow_id, uint32_t src, uint32_t dst,
                         uint64_t seq, int payload_bytes, bool int_enabled,
                         bool ecn_capable) {
  auto p = AllocatePacket();
  p->type = PacketType::kData;
  p->flow_id = flow_id;
  p->src = src;
  p->dst = dst;
  p->seq = seq;
  p->payload_bytes = payload_bytes;
  p->header_bytes = kDataHeaderBytes;
  if (int_enabled) {
    // Worst-case INT padding charged on every data packet (§5.1).
    p->header_bytes += core::IntStack::kWorstCaseWireBytes;
    p->int_enabled = true;
  }
  p->ecn_capable = ecn_capable;
  p->priority = kDataPriority;
  return p;
}

PacketPtr MakeAck(const Packet& data, uint64_t cumulative_ack) {
  assert(data.type == PacketType::kData);
  auto p = AllocatePacket();
  p->type = PacketType::kAck;
  p->flow_id = data.flow_id;
  p->src = data.dst;
  p->dst = data.src;
  p->seq = cumulative_ack;
  p->payload_bytes = 0;
  p->header_bytes = kAckHeaderBytes;
  p->priority = kControlPriority;
  p->ecn_echo = data.ecn_ce;
  p->data_sent_time = data.sent_time;
  p->rcp_rate_bps = data.rcp_rate_bps;
  p->irn = data.irn;
  p->acked_payload_bytes = data.payload_bytes;
  if (data.int_enabled) {
    // Receiver copies the INT meta-data into the ACK (§3.1 step 5). The ACK
    // also physically carries those bytes.
    p->int_enabled = true;
    p->int_stack = data.int_stack;
    p->header_bytes += data.int_stack.WireBytes();
  }
  return p;
}

PacketPtr MakeNack(const Packet& data, uint64_t expected_seq) {
  auto p = MakeAck(data, expected_seq);
  p->type = PacketType::kNack;
  p->sack_seq = data.seq;
  p->has_sack = true;
  return p;
}

PacketPtr MakeCnp(uint64_t flow_id, uint32_t src, uint32_t dst) {
  auto p = AllocatePacket();
  p->type = PacketType::kCnp;
  p->flow_id = flow_id;
  p->src = src;
  p->dst = dst;
  p->payload_bytes = 0;
  p->header_bytes = kAckHeaderBytes;
  p->priority = kControlPriority;
  return p;
}

PacketPtr MakePfc(PacketType pause_or_resume, int priority, int depth) {
  assert(pause_or_resume == PacketType::kPfcPause ||
         pause_or_resume == PacketType::kPfcResume);
  assert(depth >= 0 && depth <= kMaxPauseDepth);
  auto p = AllocatePacket();
  p->type = pause_or_resume;
  p->pause_depth = static_cast<uint8_t>(depth);
  p->payload_bytes = 0;
  p->header_bytes = kPfcFrameBytes;
  p->priority = kControlPriority;
  p->pause_priority = priority;
  return p;
}

}  // namespace hpcc::net
