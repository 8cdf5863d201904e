#include "net/nexthop.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/hash.h"

namespace hpcc::net {

void NextHopTable::InitEmptyGroup() {
  groups_.assign(1, Meta{0, 0, 0, HashPorts(nullptr, 0)});
  index_.assign(16, kEmptySlot);
  index_used_ = 0;
  IndexInsert(kNoGroup);
  live_groups_ = 0;
  dead_port_slots_ = 0;
  last_gid_ = kNoGroup;
  free_gids_.clear();
  ports_.clear();
}

void NextHopTable::Reset(uint32_t num_keys) {
  key_group_.assign(num_keys, kNoGroup);
  InitEmptyGroup();
}

uint64_t NextHopTable::HashPorts(const uint16_t* ports, uint32_t count) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ count;
  for (uint32_t i = 0; i < count; ++i) {
    h = core::SplitMix64(h ^ ports[i]);
  }
  return h;
}

bool NextHopTable::GroupEquals(uint32_t gid, const uint16_t* ports,
                               uint32_t count) const {
  const Meta& m = groups_[gid];
  if (m.size != count) return false;
  return count == 0 ||
         std::memcmp(ports_.data() + m.offset, ports,
                     count * sizeof(uint16_t)) == 0;
}

void NextHopTable::IndexGrow() {
  std::vector<uint32_t> old = std::move(index_);
  index_.assign(old.size() * 2, kEmptySlot);
  index_used_ = 0;
  for (const uint32_t gid : old) {
    if (gid != kEmptySlot) IndexInsert(gid);
  }
}

void NextHopTable::IndexInsert(uint32_t gid) {
  if ((index_used_ + 1) * 4 >= index_.size() * 3) IndexGrow();
  const size_t mask = index_.size() - 1;
  size_t slot = groups_[gid].hash & mask;
  while (index_[slot] != kEmptySlot) slot = (slot + 1) & mask;
  index_[slot] = gid;
  ++index_used_;
}

void NextHopTable::IndexErase(uint32_t gid) {
  // Linear-probe erase with the canonical backward-shift fixup: any element
  // whose probe path crossed the vacated slot moves back into it.
  const size_t mask = index_.size() - 1;
  size_t slot = groups_[gid].hash & mask;
  while (index_[slot] != gid) slot = (slot + 1) & mask;
  index_[slot] = kEmptySlot;
  --index_used_;
  size_t j = slot;
  while (true) {
    j = (j + 1) & mask;
    if (index_[j] == kEmptySlot) break;
    const size_t home = groups_[index_[j]].hash & mask;
    if (((j - home) & mask) >= ((j - slot) & mask)) {
      index_[slot] = index_[j];
      index_[j] = kEmptySlot;
      slot = j;
    }
  }
}

uint32_t NextHopTable::IndexFind(uint64_t hash, const uint16_t* ports,
                                 uint32_t count) const {
  const size_t mask = index_.size() - 1;
  size_t slot = hash & mask;
  while (index_[slot] != kEmptySlot) {
    const uint32_t gid = index_[slot];
    if (groups_[gid].hash == hash && GroupEquals(gid, ports, count)) {
      return gid;
    }
    slot = (slot + 1) & mask;
  }
  return kEmptySlot;
}

uint32_t NextHopTable::InternGroup(const uint16_t* ports, uint32_t count) {
#ifndef NDEBUG
  for (uint32_t i = 1; i < count; ++i) assert(ports[i - 1] < ports[i]);
#endif
  // A full rebuild visits keys in rack order, so one switch interns the
  // same list many times in a row: check the last result before hashing.
  if (GroupEquals(last_gid_, ports, count)) return last_gid_;
  const uint64_t hash = HashPorts(ports, count);
  const uint32_t found = IndexFind(hash, ports, count);
  if (found != kEmptySlot) return last_gid_ = found;

  uint32_t gid;
  if (!free_gids_.empty()) {
    gid = free_gids_.back();
    free_gids_.pop_back();
  } else {
    gid = static_cast<uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  Meta& m = groups_[gid];
  m.offset = static_cast<uint32_t>(ports_.size());
  m.size = count;
  m.refs = 0;
  m.hash = hash;
  ports_.insert(ports_.end(), ports, ports + count);
  IndexInsert(gid);
  ++live_groups_;
  return last_gid_ = gid;
}

void NextHopTable::AssignGroup(uint32_t key, uint32_t gid) {
  const uint32_t old = key_group_[key];
  if (old == gid) return;
  if (gid != kNoGroup) ++groups_[gid].refs;
  key_group_[key] = gid;
  if (old != kNoGroup) ReleaseGroup(old);
}

void NextHopTable::SetRoute(uint32_t key, const uint16_t* ports,
                            uint32_t count) {
  AssignGroup(key, count == 0 ? kNoGroup : InternGroup(ports, count));
}

void NextHopTable::ReleaseGroup(uint32_t gid) {
  Meta& m = groups_[gid];
  assert(m.refs > 0);
  if (--m.refs > 0) return;
  IndexErase(gid);
  dead_port_slots_ += m.size;
  free_gids_.push_back(gid);
  if (gid == last_gid_) last_gid_ = kNoGroup;
  --live_groups_;
  MaybeCompact();
}

void NextHopTable::MaybeCompact() {
  if (dead_port_slots_ < 4096 || dead_port_slots_ * 2 < ports_.size()) return;
  // Rewrite port storage keeping group ids stable; only offsets move.
  std::vector<uint16_t> packed;
  packed.reserve(ports_.size() - dead_port_slots_);
  // A freed gid may still sit in free_gids_ with a stale offset; mark live
  // groups via refs (the empty group has size 0 and needs no storage).
  for (uint32_t gid = 0; gid < groups_.size(); ++gid) {
    Meta& m = groups_[gid];
    if (m.refs == 0 || m.size == 0) continue;
    const uint32_t new_offset = static_cast<uint32_t>(packed.size());
    packed.insert(packed.end(), ports_.begin() + m.offset,
                  ports_.begin() + m.offset + m.size);
    m.offset = new_offset;
  }
  ports_ = std::move(packed);
  dead_port_slots_ = 0;
}

void NextHopTable::AddPort(uint32_t key, uint16_t port) {
  const Group g = Lookup(key);
  scratch_.assign(g.ports, g.ports + g.size);
  auto it = std::lower_bound(scratch_.begin(), scratch_.end(), port);
  assert(it == scratch_.end() || *it != port);
  scratch_.insert(it, port);
  SetRoute(key, scratch_.data(), static_cast<uint32_t>(scratch_.size()));
}

void NextHopTable::RemovePort(uint32_t key, uint16_t port) {
  const Group g = Lookup(key);
  scratch_.assign(g.ports, g.ports + g.size);
  auto it = std::lower_bound(scratch_.begin(), scratch_.end(), port);
  assert(it != scratch_.end() && *it == port);
  scratch_.erase(it);
  SetRoute(key, scratch_.data(), static_cast<uint32_t>(scratch_.size()));
}

size_t NextHopTable::resident_bytes() const {
  return key_group_.capacity() * sizeof(uint32_t) +
         ports_.capacity() * sizeof(uint16_t) +
         groups_.capacity() * sizeof(Meta) +
         index_.capacity() * sizeof(uint32_t) +
         free_gids_.capacity() * sizeof(uint32_t);
}

std::vector<uint16_t> NextHopTable::PortsOf(uint32_t key) const {
  const Group g = Lookup(key);
  return std::vector<uint16_t>(g.ports, g.ports + g.size);
}

bool NextHopTable::CheckConsistency() const {
  std::vector<uint32_t> refs(groups_.size(), 0);
  for (const uint32_t gid : key_group_) {
    if (gid >= groups_.size()) return false;
    if (gid != kNoGroup) ++refs[gid];
  }
  size_t live = 0;
  for (uint32_t gid = 0; gid < groups_.size(); ++gid) {
    const Meta& m = groups_[gid];
    if (m.refs != refs[gid]) return false;
    if (m.refs == 0) continue;
    if (gid != kNoGroup) ++live;
    if (m.offset + m.size > ports_.size()) return false;
    for (uint32_t i = 1; i < m.size; ++i) {
      if (ports_[m.offset + i - 1] >= ports_[m.offset + i]) return false;
    }
    if (m.hash != HashPorts(ports_.data() + m.offset, m.size)) return false;
    // Deduplication: the index must find exactly this gid.
    if (IndexFind(m.hash, ports_.data() + m.offset, m.size) != gid) {
      return false;
    }
  }
  return live == live_groups_;
}

}  // namespace hpcc::net
