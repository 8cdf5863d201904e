// Interned ECMP next-hop groups: the routing table of one switch.
//
// The table is indexed by *route key*, not by destination node id: every
// single-homed host behind one switch shares that switch's key, so a
// fat-tree switch holds one slot per rack instead of one per host (the
// dst -> key map and last-hop delivery live in topo::Topology and
// SwitchNode::RoutePort). Within the table, almost every key behind the same
// pod still shares the same ECMP port set, so the table stores each distinct
// ordered port list once ("group") and maps key -> group id through a flat
// uint32_t array:
//
//   key_group_[key] --> groups_[gid] --> ports_[offset .. offset+size)
//
// Group 0 is the interned empty group ("no route"); a fresh table routes
// nothing. Candidate order inside a group is preserved exactly as handed to
// SetRoute (ascending port index, the order Topology's BFS emits), so ECMP
// hashing (`SplitMix64(flow) % size`) picks byte-identical ports to the dense
// per-destination table it replaced.
//
// Groups are reference-counted: SetRoute/AddPort/RemovePort re-intern and
// move the refs; dead groups go to a free list and their port storage is
// compacted once more than half of it is garbage. All mutations are
// deterministic functions of the call sequence, so two identical runs build
// identical tables. Lookup() is the forwarding hot path — two dependent loads
// past the key array; everything else is control-plane-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcc::net {

class NextHopTable {
 public:
  static constexpr uint32_t kNoGroup = 0;  // the interned empty group

  NextHopTable() { InitEmptyGroup(); }

  // Drops every route and group and resizes the key map; all keys route
  // nowhere until SetRoute is called.
  void Reset(uint32_t num_keys);

  // Interns `ports[0..count)` (must be strictly ascending) and points `key`
  // at the resulting group. count == 0 maps key back to the empty group.
  void SetRoute(uint32_t key, const uint16_t* ports, uint32_t count);

  // Incremental repair: inserts/removes one port from key's candidate list
  // (keeping ascending order) by re-interning the patched list.
  void AddPort(uint32_t key, uint16_t port);
  void RemovePort(uint32_t key, uint16_t port);

  // Hot path: the candidate port list for key. size == 0 means no route.
  struct Group {
    const uint16_t* ports;
    uint32_t size;
  };
  Group Lookup(uint32_t key) const {
    const Meta& m = groups_[key_group_[key]];
    return Group{ports_.data() + m.offset, m.size};
  }
  uint32_t group_id(uint32_t key) const { return key_group_[key]; }

  uint32_t num_keys() const { return static_cast<uint32_t>(key_group_.size()); }
  // Live (referenced) groups, excluding the always-present empty group.
  size_t num_groups() const { return live_groups_; }
  // Bytes resident in the table proper (key map + group metadata + port
  // storage + intern index). The figure the memory benchmarks report.
  size_t resident_bytes() const;

  // Copy of key's candidate list (tests and the route oracle).
  std::vector<uint16_t> PortsOf(uint32_t key) const;

  // Internal-invariant audit for tests: refcounts match key references,
  // groups are ascending and deduplicated. Returns false on corruption.
  bool CheckConsistency() const;

 private:
  struct Meta {
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t refs = 0;
    uint64_t hash = 0;
  };

  void InitEmptyGroup();
  uint32_t InternGroup(const uint16_t* ports, uint32_t count);
  void AssignGroup(uint32_t key, uint32_t gid);
  static uint64_t HashPorts(const uint16_t* ports, uint32_t count);
  bool GroupEquals(uint32_t gid, const uint16_t* ports, uint32_t count) const;
  void ReleaseGroup(uint32_t gid);
  void MaybeCompact();

  std::vector<uint32_t> key_group_;
  std::vector<uint16_t> ports_;      // group port storage, append-only
  std::vector<Meta> groups_;         // gid -> meta; slot 0 = empty group
  // Open-addressing intern index: hash -> gid chains, rebuilt on growth.
  std::vector<uint32_t> index_;      // power-of-two; kEmptySlot when free
  static constexpr uint32_t kEmptySlot = 0xffffffffu;
  std::vector<uint32_t> free_gids_;  // dead group slots for reuse
  uint32_t last_gid_ = kNoGroup;  // InternGroup's last result (or kNoGroup)
  size_t live_groups_ = 0;
  size_t dead_port_slots_ = 0;
  size_t index_used_ = 0;

  void IndexInsert(uint32_t gid);
  void IndexErase(uint32_t gid);
  uint32_t IndexFind(uint64_t hash, const uint16_t* ports,
                     uint32_t count) const;
  void IndexGrow();
  std::vector<uint16_t> scratch_;    // patch buffer for Add/RemovePort
};

}  // namespace hpcc::net
