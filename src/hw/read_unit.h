// Read unit: fetches node (or tile block) pairs from DRAM on behalf of the
// scheduler and streams them to the addressed join unit (§3.4.1, Fig. 5
// "send the node pair and join unit ID to the read unit"). Reads are issued
// back-to-back (the memory controller pipelines them); each join unit's
// payload carries the cycle its data lands so downstream timing stays
// faithful without blocking the read unit.
#ifndef SWIFTSPATIAL_HW_READ_UNIT_H_
#define SWIFTSPATIAL_HW_READ_UNIT_H_

#include <cstdint>
#include <vector>

#include "hw/config.h"
#include "hw/memory_layout.h"
#include "hw/messages.h"
#include "hw/sim/dram.h"
#include "hw/sim/fifo.h"
#include "hw/sim/simulator.h"

namespace swiftspatial::hw {

class ReadUnit {
 public:
  ReadUnit(sim::Simulator* sim, sim::Dram* dram, MemoryLayout* mem,
           const AcceleratorConfig* config, sim::Fifo<ReadCommand>* commands,
           std::vector<sim::Fifo<NodePairData>*> unit_outputs);

  /// The unit's process body; spawn on the simulator.
  sim::Process Run();

  uint64_t nodes_fetched() const { return nodes_fetched_; }

 private:
  // Functionally parses the packed node image (rtree/packed_rtree.h) of
  // `bytes` bytes at `addr` into entries/metadata, through the same
  // NodeView the CPU traversal reads.
  void ParseNode(uint64_t addr, uint32_t bytes,
                 std::vector<PackedEntry>* entries, bool* is_leaf);

  sim::Simulator* sim_;
  sim::Dram* dram_;
  MemoryLayout* mem_;
  const AcceleratorConfig* config_;
  sim::Fifo<ReadCommand>* commands_;
  std::vector<sim::Fifo<NodePairData>*> unit_outputs_;
  std::vector<uint8_t> node_image_;  // ParseNode's fetched stride
  uint64_t nodes_fetched_ = 0;
};

}  // namespace swiftspatial::hw

#endif  // SWIFTSPATIAL_HW_READ_UNIT_H_
