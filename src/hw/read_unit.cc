#include "hw/read_unit.h"

#include <algorithm>
#include <utility>

namespace swiftspatial::hw {

ReadUnit::ReadUnit(sim::Simulator* sim, sim::Dram* dram, MemoryLayout* mem,
                   const AcceleratorConfig* config,
                   sim::Fifo<ReadCommand>* commands,
                   std::vector<sim::Fifo<NodePairData>*> unit_outputs)
    : sim_(sim),
      dram_(dram),
      mem_(mem),
      config_(config),
      commands_(commands),
      unit_outputs_(std::move(unit_outputs)) {}

void ReadUnit::ParseNode(uint64_t addr, uint32_t bytes,
                         std::vector<PackedEntry>* entries, bool* is_leaf) {
  // The fetched stride is viewed in place, exactly as the CPU reads a node.
  node_image_.resize(bytes);
  mem_->Read(addr, node_image_.data(), bytes);
  const NodeView node(node_image_.data());
  *is_leaf = node.is_leaf();
  entries->resize(node.count());
  for (int i = 0; i < node.count(); ++i) (*entries)[i] = node.entry(i);
}

sim::Process ReadUnit::Run() {
  for (;;) {
    ReadCommand cmd = co_await commands_->Pop();
    if (cmd.kind == ReadCommand::Kind::kFinish) {
      for (auto* out : unit_outputs_) {
        NodePairData fin;
        fin.finish = true;
        co_await out->Push(std::move(fin));
      }
      co_return;
    }

    // Command decode / issue overhead.
    co_await sim_->Delay(config_->read_issue_cycles);

    // Both node reads go out back to back; the pair is usable when the
    // later one lands.
    const sim::Cycle r_done = dram_->Issue(cmd.r_addr, cmd.r_bytes, false);
    const sim::Cycle s_done = dram_->Issue(cmd.s_addr, cmd.s_bytes, false);
    nodes_fetched_ += 2;

    NodePairData data;
    data.ready_at = std::max(r_done, s_done);
    data.r_index = cmd.r_index;
    data.s_index = cmd.s_index;
    data.pbsm = cmd.pbsm;
    data.tile = cmd.tile;
    ParseNode(cmd.r_addr, cmd.r_bytes, &data.r_entries, &data.r_leaf);
    ParseNode(cmd.s_addr, cmd.s_bytes, &data.s_entries, &data.s_leaf);
    co_await unit_outputs_[cmd.unit]->Push(std::move(data));
  }
}

}  // namespace swiftspatial::hw
