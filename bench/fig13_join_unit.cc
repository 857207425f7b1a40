// Figure 13: single join unit microbenchmark. A one-unit fabric (read unit
// + join unit + write unit) is fed R-tree node pairs of varying sizes from
// random DRAM locations; we report total cycles per node-pair join and the
// normalised cycles per predicate evaluation.
//
// Paper findings to reproduce: joins of small nodes (<= 4 entries) are
// bound by random DRAM fetches; for node sizes 8..64 the unit sustains
// 1.02..1.30 cycles per predicate -- near the 1/cycle pipeline ideal.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "hw/config.h"
#include "hw/join_unit.h"
#include "hw/memory_layout.h"
#include "hw/read_unit.h"
#include "hw/sim/fifo.h"
#include "hw/write_unit.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial::bench {
namespace {

using hw::sim::Cycle;

// Serialises `count` random leaf nodes of `node_size` entries each into a
// region image with the standard packed layout.
std::vector<uint8_t> MakeNodeStore(int node_size, int count, uint64_t seed) {
  const std::size_t stride = PackedRTree::StrideFor(node_size);
  std::vector<uint8_t> bytes(stride * count, 0);
  Rng rng(seed);
  std::vector<PackedEntry> entries(static_cast<std::size_t>(node_size));
  for (int n = 0; n < count; ++n) {
    for (int e = 0; e < node_size; ++e) {
      const Coord x = static_cast<Coord>(rng.Uniform(0, 1000));
      const Coord y = static_cast<Coord>(rng.Uniform(0, 1000));
      entries[e] = {Box(x, y, x + 5, y + 5), n * 1000 + e};
    }
    PackedRTree::WriteNode(bytes.data() + n * stride, node_size,
                           /*is_leaf=*/true, entries);
  }
  return bytes;
}

struct MicroResult {
  Cycle total_cycles;
  double cycles_per_join;
  double cycles_per_predicate;
};

MicroResult RunMicro(int node_size, int num_pairs) {
  hw::AcceleratorConfig config;
  config.num_join_units = 1;

  hw::sim::Simulator sim;
  hw::sim::Dram dram(&sim, config.dram);
  hw::MemoryLayout mem;
  const int store_nodes = 2 * num_pairs;
  const uint64_t base = mem.AddRegion(
      "nodes", MakeNodeStore(node_size, store_nodes, 42 + node_size));
  const uint64_t results_base = mem.AddRegion("results");
  const uint32_t stride =
      static_cast<uint32_t>(PackedRTree::StrideFor(node_size));

  hw::sim::Fifo<hw::ReadCommand> commands(&sim, config.command_queue_depth);
  hw::sim::Fifo<hw::NodePairData> unit_in(&sim, config.unit_queue_depth);
  hw::sim::Fifo<hw::TaskStreamItem> tasks(
      &sim, hw::sim::Fifo<hw::TaskStreamItem>::kUnbounded);
  hw::sim::Fifo<hw::ResultStreamItem> results(&sim, config.stream_fifo_depth);
  hw::sim::Fifo<hw::SyncResponse> wsync(&sim, 1);
  hw::sim::Fifo<hw::DoneToken> done(&sim,
                                    hw::sim::Fifo<hw::DoneToken>::kUnbounded);

  hw::ReadUnit read_unit(&sim, &dram, &mem, &config, &commands, {&unit_in});
  hw::JoinUnit join_unit(0, &sim, &config, &unit_in, &tasks, &results, &done);
  hw::WriteUnit write_unit(&sim, &dram, &mem, &config, results_base, &results,
                           &wsync);

  // Driver: dispatch `num_pairs` random node pairs, await completions, shut
  // down -- the role the on-chip scheduler plays in the full device.
  struct Driver {
    hw::sim::Simulator* sim;
    hw::sim::Fifo<hw::ReadCommand>* commands;
    hw::sim::Fifo<hw::DoneToken>* done;
    hw::sim::Fifo<hw::ResultStreamItem>* results;
    hw::sim::Fifo<hw::SyncResponse>* wsync;
    uint64_t base;
    uint32_t stride;
    int store_nodes;
    int num_pairs;

    hw::sim::Process Run() {
      Rng rng(7);
      for (int i = 0; i < num_pairs; ++i) {
        hw::ReadCommand cmd;
        cmd.unit = 0;
        const int32_t a =
            static_cast<int32_t>(rng.NextBelow(store_nodes));
        const int32_t b =
            static_cast<int32_t>(rng.NextBelow(store_nodes));
        cmd.r_index = a;
        cmd.s_index = b;
        cmd.r_addr = base + static_cast<uint64_t>(a) * stride;
        cmd.s_addr = base + static_cast<uint64_t>(b) * stride;
        cmd.r_bytes = stride;
        cmd.s_bytes = stride;
        co_await commands->Push(std::move(cmd));
      }
      for (int i = 0; i < num_pairs; ++i) {
        (void)co_await done->Pop();
      }
      hw::ResultStreamItem rsync;
      rsync.kind = hw::ResultStreamItem::Kind::kSync;
      co_await results->Push(std::move(rsync));
      (void)co_await wsync->Pop();

      hw::ReadCommand fin;
      fin.kind = hw::ReadCommand::Kind::kFinish;
      co_await commands->Push(std::move(fin));
      hw::ResultStreamItem rfin;
      rfin.kind = hw::ResultStreamItem::Kind::kFinish;
      co_await results->Push(std::move(rfin));
    }
  };
  Driver driver{&sim,    &commands,   &done,      &results, &wsync,
                base,    stride,      store_nodes, num_pairs};

  sim.Spawn(read_unit.Run());
  sim.Spawn(join_unit.Run());
  sim.Spawn(write_unit.Run());
  sim.Spawn(driver.Run());
  const Cycle total = sim.Run();

  MicroResult out;
  out.total_cycles = total;
  out.cycles_per_join = static_cast<double>(total) / num_pairs;
  out.cycles_per_predicate =
      out.cycles_per_join / (static_cast<double>(node_size) * node_size);
  return out;
}

int Main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Parse(argc, argv, /*default_scale=*/2000);
  const int num_pairs = static_cast<int>(env.scales.front());
  std::printf(
      "Figure 13 reproduction: single join unit microbenchmark "
      "(%d node pairs per size)\n",
      num_pairs);
  TablePrinter table(
      "Fig. 13 -- cycles per node-pair join and per predicate evaluation",
      {"node_size", "cycles_per_join", "cycles_per_predicate"});
  JsonReporter json("fig13_join_unit", env);
  for (const int node_size : {2, 4, 8, 16, 32, 64}) {
    const MicroResult r = RunMicro(node_size, num_pairs);
    table.AddRow({std::to_string(node_size),
                  TablePrinter::Fmt(r.cycles_per_join, 1),
                  TablePrinter::Fmt(r.cycles_per_predicate, 2)});
    json.AddRow("node" + std::to_string(node_size),
                {{"cycles_per_join", r.cycles_per_join},
                 {"cycles_per_predicate", r.cycles_per_predicate},
                 {"total_cycles", static_cast<double>(r.total_cycles)}});
  }
  table.Print();
  std::printf(
      "Expected shape: tiny nodes (<=4) dominated by random DRAM fetches; "
      "sizes 8..64 approach ~1 cycle/predicate (paper: 1.02-1.30).\n");
  if (!json.WriteIfRequested()) return 1;
  return 0;
}

}  // namespace
}  // namespace swiftspatial::bench

int main(int argc, char** argv) { return swiftspatial::bench::Main(argc, argv); }
