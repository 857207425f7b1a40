#include "hw/accelerator.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "hw/join_unit.h"
#include "hw/memory_layout.h"
#include "hw/messages.h"
#include "hw/read_unit.h"
#include "hw/sim/fifo.h"
#include "hw/sim/simulator.h"
#include "hw/task_queue_manager.h"
#include "hw/write_unit.h"

namespace swiftspatial::hw {

namespace {

// All channels and function units of one device instance. Groups ownership
// so both Run* entry points share the assembly/teardown logic.
struct Fabric {
  sim::Simulator sim;
  std::unique_ptr<sim::Dram> dram;
  MemoryLayout mem;

  std::unique_ptr<sim::Fifo<ReadCommand>> read_commands;
  std::vector<std::unique_ptr<sim::Fifo<NodePairData>>> unit_inputs;
  std::unique_ptr<sim::Fifo<TaskStreamItem>> task_stream;
  std::unique_ptr<sim::Fifo<ResultStreamItem>> result_stream;
  std::unique_ptr<sim::Fifo<TaskFetchRequest>> fetch_requests;
  std::unique_ptr<sim::Fifo<TaskFetchResponse>> fetch_responses;
  std::unique_ptr<sim::Fifo<SyncResponse>> tqm_sync;
  std::unique_ptr<sim::Fifo<SyncResponse>> write_sync;
  std::unique_ptr<sim::Fifo<DoneToken>> done;

  std::unique_ptr<ReadUnit> read_unit;
  std::vector<std::unique_ptr<JoinUnit>> join_units;
  std::unique_ptr<TaskQueueManager> tqm;
  std::unique_ptr<WriteUnit> write_unit;

  explicit Fabric(const AcceleratorConfig& config) {
    dram = std::make_unique<sim::Dram>(&sim, config.dram);
    read_commands = std::make_unique<sim::Fifo<ReadCommand>>(
        &sim, config.command_queue_depth, "read_cmds");
    for (int u = 0; u < config.num_join_units; ++u) {
      unit_inputs.push_back(std::make_unique<sim::Fifo<NodePairData>>(
          &sim, config.unit_queue_depth, "unit_in"));
    }
    task_stream = std::make_unique<sim::Fifo<TaskStreamItem>>(
        &sim, config.stream_fifo_depth, "task_stream");
    result_stream = std::make_unique<sim::Fifo<ResultStreamItem>>(
        &sim, config.stream_fifo_depth, "result_stream");
    fetch_requests =
        std::make_unique<sim::Fifo<TaskFetchRequest>>(&sim, 1, "fetch_req");
    fetch_responses =
        std::make_unique<sim::Fifo<TaskFetchResponse>>(&sim, 1, "fetch_resp");
    tqm_sync = std::make_unique<sim::Fifo<SyncResponse>>(&sim, 1, "tqm_sync");
    write_sync =
        std::make_unique<sim::Fifo<SyncResponse>>(&sim, 1, "write_sync");
    done = std::make_unique<sim::Fifo<DoneToken>>(
        &sim, sim::Fifo<DoneToken>::kUnbounded, "done");
  }

  // Builds the units shared by both control flows. `results_base` is the
  // write unit's self-incrementing counter start; `sink` (nullable) observes
  // the write unit's result bursts.
  void BuildUnits(const AcceleratorConfig& config, uint64_t results_base,
                  const ResultSink* sink) {
    std::vector<sim::Fifo<NodePairData>*> inputs;
    for (auto& f : unit_inputs) inputs.push_back(f.get());
    read_unit = std::make_unique<ReadUnit>(&sim, dram.get(), &mem, &config,
                                           read_commands.get(), inputs);
    for (int u = 0; u < config.num_join_units; ++u) {
      join_units.push_back(std::make_unique<JoinUnit>(
          u, &sim, &config, unit_inputs[u].get(), task_stream.get(),
          result_stream.get(), done.get()));
    }
    tqm = std::make_unique<TaskQueueManager>(
        &sim, dram.get(), &mem, &config, task_stream.get(), tqm_sync.get(),
        fetch_requests.get(), fetch_responses.get());
    write_unit = std::make_unique<WriteUnit>(&sim, dram.get(), &mem, &config,
                                             results_base,
                                             result_stream.get(),
                                             write_sync.get(), sink);
  }

  SchedulerPorts Ports() {
    SchedulerPorts p;
    p.read_commands = read_commands.get();
    p.fetch_requests = fetch_requests.get();
    p.fetch_responses = fetch_responses.get();
    p.task_stream = task_stream.get();
    p.result_stream = result_stream.get();
    p.tqm_sync = tqm_sync.get();
    p.write_sync = write_sync.get();
    p.done = done.get();
    return p;
  }
};

// Collects counters common to both control flows into the report.
void FillReport(const AcceleratorConfig& config, Fabric& fabric,
                uint64_t total_results, const std::vector<LevelTrace>& levels,
                uint64_t results_base, JoinResult* result,
                AcceleratorReport* report) {
  report->kernel_cycles = fabric.sim.now();
  report->kernel_seconds = config.SecondsFor(report->kernel_cycles);
  report->num_results = total_results;
  report->levels = levels;

  for (const auto& ju : fabric.join_units) {
    report->stats.tasks += ju->tasks_joined();
    report->stats.predicate_evaluations += ju->predicate_evaluations();
    report->stats.intermediate_pairs += ju->intermediate_pairs();
    report->unit_busy_cycles.push_back(ju->busy_cycles());
    report->unit_tasks.push_back(ju->tasks_joined());
  }
  report->dram = fabric.dram->stats();
  report->dram_utilization = fabric.dram->Utilization();
  report->device_bytes_used = fabric.mem.TotalBytes();

  report->bytes_from_device = total_results * sizeof(ResultPair);
  report->host_transfer_seconds =
      config.PcieSeconds(report->bytes_to_device + report->bytes_from_device);
  report->launch_seconds = config.kernel_launch_seconds;
  report->total_seconds = report->kernel_seconds +
                          report->host_transfer_seconds +
                          report->launch_seconds;

  if (result != nullptr) {
    result->mutable_pairs().resize(total_results);
    if (total_results > 0) {
      fabric.mem.Read(results_base, result->mutable_pairs().data(),
                      total_results * sizeof(ResultPair));
    }
  }
}

}  // namespace

uint64_t PbsmDeviceImageBytes(const HierarchicalPartition& partition) {
  // The same arithmetic RunPbsm's serialisation below performs: tile
  // populations chunked to at most tile_cap per side, block strides padded
  // to the node layout, one descriptor per block cross product.
  const std::size_t cap =
      static_cast<std::size_t>(std::max(1, partition.tile_cap));
  uint64_t r_blocks = 0, s_blocks = 0, descs = 0;
  std::size_t max_r = 1, max_s = 1;
  for (const TileTask& task : partition.tasks) {
    const uint64_t nr = (task.r_objects.size() + cap - 1) / cap;
    const uint64_t ns = (task.s_objects.size() + cap - 1) / cap;
    r_blocks += nr;
    s_blocks += ns;
    descs += nr * ns;
    max_r = std::max(max_r, std::min(cap, task.r_objects.size()));
    max_s = std::max(max_s, std::min(cap, task.s_objects.size()));
  }
  return r_blocks * PackedRTree::StrideFor(static_cast<int>(max_r)) +
         s_blocks * PackedRTree::StrideFor(static_cast<int>(max_s)) +
         descs * sizeof(PbsmTaskDesc);
}

double AcceleratorReport::AvgUnitUtilization() const {
  if (unit_busy_cycles.empty() || kernel_cycles == 0) return 0.0;
  double sum = 0;
  for (const uint64_t busy : unit_busy_cycles) {
    sum += static_cast<double>(busy) / kernel_cycles;
  }
  return sum / unit_busy_cycles.size();
}

Accelerator::Accelerator(const AcceleratorConfig& config) : config_(config) {
  SWIFT_CHECK_GE(config_.num_join_units, 1);
}

AcceleratorReport Accelerator::RunSyncTraversal(const PackedRTree& r,
                                                const PackedRTree& s,
                                                JoinResult* result,
                                                const ResultSink* sink) {
  Fabric fabric(config_);
  AcceleratorReport report;

  // Device memory image: both trees, ping/pong task queues, result buffer.
  const uint64_t r_base = fabric.mem.AddRegion("tree_r", r.bytes());
  const uint64_t s_base = fabric.mem.AddRegion("tree_s", s.bytes());
  const uint64_t task_a = fabric.mem.AddRegion("task_queue_a");
  const uint64_t task_b = fabric.mem.AddRegion("task_queue_b");
  const uint64_t results_base = fabric.mem.AddRegion("results");
  report.bytes_to_device = r.bytes().size() + s.bytes().size();

  fabric.BuildUnits(config_, results_base, sink);

  TreeRef r_ref{r_base, static_cast<uint32_t>(r.node_stride()), r.root()};
  TreeRef s_ref{s_base, static_cast<uint32_t>(s.node_stride()), s.root()};
  SyncTraversalScheduler scheduler(&fabric.sim, &config_, fabric.Ports(),
                                   r_ref, s_ref, task_a, task_b);

  fabric.sim.Spawn(fabric.read_unit->Run());
  for (auto& ju : fabric.join_units) fabric.sim.Spawn(ju->Run());
  fabric.sim.Spawn(fabric.tqm->RunWriter());
  fabric.sim.Spawn(fabric.tqm->RunReader());
  fabric.sim.Spawn(fabric.write_unit->Run());
  fabric.sim.Spawn(scheduler.Run());
  fabric.sim.Run();

  FillReport(config_, fabric, scheduler.total_results(), scheduler.levels(),
             results_base, result, &report);
  return report;
}

AcceleratorReport Accelerator::RunPbsm(const Dataset& r, const Dataset& s,
                                       const HierarchicalPartition& partition,
                                       JoinResult* result,
                                       const ResultSink* sink) {
  SWIFT_CHECK_GT(partition.tile_cap, 0)
      << "partition must be built by PartitionHierarchical";
  Fabric fabric(config_);
  AcceleratorReport report;

  // --- Host-side serialisation of tile blocks and the task table. ---
  // Over-cap tiles are split into chunks of at most tile_cap objects per
  // side; the cross product of chunk pairs preserves the join (the
  // reference-point rule keeps deduplication correct since the tile box is
  // unchanged).
  const std::size_t cap = static_cast<std::size_t>(partition.tile_cap);
  struct Block {
    std::vector<PackedEntry> entries;
  };
  std::vector<Block> r_blocks, s_blocks;
  std::vector<PbsmTaskDesc> descs;

  auto make_chunks = [cap](const std::vector<ObjectId>& ids,
                           const Dataset& data, std::vector<Block>* out) {
    std::vector<int32_t> indices;
    for (std::size_t begin = 0; begin < ids.size(); begin += cap) {
      const std::size_t end = std::min(begin + cap, ids.size());
      Block block;
      for (std::size_t i = begin; i < end; ++i) {
        block.entries.push_back(
            {data.box(static_cast<std::size_t>(ids[i])), ids[i]});
      }
      indices.push_back(static_cast<int32_t>(out->size()));
      out->push_back(std::move(block));
    }
    return indices;
  };

  std::size_t max_r = 1, max_s = 1;
  for (const TileTask& task : partition.tasks) {
    const auto r_idx = make_chunks(task.r_objects, r, &r_blocks);
    const auto s_idx = make_chunks(task.s_objects, s, &s_blocks);
    for (const int32_t ri : r_idx) {
      max_r = std::max(max_r, r_blocks[ri].entries.size());
      for (const int32_t si : s_idx) {
        max_s = std::max(max_s, s_blocks[si].entries.size());
        descs.push_back(PbsmTaskDesc{ri, si, task.tile});
      }
    }
  }

  const int r_cap = static_cast<int>(max_r);
  const int s_cap = static_cast<int>(max_s);
  const auto r_stride = static_cast<uint32_t>(PackedRTree::StrideFor(r_cap));
  const auto s_stride = static_cast<uint32_t>(PackedRTree::StrideFor(s_cap));

  auto serialize_blocks = [](const std::vector<Block>& blocks, int capacity) {
    const std::size_t stride = PackedRTree::StrideFor(capacity);
    std::vector<uint8_t> bytes(blocks.size() * stride, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      // Tile blocks behave as leaves.
      PackedRTree::WriteNode(bytes.data() + b * stride, capacity,
                             /*is_leaf=*/true, blocks[b].entries);
    }
    return bytes;
  };
  std::vector<uint8_t> table_bytes(descs.size() * sizeof(PbsmTaskDesc));
  if (!descs.empty()) {
    std::memcpy(table_bytes.data(), descs.data(), table_bytes.size());
  }

  const uint64_t r_base =
      fabric.mem.AddRegion("tiles_r", serialize_blocks(r_blocks, r_cap));
  const uint64_t s_base =
      fabric.mem.AddRegion("tiles_s", serialize_blocks(s_blocks, s_cap));
  const uint64_t table_base =
      fabric.mem.AddRegion("task_table", std::move(table_bytes));
  const uint64_t results_base = fabric.mem.AddRegion("results");
  report.bytes_to_device = fabric.mem.TotalBytes();

  fabric.BuildUnits(config_, results_base, sink);

  TreeRef r_ref{r_base, r_stride, 0};
  TreeRef s_ref{s_base, s_stride, 0};
  PbsmScheduler scheduler(&fabric.sim, &config_, fabric.Ports(), r_ref, s_ref,
                          table_base, descs.size());

  fabric.sim.Spawn(fabric.read_unit->Run());
  for (auto& ju : fabric.join_units) fabric.sim.Spawn(ju->Run());
  // PBSM produces no intermediate tasks: the TQM writer is not spawned
  // (nothing pushes to the task stream), only the reader serving the
  // scheduler's task-table fetches.
  fabric.sim.Spawn(fabric.tqm->RunReader());
  fabric.sim.Spawn(fabric.write_unit->Run());
  fabric.sim.Spawn(scheduler.Run());
  fabric.sim.Run();

  FillReport(config_, fabric, scheduler.total_results(), scheduler.levels(),
             results_base, result, &report);
  return report;
}

}  // namespace swiftspatial::hw
