// Unit tests for the memory-path function units: read unit, task queue
// manager (writer + reader), and result write unit, driven directly through
// their FIFOs (the same harness style as join_unit_test).
#include <gtest/gtest.h>


#include "hw/config.h"
#include "hw/memory_layout.h"
#include "hw/messages.h"
#include "hw/read_unit.h"
#include "hw/sim/fifo.h"
#include "hw/task_queue_manager.h"
#include "hw/write_unit.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial::hw {
namespace {

// Serialises one node image.
std::vector<uint8_t> OneNode(int count, bool leaf, int max_entries) {
  std::vector<uint8_t> bytes(PackedRTree::StrideFor(max_entries), 0);
  std::vector<PackedEntry> entries;
  for (int i = 0; i < count; ++i) {
    entries.push_back({Box(static_cast<Coord>(i), 0,
                           static_cast<Coord>(i + 1), 1),
                       100 + i});
  }
  PackedRTree::WriteNode(bytes.data(), max_entries, leaf, entries);
  return bytes;
}

TEST(ReadUnitTest, FetchesParsesAndRoutes) {
  AcceleratorConfig config;
  config.num_join_units = 2;
  sim::Simulator simulator;
  sim::Dram dram(&simulator, config.dram);
  MemoryLayout mem;
  const uint64_t base = mem.AddRegion("nodes", OneNode(5, true, 8));
  const uint32_t stride = static_cast<uint32_t>(PackedRTree::StrideFor(8));

  sim::Fifo<ReadCommand> commands(&simulator, 4);
  sim::Fifo<NodePairData> unit0(&simulator, 4), unit1(&simulator, 4);
  ReadUnit read_unit(&simulator, &dram, &mem, &config, &commands,
                     {&unit0, &unit1});

  auto driver = [](sim::Fifo<ReadCommand>* cmds, uint64_t addr,
                   uint32_t bytes) -> sim::Process {
    ReadCommand cmd;
    cmd.unit = 1;  // route to the second unit
    cmd.r_index = 0;
    cmd.s_index = 0;
    cmd.r_addr = addr;
    cmd.s_addr = addr;
    cmd.r_bytes = bytes;
    cmd.s_bytes = bytes;
    co_await cmds->Push(std::move(cmd));
    ReadCommand fin;
    fin.kind = ReadCommand::Kind::kFinish;
    co_await cmds->Push(std::move(fin));
  };
  simulator.Spawn(read_unit.Run());
  simulator.Spawn(driver(&commands, base, stride));
  simulator.Run();

  // Unit 1 received the parsed pair plus the finish broadcast; unit 0 only
  // the finish.
  ASSERT_EQ(unit1.size(), 2u);
  NodePairData d;
  ASSERT_TRUE(unit1.TryPop(&d));
  EXPECT_FALSE(d.finish);
  EXPECT_TRUE(d.r_leaf);
  ASSERT_EQ(d.r_entries.size(), 5u);
  EXPECT_EQ(d.r_entries[3].id, 103);
  EXPECT_EQ(d.r_entries[3].box, Box(3, 0, 4, 1));
  EXPECT_GT(d.ready_at, 0u);  // DRAM latency charged
  ASSERT_TRUE(unit1.TryPop(&d));
  EXPECT_TRUE(d.finish);
  ASSERT_EQ(unit0.size(), 1u);
  ASSERT_TRUE(unit0.TryPop(&d));
  EXPECT_TRUE(d.finish);
  EXPECT_EQ(read_unit.nodes_fetched(), 2u);
}

struct TqmHarness {
  AcceleratorConfig config;
  sim::Simulator simulator;
  sim::Dram dram{&simulator, config.dram};
  MemoryLayout mem;
  sim::Fifo<TaskStreamItem> stream{&simulator, 16};
  sim::Fifo<SyncResponse> sync{&simulator, 1};
  sim::Fifo<TaskFetchRequest> fetch_req{&simulator, 1};
  sim::Fifo<TaskFetchResponse> fetch_resp{&simulator, 1};
  TaskQueueManager tqm{&simulator, &dram,      &mem,       &config,
                       &stream,    &sync,      &fetch_req, &fetch_resp};
};

TEST(TaskQueueManagerTest, WriterPersistsBurstsAndCounts) {
  TqmHarness h;
  const uint64_t region = h.mem.AddRegion("tasks");

  auto driver = [](TqmHarness* t, uint64_t base,
                   SyncResponse* out) -> sim::Process {
    TaskStreamItem start;
    start.kind = TaskStreamItem::Kind::kLevelStart;
    start.write_base = base;
    co_await t->stream.Push(std::move(start));

    TaskStreamItem burst;
    burst.kind = TaskStreamItem::Kind::kBurst;
    burst.tasks = {{1, 2}, {3, 4}, {5, 6}};
    co_await t->stream.Push(std::move(burst));
    TaskStreamItem burst2;
    burst2.kind = TaskStreamItem::Kind::kBurst;
    burst2.tasks = {{7, 8}};
    co_await t->stream.Push(std::move(burst2));

    TaskStreamItem sync;
    sync.kind = TaskStreamItem::Kind::kSync;
    co_await t->stream.Push(std::move(sync));
    *out = co_await t->sync.Pop();

    TaskStreamItem fin;
    fin.kind = TaskStreamItem::Kind::kFinish;
    co_await t->stream.Push(std::move(fin));
  };
  SyncResponse resp;
  h.simulator.Spawn(h.tqm.RunWriter());
  h.simulator.Spawn(driver(&h, region, &resp));
  h.simulator.Run();

  EXPECT_EQ(resp.pairs_written, 4u);
  EXPECT_EQ(h.tqm.bursts_written(), 2u);
  // The bytes really landed, in order.
  NodePairTask t3;
  h.mem.Read(region + 3 * sizeof(NodePairTask), &t3, sizeof(t3));
  EXPECT_EQ(t3.r, 7);
  EXPECT_EQ(t3.s, 8);
  EXPECT_GT(h.dram.stats().bytes_written, 0u);
}

TEST(TaskQueueManagerTest, LevelStartResetsCursorAndCount) {
  TqmHarness h;
  const uint64_t region_a = h.mem.AddRegion("a");
  const uint64_t region_b = h.mem.AddRegion("b");

  auto driver = [](TqmHarness* t, uint64_t a, uint64_t b,
                   SyncResponse* first, SyncResponse* second) -> sim::Process {
    for (const auto& [base, tasks, out] :
         {std::tuple{a, 2, first}, std::tuple{b, 1, second}}) {
      TaskStreamItem start;
      start.kind = TaskStreamItem::Kind::kLevelStart;
      start.write_base = base;
      co_await t->stream.Push(std::move(start));
      TaskStreamItem burst;
      burst.kind = TaskStreamItem::Kind::kBurst;
      for (int i = 0; i < tasks; ++i) burst.tasks.push_back({i, i});
      co_await t->stream.Push(std::move(burst));
      TaskStreamItem sync;
      sync.kind = TaskStreamItem::Kind::kSync;
      co_await t->stream.Push(std::move(sync));
      *out = co_await t->sync.Pop();
    }
    TaskStreamItem fin;
    fin.kind = TaskStreamItem::Kind::kFinish;
    co_await t->stream.Push(std::move(fin));
  };
  SyncResponse first, second;
  h.simulator.Spawn(h.tqm.RunWriter());
  h.simulator.Spawn(driver(&h, region_a, region_b, &first, &second));
  h.simulator.Run();

  EXPECT_EQ(first.pairs_written, 2u);
  EXPECT_EQ(second.pairs_written, 1u);  // reset by the second level start
  EXPECT_EQ(h.mem.RegionSize(region_a), 2 * sizeof(NodePairTask));
  EXPECT_EQ(h.mem.RegionSize(region_b), 1 * sizeof(NodePairTask));
}

TEST(TaskQueueManagerTest, ReaderReturnsBytesWithTiming) {
  TqmHarness h;
  std::vector<uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  const uint64_t region = h.mem.AddRegion("queue", payload);

  auto driver = [](TqmHarness* t, uint64_t addr,
                   TaskFetchResponse* out) -> sim::Process {
    TaskFetchRequest req;
    req.addr = addr + 8;
    req.bytes = 16;
    co_await t->fetch_req.Push(std::move(req));
    *out = co_await t->fetch_resp.Pop();
    TaskFetchRequest fin;
    fin.kind = TaskFetchRequest::Kind::kFinish;
    co_await t->fetch_req.Push(std::move(fin));
  };
  TaskFetchResponse resp;
  h.simulator.Spawn(h.tqm.RunReader());
  h.simulator.Spawn(driver(&h, region, &resp));
  h.simulator.Run();

  ASSERT_EQ(resp.bytes.size(), 16u);
  EXPECT_EQ(resp.bytes[0], 8);
  EXPECT_EQ(resp.bytes[15], 23);
  EXPECT_GT(resp.ready_at, 0u);
}

TEST(WriteUnitTest, SelfIncrementingCursorAndSync) {
  AcceleratorConfig config;
  sim::Simulator simulator;
  sim::Dram dram(&simulator, config.dram);
  MemoryLayout mem;
  const uint64_t results = mem.AddRegion("results");
  sim::Fifo<ResultStreamItem> stream(&simulator, 8);
  sim::Fifo<SyncResponse> sync(&simulator, 1);
  WriteUnit unit(&simulator, &dram, &mem, &config, results, &stream, &sync);

  auto driver = [](sim::Fifo<ResultStreamItem>* s,
                   sim::Fifo<SyncResponse>* y,
                   SyncResponse* out) -> sim::Process {
    for (int b = 0; b < 3; ++b) {
      ResultStreamItem burst;
      burst.kind = ResultStreamItem::Kind::kBurst;
      for (int i = 0; i < 4; ++i) burst.pairs.push_back({b, i});
      co_await s->Push(std::move(burst));
    }
    ResultStreamItem rsync;
    rsync.kind = ResultStreamItem::Kind::kSync;
    co_await s->Push(std::move(rsync));
    *out = co_await y->Pop();
    ResultStreamItem fin;
    fin.kind = ResultStreamItem::Kind::kFinish;
    co_await s->Push(std::move(fin));
  };
  SyncResponse resp;
  simulator.Spawn(unit.Run());
  simulator.Spawn(driver(&stream, &sync, &resp));
  simulator.Run();

  EXPECT_EQ(resp.pairs_written, 12u);
  EXPECT_EQ(unit.bursts_written(), 3u);
  EXPECT_EQ(mem.RegionSize(results), 12 * sizeof(ResultPair));
  // Bursts landed back to back: pair 5 is {1, 1}.
  ResultPair p;
  mem.Read(results + 5 * sizeof(ResultPair), &p, sizeof(p));
  EXPECT_EQ(p.r, 1);
  EXPECT_EQ(p.s, 1);
}

}  // namespace
}  // namespace swiftspatial::hw
