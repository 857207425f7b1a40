#include "join/engine_baselines.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "grid/uniform_grid.h"
#include "rtree/bulk_load.h"
#include "rtree/packed_rtree.h"

namespace swiftspatial {

namespace {

// ---------------------------------------------------------------------------
// PostGIS-like machinery: generic serialized tuples + interpreted predicates.
// ---------------------------------------------------------------------------

// Row format: int32 id | float min_x | float min_y | float max_x | float max_y
constexpr std::size_t kRowBytes = sizeof(int32_t) + 4 * sizeof(float);

// A column-agnostic row store holding serialized tuples back to back.
class RowStore {
 public:
  explicit RowStore(const Dataset& d) {
    bytes_.resize(d.size() * kRowBytes);
    for (std::size_t i = 0; i < d.size(); ++i) {
      uint8_t* p = bytes_.data() + i * kRowBytes;
      const int32_t id = static_cast<int32_t>(i);
      std::memcpy(p, &id, sizeof(id));
      const Box& b = d.box(i);
      std::memcpy(p + 4, &b, sizeof(Box));
    }
  }
  const uint8_t* row(std::size_t i) const {
    return bytes_.data() + i * kRowBytes;
  }

 private:
  std::vector<uint8_t> bytes_;
};

// Field extraction "deserialises" on every access, as a generic executor
// reading from a heap tuple would.
float LoadField(const uint8_t* row, int field) {
  float v;
  std::memcpy(&v, row + 4 + field * sizeof(float), sizeof(v));
  return v;
}
int32_t LoadId(const uint8_t* row) {
  int32_t v;
  std::memcpy(&v, row, sizeof(v));
  return v;
}

// Interpreted boolean expression over a pair of rows.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual bool Eval(const uint8_t* r, const uint8_t* s) const = 0;
};

// field_r on the left row >= field_s on the right row (or swapped).
class GeCompare : public Expr {
 public:
  GeCompare(bool left_is_r, int left_field, int right_field)
      : left_is_r_(left_is_r),
        left_field_(left_field),
        right_field_(right_field) {}
  bool Eval(const uint8_t* r, const uint8_t* s) const override {
    const uint8_t* left = left_is_r_ ? r : s;
    const uint8_t* right = left_is_r_ ? s : r;
    return LoadField(left, left_field_) >= LoadField(right, right_field_);
  }

 private:
  bool left_is_r_;
  int left_field_;
  int right_field_;
};

class AndExpr : public Expr {
 public:
  void Add(std::unique_ptr<Expr> child) { children_.push_back(std::move(child)); }
  bool Eval(const uint8_t* r, const uint8_t* s) const override {
    for (const auto& c : children_) {
      if (!c->Eval(r, s)) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<Expr>> children_;
};

// Builds the ST_Intersects-on-MBR expression:
//   r.max_x >= s.min_x AND s.max_x >= r.min_x AND
//   r.max_y >= s.min_y AND s.max_y >= r.min_y
// Field order: 0 = min_x, 1 = min_y, 2 = max_x, 3 = max_y.
std::unique_ptr<Expr> BuildIntersectsExpr() {
  auto root = std::make_unique<AndExpr>();
  root->Add(std::make_unique<GeCompare>(/*left_is_r=*/true, 2, 0));
  root->Add(std::make_unique<GeCompare>(/*left_is_r=*/false, 2, 0));
  root->Add(std::make_unique<GeCompare>(/*left_is_r=*/true, 3, 1));
  root->Add(std::make_unique<GeCompare>(/*left_is_r=*/false, 3, 1));
  return root;
}

// ---------------------------------------------------------------------------
// Big-data-framework machinery: shuffle materialisation and boxed rows.
// ---------------------------------------------------------------------------

// A heap-allocated row object with a vtable, standing in for a JVM object.
struct BoxedRow {
  virtual ~BoxedRow() = default;
  int32_t id = 0;
  Box box;
};

// Serialized shuffle block for one partition.
struct ShuffleBlock {
  std::vector<uint8_t> bytes;

  void Append(int32_t id, const Box& box) {
    const std::size_t off = bytes.size();
    bytes.resize(off + kRowBytes);
    std::memcpy(bytes.data() + off, &id, sizeof(id));
    std::memcpy(bytes.data() + off + 4, &box, sizeof(Box));
  }
  std::size_t rows() const { return bytes.size() / kRowBytes; }
};

std::vector<std::unique_ptr<BoxedRow>> Deserialize(const ShuffleBlock& block) {
  std::vector<std::unique_ptr<BoxedRow>> rows;
  rows.reserve(block.rows());
  for (std::size_t i = 0; i < block.rows(); ++i) {
    auto row = std::make_unique<BoxedRow>();
    const uint8_t* p = block.bytes.data() + i * kRowBytes;
    std::memcpy(&row->id, p, sizeof(row->id));
    std::memcpy(&row->box, p + 4, sizeof(Box));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

JoinResult InterpretedEngineJoin(const Dataset& r, const Dataset& s,
                                 const InterpretedEngineOptions& options,
                                 JoinStats* stats, const WaveContext& wave) {
  // Build phase: GiST-analogue index on the inner relation.
  BulkLoadOptions bl;
  bl.max_entries = options.index_max_entries;
  bl.num_threads = options.num_threads;
  const PackedRTree index = StrBulkLoad(s, bl, wave);

  const RowStore r_rows(r);
  const RowStore s_rows(s);
  const auto predicate = BuildIntersectsExpr();

  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);
  struct WorkerState {
    JoinResult result;
    uint64_t evals = 0;
  };
  std::vector<WorkerState> workers(threads);

  // Parallel scan of the outer relation, one window query per tuple.
  ParallelForWorker(
      r.size(), threads, Schedule::kDynamic,
      [&](std::size_t i, std::size_t w) {
        WorkerState& state = workers[w];
        const uint8_t* r_row = r_rows.row(i);
        // The index probe uses the row's (deserialized) geometry.
        const Box window(LoadField(r_row, 0), LoadField(r_row, 1),
                         LoadField(r_row, 2), LoadField(r_row, 3));
        for (ObjectId sid : index.WindowQuery(window)) {
          const uint8_t* s_row = s_rows.row(static_cast<std::size_t>(sid));
          ++state.evals;
          // Recheck through the interpreted executor expression, as the
          // engine re-evaluates the join qual on each candidate.
          if (predicate->Eval(r_row, s_row)) {
            state.result.Add(LoadId(r_row), LoadId(s_row));
          }
        }
      },
      /*chunk=*/256, wave);

  JoinResult out;
  for (auto& w : workers) {
    out.Merge(std::move(w.result));
    if (stats != nullptr) stats->predicate_evaluations += w.evals;
  }
  if (stats != nullptr) stats->tasks += r.size();
  return out;
}

JoinResult BigDataFrameworkJoin(const Dataset& r, const Dataset& s,
                                const BigDataFrameworkOptions& options,
                                JoinStats* stats, const WaveContext& wave) {
  SWIFT_CHECK_GE(options.num_partitions, 1);
  // Square-ish grid with ~num_partitions tiles.
  const int cols = std::max(
      1, static_cast<int>(std::round(std::sqrt(options.num_partitions))));
  const int rows = (options.num_partitions + cols - 1) / cols;
  Box extent = r.Extent();
  extent.Expand(s.Extent());
  const UniformGrid grid(extent, cols, rows);

  // --- Shuffle phase: serialize every row into its partitions' blocks. ---
  const int tiles = grid.num_tiles();
  std::vector<ShuffleBlock> r_blocks(tiles), s_blocks(tiles);
  auto shuffle = [&grid](const Dataset& d, std::vector<ShuffleBlock>* blocks) {
    for (std::size_t i = 0; i < d.size(); ++i) {
      const Box& b = d.box(i);
      int tx0, ty0, tx1, ty1;
      grid.TileRange(b, &tx0, &ty0, &tx1, &ty1);
      for (int ty = ty0; ty <= ty1; ++ty) {
        for (int tx = tx0; tx <= tx1; ++tx) {
          if (Intersects(b, grid.TileBox(tx, ty))) {
            (*blocks)[ty * grid.cols() + tx].Append(static_cast<int32_t>(i), b);
          }
        }
      }
    }
  };
  shuffle(r, &r_blocks);
  shuffle(s, &s_blocks);

  // --- Per-partition join tasks. ---
  const std::size_t threads = std::max<std::size_t>(1, options.num_threads);
  struct WorkerState {
    JoinResult result;
    JoinStats stats;
  };
  std::vector<WorkerState> workers(threads);

  ParallelForWorker(
      static_cast<std::size_t>(tiles), threads, Schedule::kDynamic,
      [&](std::size_t t, std::size_t w) {
        if (r_blocks[t].rows() == 0 || s_blocks[t].rows() == 0) return;
        WorkerState& state = workers[w];
        const Box tile = grid.DedupTileByIndex(static_cast<int>(t));

        // Deserialize into boxed row objects.
        auto r_rows = Deserialize(r_blocks[t]);
        auto s_rows = Deserialize(s_blocks[t]);

        // Per-partition index build at join time (Sedona's RDD join path).
        std::vector<Box> s_boxes;
        s_boxes.reserve(s_rows.size());
        for (const auto& row : s_rows) s_boxes.push_back(row->box);
        Dataset s_part("part", std::move(s_boxes));
        BulkLoadOptions bl;
        bl.max_entries = options.index_max_entries;
        const PackedRTree index = StrBulkLoad(s_part, bl);

        state.stats.tasks += 1;
        for (const auto& r_row : r_rows) {
          for (ObjectId local : index.WindowQuery(r_row->box)) {
            const auto& s_row = s_rows[static_cast<std::size_t>(local)];
            ++state.stats.predicate_evaluations;
            if (!Intersects(r_row->box, s_row->box)) continue;
            if (!ReferencePointInTile(r_row->box, s_row->box, tile)) continue;
            state.result.Add(r_row->id, s_row->id);
          }
        }
      },
      /*chunk=*/1, wave);

  // --- Merge phase: single-threaded result collection. ---
  JoinResult out;
  for (auto& w : workers) {
    out.Merge(std::move(w.result));
    if (stats != nullptr) *stats += w.stats;
  }
  return out;
}

}  // namespace swiftspatial
