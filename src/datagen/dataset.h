// Dataset container used by every index, join algorithm, and benchmark.
// An object is an (implicit) id in [0, size) plus its MBR; point datasets
// use degenerate boxes. Binary (de)serialisation allows benchmarks to cache
// generated datasets on disk.
#ifndef SWIFTSPATIAL_DATAGEN_DATASET_H_
#define SWIFTSPATIAL_DATAGEN_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/box.h"

namespace swiftspatial {

/// Object identifier. 32-bit signed to match the accelerator's 8-byte result
/// pair format (two int32 ids, §3.5 of the paper).
using ObjectId = int32_t;

/// What one pass over a dataset learns (Dataset::Scan): the validity check
/// Prepare enforces plus the summary facts planners and cost models read.
struct DatasetStats {
  /// OK iff every box is well-formed: all four coordinates finite and
  /// min <= max on both axes; otherwise InvalidArgument naming the first bad
  /// box. Engines enforce it at Prepare time (EngineConfig::validate_inputs);
  /// indexes and the reference-point dedup rule are only specified for valid
  /// boxes.
  Status validity;
  std::size_t count = 0;
  /// MBR of the whole dataset (empty box for an empty dataset).
  Box extent = Box::Empty();
};

/// A named collection of spatial objects. Object `i` has id `i` and MBR
/// `boxes()[i]`.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, std::vector<Box> boxes)
      : name_(std::move(name)), boxes_(std::move(boxes)) {}

  const std::string& name() const { return name_; }
  const std::vector<Box>& boxes() const { return boxes_; }
  std::vector<Box>& mutable_boxes() { return boxes_; }
  std::size_t size() const { return boxes_.size(); }
  bool empty() const { return boxes_.empty(); }
  const Box& box(std::size_t i) const { return boxes_[i]; }

  /// MBR of the whole dataset (empty box for an empty dataset).
  Box Extent() const;

  /// True if every box is a point (zero width and height).
  bool IsPointDataset() const;

  /// One serial pass over every box: validity, extent and count (see
  /// DatasetStats). The registry runs it once per
  /// registered version; Prepare runs it for borrowed inputs.
  DatasetStats Scan() const;

  /// Writes the dataset to `path` in a little-endian binary format:
  /// magic, version, count, then count * 4 float32 coordinates.
  Status SaveTo(const std::string& path) const;

  /// Reads a dataset previously written by SaveTo.
  static Result<Dataset> LoadFrom(const std::string& path);

 private:
  std::string name_;
  std::vector<Box> boxes_;
};

}  // namespace swiftspatial

#endif  // SWIFTSPATIAL_DATAGEN_DATASET_H_
