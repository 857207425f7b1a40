#include "datagen/dataset.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

namespace swiftspatial {

namespace {

constexpr uint32_t kMagic = 0x53575354;  // "SWST"
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// All four coordinates finite. |c| <= max is false for NaN and infinities.
bool IsFinite(const Box& b) {
  constexpr Coord kMax = std::numeric_limits<Coord>::max();
  return (std::fabs(b.min_x) <= kMax) & (std::fabs(b.min_y) <= kMax) &
         (std::fabs(b.max_x) <= kMax) & (std::fabs(b.max_y) <= kMax);
}

}  // namespace

Box Dataset::Extent() const {
  Box out = Box::Empty();
  for (const Box& b : boxes_) out.Expand(b);
  return out;
}

DatasetStats Dataset::Scan() const {
  DatasetStats stats;
  stats.count = boxes_.size();
  // Branch-free validity over the whole pass; a bad dataset is walked a
  // second time only to name its first bad box.
  bool valid = true;
  for (const Box& b : boxes_) {
    stats.extent.Expand(b);
    valid &= IsFinite(b) & (b.min_x <= b.max_x) & (b.min_y <= b.max_y);
  }
  for (std::size_t i = 0; !valid && i < boxes_.size(); ++i) {
    const Box& b = boxes_[i];
    if (!IsFinite(b)) {
      stats.validity = Status::InvalidArgument(
          "dataset \"" + name_ + "\": box " + std::to_string(i) +
          " has a non-finite coordinate: " + b.ToString());
      break;
    }
    if (b.min_x > b.max_x || b.min_y > b.max_y) {
      stats.validity = Status::InvalidArgument(
          "dataset \"" + name_ + "\": box " + std::to_string(i) +
          " is inverted (min > max): " + b.ToString());
      break;
    }
  }
  return stats;
}

bool Dataset::IsPointDataset() const {
  for (const Box& b : boxes_) {
    if (b.min_x != b.max_x || b.min_y != b.max_y) return false;
  }
  return true;
}

Status Dataset::SaveTo(const std::string& path) const {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for writing: " + path);

  const uint64_t count = boxes_.size();
  const uint32_t header[2] = {kMagic, kVersion};
  if (std::fwrite(header, sizeof(header), 1, f.get()) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
    return Status::IOError("short write on header: " + path);
  }
  static_assert(sizeof(Box) == 4 * sizeof(Coord),
                "Box must be 4 packed coordinates for serialisation");
  if (count > 0 &&
      std::fwrite(boxes_.data(), sizeof(Box), count, f.get()) != count) {
    return Status::IOError("short write on boxes: " + path);
  }
  // stdio buffers writes; the data only reaches the file system at close.
  // Letting the FileCloser destructor eat fclose's return value here turned
  // a full disk into a silent Status::OK() -- close explicitly and check.
  if (std::fclose(f.release()) != 0) {
    return Status::IOError("close failed (buffered write lost): " + path);
  }
  return Status::OK();
}

Result<Dataset> Dataset::LoadFrom(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for reading: " + path);

  uint32_t header[2] = {0, 0};
  uint64_t count = 0;
  if (std::fread(header, sizeof(header), 1, f.get()) != 1 ||
      std::fread(&count, sizeof(count), 1, f.get()) != 1) {
    return Status::Corruption("truncated header: " + path);
  }
  if (header[0] != kMagic) return Status::Corruption("bad magic: " + path);
  if (header[1] != kVersion) {
    return Status::NotSupported("unsupported dataset version " +
                                std::to_string(header[1]));
  }
  std::vector<Box> boxes(count);
  if (count > 0 &&
      std::fread(boxes.data(), sizeof(Box), count, f.get()) != count) {
    return Status::Corruption("truncated boxes: " + path);
  }
  return Dataset(path, std::move(boxes));
}

}  // namespace swiftspatial
