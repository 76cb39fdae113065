#include "storage/column.h"

#include "common/logging.h"

namespace cods {

std::shared_ptr<Column> Column::FromValueBitmaps(
    DataType type, Dictionary dict, std::vector<ValueBitmap> bitmaps,
    uint64_t rows) {
  CODS_CHECK(bitmaps.size() == dict.size())
      << "bitmap count " << bitmaps.size() << " != dictionary size "
      << dict.size();
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = type;
  col->rows_ = rows;
  col->dict_ = std::move(dict);
  col->bitmaps_ = std::move(bitmaps);
  return col;
}

Column::~Column() {
  if (row_vids_.SizeBytes() > 0) {
    GlobalCodecStats().row_vid_map_bytes.fetch_sub(row_vids_.SizeBytes(),
                                                   std::memory_order_relaxed);
  }
}

const PackedVids& Column::RowVidMap() const {
  std::call_once(row_vids_once_, [this] {
    // Value-major scatter into the packed words, which stay cache
    // resident far longer than a plain vid array would.
    PackedVids map(rows_, PackedVids::WidthFor(dict_.size()));
    for (Vid vid = 0; vid < bitmaps_.size(); ++vid) {
      bitmaps_[vid].ForEachSetBit([&](uint64_t pos) { map.Set(pos, vid); });
    }
    row_vids_ = std::move(map);
    CodecStats& stats = GlobalCodecStats();
    stats.row_vid_maps_built.fetch_add(1, std::memory_order_relaxed);
    stats.row_vid_map_bytes.fetch_add(row_vids_.SizeBytes(),
                                      std::memory_order_relaxed);
  });
  return row_vids_;
}

const ValueBitmap& Column::bitmap(Vid vid) const {
  CODS_DCHECK(vid < bitmaps_.size());
  return bitmaps_[vid];
}

const std::vector<ValueBitmap>& Column::bitmaps() const { return bitmaps_; }

Value Column::GetValue(uint64_t row) const {
  CODS_CHECK(row < rows_);
  for (Vid vid = 0; vid < bitmaps_.size(); ++vid) {
    if (bitmaps_[vid].Get(row)) return dict_.value(vid);
  }
  CODS_CHECK(false) << "row " << row << " not covered by any bitmap";
  return Value();
}

uint64_t Column::ValueCount(Vid vid) const {
  return bitmaps_[vid].CountOnes();
}

uint64_t Column::SizeBytes() const {
  uint64_t bytes = dict_.SizeBytes();
  for (const ValueBitmap& bm : bitmaps_) bytes += bm.SizeBytes();
  return bytes;
}

}  // namespace cods
