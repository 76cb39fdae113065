#include "storage/printer.h"

#include <algorithm>
#include <sstream>

namespace cods {

std::string FormatTable(const Table& table, const PrintOptions& options) {
  std::vector<Row> rows = table.Materialize(options.max_rows);
  size_t width = table.num_columns();
  std::vector<size_t> col_width(width);
  std::vector<std::vector<std::string>> cells(rows.size());
  for (size_t c = 0; c < width; ++c) {
    col_width[c] = table.schema().column(c).name.size();
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    cells[r].resize(width);
    for (size_t c = 0; c < width; ++c) {
      cells[r][c] = rows[r][c].ToString();
      col_width[c] = std::max(col_width[c], cells[r][c].size());
    }
  }
  std::ostringstream out;
  auto rule = [&]() {
    out << "+";
    for (size_t c = 0; c < width; ++c) {
      out << std::string(col_width[c] + 2, '-') << "+";
    }
    out << "\n";
  };
  auto line = [&](const std::vector<std::string>& vals) {
    out << "|";
    for (size_t c = 0; c < width; ++c) {
      out << " " << vals[c] << std::string(col_width[c] - vals[c].size(), ' ')
          << " |";
    }
    out << "\n";
  };
  out << table.name() << " " << table.schema().ToString() << "\n";
  rule();
  std::vector<std::string> header(width);
  for (size_t c = 0; c < width; ++c) header[c] = table.schema().column(c).name;
  line(header);
  rule();
  for (const auto& row : cells) line(row);
  rule();
  if (table.rows() > rows.size()) {
    out << "... " << (table.rows() - rows.size()) << " more rows\n";
  }
  if (options.show_footer) {
    out << "(" << table.rows() << " rows)\n";
  }
  return out.str();
}

std::string FormatTableStats(const Table& table) {
  std::ostringstream out;
  out << table.name() << " " << table.schema().ToString() << "\n";
  out << "rows: " << table.rows() << ", compressed bytes: "
      << table.SizeBytes() << "\n";
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto& col = table.column(c);
    out << "  " << table.schema().column(c).name
        << ": distinct=" << col->distinct_count()
        << ", bytes=" << col->SizeBytes() << "\n";
    // Codec detail: how the density rule distributed this column's
    // value bitmaps, and what they cost next to raw bitsets.
    uint64_t reps[3] = {0, 0, 0};
    uint64_t codec_bytes = 0;
    uint64_t dense_bytes = 0;
    for (Vid v = 0; v < col->distinct_count(); ++v) {
      const ValueBitmap& vb = col->bitmap(v);
      ++reps[static_cast<size_t>(vb.rep())];
      codec_bytes += vb.SizeBytes();
      dense_bytes += vb.DenseSizeBytes();
    }
    out << "    reps: array=" << reps[0] << " wah=" << reps[1]
        << " bitset=" << reps[2] << ", codec bytes=" << codec_bytes
        << ", bitset-equivalent bytes=" << dense_bytes << "\n";
  }
  const CodecStats& stats = GlobalCodecStats();
  out << "codec: popcount cache hits="
      << stats.popcount_hits.load(std::memory_order_relaxed)
      << ", containers built: array="
      << stats.array_built.load(std::memory_order_relaxed)
      << " wah=" << stats.wah_built.load(std::memory_order_relaxed)
      << " bitset=" << stats.bitset_built.load(std::memory_order_relaxed)
      << "\n";
  out << "row->vid maps: built="
      << stats.row_vid_maps_built.load(std::memory_order_relaxed)
      << ", retained bytes="
      << stats.row_vid_map_bytes.load(std::memory_order_relaxed) << "\n";
  return out.str();
}

}  // namespace cods
