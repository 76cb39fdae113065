// Aligned text rendering of tables — the demo's "display table" button.

#ifndef CODS_STORAGE_PRINTER_H_
#define CODS_STORAGE_PRINTER_H_

#include <string>

#include "storage/table.h"

namespace cods {

/// Options for table formatting.
struct PrintOptions {
  uint64_t max_rows = 20;   // rows shown before eliding
  bool show_footer = true;  // "(n rows, m distinct ...)" footer
};

/// Renders a table as an aligned ASCII grid.
std::string FormatTable(const Table& table, const PrintOptions& options = {});

/// Renders schema + storage statistics (distinct counts, compressed
/// bytes and codec representation mix per column).
std::string FormatTableStats(const Table& table);

}  // namespace cods

#endif  // CODS_STORAGE_PRINTER_H_
