#pragma once

#include <map>
#include <string>

#include "datastore/client.h"

namespace smartflux::workloads {

/// A whole table as row -> (column -> value).
using TableMap = std::map<std::string, std::map<std::string, double>>;

/// Reads a whole table as of the client's wave.
inline TableMap read_table(ds::Client& client, const std::string& table) {
  TableMap out;
  client.scan(ds::ContainerRef::whole_table(table),
              [&out](const ds::RowKey& row, const ds::ColumnKey& col, double v) {
                out[row][col] = v;
              });
  return out;
}

}  // namespace smartflux::workloads
