#include "sqldb/catalog.h"

#include "common/strings.h"

namespace hyperq {
namespace sqldb {

int StoredTable::FindColumn(const std::string& col) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == col) return static_cast<int>(i);
  }
  return -1;
}

void StoredTable::EnsureColumns() {
  while (data.size() < columns.size()) {
    data.push_back(Column::Make(columns[data.size()].type));
  }
}

void StoredTable::AppendRow(const std::vector<Datum>& row) {
  EnsureColumns();
  for (size_t c = 0; c < data.size(); ++c) {
    if (data[c].use_count() > 1) {
      data[c] = std::make_shared<Column>(*data[c]);
    }
    data[c]->Append(c < row.size() ? row[c] : Datum::Null());
  }
  ++row_count;
}

std::vector<Datum> StoredTable::RowAt(size_t row) const {
  std::vector<Datum> out;
  out.reserve(data.size());
  for (const auto& c : data) out.push_back(c->At(row));
  return out;
}

std::vector<ColumnPtr> ConcatColumns(
    const std::vector<TableColumn>& schema,
    const std::vector<const std::vector<ColumnPtr>*>& parts) {
  std::vector<ColumnPtr> out;
  out.reserve(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    size_t rows = 0;
    for (const auto* part : parts) {
      if (c < part->size() && (*part)[c]) rows += (*part)[c]->size();
    }
    ColumnPtr col = Column::Make(schema[c].type);
    col->Reserve(rows);
    for (const auto* part : parts) {
      if (c < part->size() && (*part)[c]) col->AppendColumn(*(*part)[c]);
    }
    out.push_back(std::move(col));
  }
  return out;
}

Status Catalog::CreateTable(StoredTable table, bool or_replace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!or_replace && tables_.count(table.name) > 0) {
    return AlreadyExists(StrCat("table '", table.name, "' already exists"));
  }
  if (views_.count(table.name) > 0) {
    return AlreadyExists(
        StrCat("a view named '", table.name, "' already exists"));
  }
  std::string name = table.name;
  tables_[name] = std::make_shared<StoredTable>(std::move(table));
  ++version_;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name, bool if_exists) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(name) == 0) {
    if (if_exists) return Status::OK();
    return NotFound(StrCat("table '", name, "' does not exist"));
  }
  ++version_;
  return Status::OK();
}

Result<std::shared_ptr<StoredTable>> Catalog::GetTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound(StrCat("relation '", name, "' does not exist"));
  }
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

Status Catalog::CreateView(StoredView view, bool or_replace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!or_replace && views_.count(view.name) > 0) {
    return AlreadyExists(StrCat("view '", view.name, "' already exists"));
  }
  if (tables_.count(view.name) > 0) {
    return AlreadyExists(
        StrCat("a table named '", view.name, "' already exists"));
  }
  views_[view.name] = std::move(view);
  ++version_;
  return Status::OK();
}

Status Catalog::DropView(const std::string& name, bool if_exists) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.erase(name) == 0) {
    if (if_exists) return Status::OK();
    return NotFound(StrCat("view '", name, "' does not exist"));
  }
  ++version_;
  return Status::OK();
}

Result<StoredView> Catalog::GetView(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return NotFound(StrCat("view '", name, "' does not exist"));
  }
  return it->second;
}

bool Catalog::HasView(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

Status Catalog::AppendRows(const std::string& name,
                           std::vector<std::vector<Datum>> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound(StrCat("table '", name, "' does not exist"));
  }
  // Copy-on-write so concurrent readers of the old snapshot stay valid:
  // the table copy shares column buffers, and the first append to each
  // column clones it (Column CoW), leaving prior snapshots untouched.
  auto updated = std::make_shared<StoredTable>(*it->second);
  for (const auto& r : rows) updated->AppendRow(r);
  it->second = std::move(updated);
  ++version_;
  return Status::OK();
}

Status Catalog::AppendColumns(const std::string& name,
                              std::vector<ColumnPtr> cols, size_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return NotFound(StrCat("table '", name, "' does not exist"));
  }
  if (cols.size() != it->second->columns.size()) {
    return InvalidArgument(
        StrCat("AppendColumns to '", name, "': got ", cols.size(),
               " columns, table has ", it->second->columns.size()));
  }
  for (const auto& c : cols) {
    if (!c || c->size() != rows) {
      return InvalidArgument(
          StrCat("AppendColumns to '", name, "': column batch is not ",
                 rows, " rows"));
    }
  }
  // Same copy-on-write discipline as AppendRows: clone the table shell,
  // clone each still-shared column buffer once, then bulk-append.
  auto updated = std::make_shared<StoredTable>(*it->second);
  updated->EnsureColumns();
  for (size_t c = 0; c < updated->data.size(); ++c) {
    if (updated->data[c].use_count() > 1) {
      updated->data[c] = std::make_shared<Column>(*updated->data[c]);
    }
    updated->data[c]->AppendColumn(*cols[c]);
  }
  updated->row_count += rows;
  it->second = std::move(updated);
  return Status::OK();
}

uint64_t Catalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

}  // namespace sqldb
}  // namespace hyperq
