#ifndef HYPERQ_SQLDB_DATABASE_H_
#define HYPERQ_SQLDB_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqldb/catalog.h"
#include "sqldb/relation.h"
#include "sqldb/session.h"

namespace hyperq {

class LatencyHistogram;

namespace sqldb {

/// A lightweight view of one result row. Cells are materialized as Datums
/// on access; iteration yields Datums by value.
class RowRef {
 public:
  RowRef(const Relation* rel, size_t row) : rel_(rel), row_(row) {}

  size_t size() const { return rel_->columns.size(); }
  bool empty() const { return rel_->columns.empty(); }
  Datum operator[](size_t c) const { return rel_->At(row_, c); }
  Datum at(size_t c) const { return rel_->At(row_, c); }
  /// Materializes the whole row.
  std::vector<Datum> ToVector() const { return rel_->RowAt(row_); }

  class const_iterator {
   public:
    const_iterator(const Relation* rel, size_t row, size_t col)
        : rel_(rel), row_(row), col_(col) {}
    Datum operator*() const { return rel_->At(row_, col_); }
    const_iterator& operator++() {
      ++col_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return col_ == o.col_; }
    bool operator!=(const const_iterator& o) const { return col_ != o.col_; }

   private:
    const Relation* rel_;
    size_t row_;
    size_t col_;
  };
  const_iterator begin() const { return {rel_, row_, 0}; }
  const_iterator end() const { return {rel_, row_, size()}; }

 private:
  const Relation* rel_;
  size_t row_;
};

/// Row-oriented view over a columnar Relation. Results are stored as
/// columns end to end (the QIPC pivot moves column buffers straight into Q
/// lists); this view keeps the historical row-at-a-time API working for
/// tests, pgwire and anything else that reads results row by row.
class RowsView {
 public:
  explicit RowsView(Relation* rel) : rel_(rel) {}

  size_t size() const { return rel_->row_count; }
  bool empty() const { return rel_->row_count == 0; }
  RowRef operator[](size_t r) const { return RowRef(rel_, r); }
  RowRef at(size_t r) const { return RowRef(rel_, r); }
  RowRef front() const { return RowRef(rel_, 0); }
  RowRef back() const { return RowRef(rel_, rel_->row_count - 1); }

  void reserve(size_t n) { rel_->Reserve(n); }
  void push_back(const std::vector<Datum>& row) { rel_->AppendRow(row); }
  void emplace_back(std::vector<Datum> row) { rel_->AppendRow(row); }

  class const_iterator {
   public:
    const_iterator(const Relation* rel, size_t row) : rel_(rel), row_(row) {}
    RowRef operator*() const { return RowRef(rel_, row_); }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }
    bool operator!=(const const_iterator& o) const { return row_ != o.row_; }

   private:
    const Relation* rel_;
    size_t row_;
  };
  const_iterator begin() const { return {rel_, 0}; }
  const_iterator end() const { return {rel_, rel_->row_count}; }

 private:
  Relation* rel_;
};

/// Result of executing one SQL statement: columnar row data for SELECTs, a
/// command tag for everything (matching PG's CommandComplete payloads).
/// `data` owns the columns (often shared zero-copy with the catalog);
/// `rows` is a row-oriented view bound to it.
struct QueryResult {
  std::vector<TableColumn> columns;
  Relation data;
  std::string command_tag;
  bool has_rows = false;
  RowsView rows{&data};

  QueryResult() = default;
  QueryResult(const QueryResult& o)
      : columns(o.columns),
        data(o.data),
        command_tag(o.command_tag),
        has_rows(o.has_rows) {}
  QueryResult(QueryResult&& o) noexcept
      : columns(std::move(o.columns)),
        data(std::move(o.data)),
        command_tag(std::move(o.command_tag)),
        has_rows(o.has_rows) {}
  QueryResult& operator=(const QueryResult& o) {
    columns = o.columns;
    data = o.data;
    command_tag = o.command_tag;
    has_rows = o.has_rows;
    return *this;
  }
  QueryResult& operator=(QueryResult&& o) noexcept {
    columns = std::move(o.columns);
    data = std::move(o.data);
    command_tag = std::move(o.command_tag);
    has_rows = o.has_rows;
    return *this;
  }
};

/// The mini PG-compatible database: catalog + SQL front door. This is the
/// analytical backend Hyper-Q talks to; in the paper's deployment this role
/// is played by Greenplum (§6), reachable through exactly the same SQL
/// dialect and (via protocol/pgwire) the same wire protocol.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  std::unique_ptr<Session> CreateSession() {
    return std::make_unique<Session>();
  }

  /// Parses and executes all ';'-separated statements; returns the result
  /// of the last one. `session` may be null (no temp-object visibility).
  Result<QueryResult> Execute(Session* session, const std::string& sql);

  /// Executes a single parsed statement.
  Result<QueryResult> ExecuteStatement(Session* session,
                                       const SqlStatement& stmt);

  /// Runs `sql` with the row-wise concatenation of `parts` (one shared
  /// schema) bound to the session temp table `name`, which is removed
  /// again afterwards. `exec_us`, when set, times the statement alone.
  Result<QueryResult> ExecuteOverParts(Session* session,
                                       const std::string& name,
                                       const std::vector<QueryResult>& parts,
                                       const std::string& sql,
                                       LatencyHistogram* exec_us = nullptr);

  /// Convenience bulk loader used by tests, benchmarks and examples.
  Status CreateAndLoad(StoredTable table) {
    return catalog_.CreateTable(std::move(table), /*or_replace=*/true);
  }

 private:
  Catalog catalog_;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_DATABASE_H_
