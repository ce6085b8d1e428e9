#include "sqldb/database.h"

#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "sqldb/eval.h"
#include "sqldb/exec.h"
#include "sqldb/sql_parser.h"

namespace hyperq {
namespace sqldb {

namespace {

QueryResult FromRelation(Relation rel) {
  QueryResult out;
  out.has_rows = true;
  out.columns.reserve(rel.cols.size());
  for (const auto& c : rel.cols) {
    out.columns.push_back(TableColumn{c.name, c.type});
  }
  out.command_tag = StrCat("SELECT ", rel.row_count);
  out.data = std::move(rel);  // columns carried through, zero pivot
  return out;
}

/// Coerces a row of datums to a table's column types.
Status CoerceRow(const std::vector<TableColumn>& columns,
                 std::vector<Datum>* row) {
  if (row->size() != columns.size()) {
    return TypeError(StrCat("INSERT has ", row->size(),
                            " expressions but table has ", columns.size(),
                            " columns"));
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    HQ_ASSIGN_OR_RETURN((*row)[i], CastDatum((*row)[i], columns[i].type));
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> Database::Execute(Session* session,
                                      const std::string& sql) {
  HQ_ASSIGN_OR_RETURN(std::vector<SqlStatement> stmts, SqlParser::Parse(sql));
  if (stmts.empty()) {
    return InvalidArgument("empty SQL command string");
  }
  QueryResult last;
  for (const auto& stmt : stmts) {
    HQ_ASSIGN_OR_RETURN(last, ExecuteStatement(session, stmt));
  }
  return last;
}

Result<QueryResult> Database::ExecuteOverParts(
    Session* session, const std::string& name,
    const std::vector<QueryResult>& parts, const std::string& sql,
    LatencyHistogram* exec_us) {
  auto table = std::make_shared<StoredTable>();
  table->name = name;
  table->columns = parts[0].columns;
  std::vector<const std::vector<ColumnPtr>*> cols;
  for (const QueryResult& p : parts) {
    table->row_count += p.data.row_count;
    cols.push_back(&p.data.columns);
  }
  table->data = ConcatColumns(table->columns, cols);
  session->temp_tables()[name] = std::move(table);
  Result<QueryResult> r = [&] {
    ScopedLatencyTimer timer(MetricsRegistry::Global(), exec_us);
    return Execute(session, sql);
  }();
  session->temp_tables().erase(name);
  return r;
}

Result<QueryResult> Database::ExecuteStatement(Session* session,
                                               const SqlStatement& stmt) {
  Executor executor(&catalog_, session);
  switch (stmt.kind) {
    case SqlStatement::Kind::kSelect: {
      // Fault site: a SELECT failing or stalling inside the backend, after
      // the gateway handed it over (docs/ROBUSTNESS.md).
      if (FaultHit f = CheckFault("backend.select");
          f.kind == FaultHit::Kind::kError) {
        return f.error;
      }
      HQ_ASSIGN_OR_RETURN(Relation rel, executor.ExecuteSelect(*stmt.select));
      return FromRelation(std::move(rel));
    }

    case SqlStatement::Kind::kCreateTable: {
      StoredTable table;
      table.name = stmt.target;
      for (const auto& c : stmt.columns) {
        table.columns.push_back(TableColumn{c.name, c.type});
      }
      if (stmt.temporary) {
        if (session == nullptr) {
          return InvalidArgument("temporary table requires a session");
        }
        std::string name = table.name;
        session->temp_tables()[name] =
            std::make_shared<StoredTable>(std::move(table));
      } else {
        HQ_RETURN_IF_ERROR(catalog_.CreateTable(std::move(table)));
      }
      QueryResult r;
      r.command_tag = "CREATE TABLE";
      return r;
    }

    case SqlStatement::Kind::kCreateTableAs: {
      HQ_ASSIGN_OR_RETURN(Relation rel, executor.ExecuteSelect(*stmt.select));
      StoredTable table;
      table.name = stmt.target;
      for (const auto& c : rel.cols) {
        table.columns.push_back(TableColumn{c.name, c.type});
      }
      table.data = std::move(rel.columns);
      table.row_count = rel.row_count;
      if (stmt.temporary) {
        if (session == nullptr) {
          return InvalidArgument("temporary table requires a session");
        }
        std::string name = table.name;
        session->temp_tables()[name] =
            std::make_shared<StoredTable>(std::move(table));
      } else {
        HQ_RETURN_IF_ERROR(catalog_.CreateTable(std::move(table)));
      }
      QueryResult r;
      r.command_tag = "CREATE TABLE AS";
      return r;
    }

    case SqlStatement::Kind::kCreateView: {
      StoredView view;
      view.name = stmt.target;
      view.select = stmt.select;
      if (stmt.temporary) {
        if (session == nullptr) {
          return InvalidArgument("temporary view requires a session");
        }
        std::string name = view.name;
        session->temp_views()[name] = std::move(view);
      } else {
        HQ_RETURN_IF_ERROR(
            catalog_.CreateView(std::move(view), stmt.or_replace));
      }
      QueryResult r;
      r.command_tag = "CREATE VIEW";
      return r;
    }

    case SqlStatement::Kind::kDropTable: {
      if (session != nullptr &&
          session->temp_tables().erase(stmt.target) > 0) {
        QueryResult r;
        r.command_tag = "DROP TABLE";
        return r;
      }
      HQ_RETURN_IF_ERROR(catalog_.DropTable(stmt.target, stmt.if_exists));
      QueryResult r;
      r.command_tag = "DROP TABLE";
      return r;
    }

    case SqlStatement::Kind::kDropView: {
      if (session != nullptr && session->temp_views().erase(stmt.target) > 0) {
        QueryResult r;
        r.command_tag = "DROP VIEW";
        return r;
      }
      HQ_RETURN_IF_ERROR(catalog_.DropView(stmt.target, stmt.if_exists));
      QueryResult r;
      r.command_tag = "DROP VIEW";
      return r;
    }

    case SqlStatement::Kind::kInsertValues:
    case SqlStatement::Kind::kInsertSelect: {
      // Find the target (temp first).
      std::shared_ptr<StoredTable> temp;
      if (session != nullptr) {
        auto it = session->temp_tables().find(stmt.target);
        if (it != session->temp_tables().end()) temp = it->second;
      }
      std::vector<TableColumn> columns;
      if (temp) {
        columns = temp->columns;
      } else {
        HQ_ASSIGN_OR_RETURN(auto table, catalog_.GetTable(stmt.target));
        columns = table->columns;
      }
      if (!stmt.insert_columns.empty() &&
          stmt.insert_columns.size() != columns.size()) {
        return Unsupported(
            "INSERT with a partial column list is not supported");
      }

      std::vector<std::vector<Datum>> rows;
      if (stmt.kind == SqlStatement::Kind::kInsertValues) {
        for (const auto& row_exprs : stmt.insert_rows) {
          std::vector<Datum> row;
          row.reserve(row_exprs.size());
          for (const auto& e : row_exprs) {
            EvalCtx ctx;
            HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e, ctx));
            row.push_back(std::move(v));
          }
          HQ_RETURN_IF_ERROR(CoerceRow(columns, &row));
          rows.push_back(std::move(row));
        }
      } else {
        HQ_ASSIGN_OR_RETURN(Relation rel,
                            executor.ExecuteSelect(*stmt.select));
        for (size_t r = 0; r < rel.row_count; ++r) {
          std::vector<Datum> row = rel.RowAt(r);
          HQ_RETURN_IF_ERROR(CoerceRow(columns, &row));
          rows.push_back(std::move(row));
        }
      }
      size_t count = rows.size();
      if (temp) {
        for (const auto& r : rows) temp->AppendRow(r);
      } else {
        HQ_RETURN_IF_ERROR(catalog_.AppendRows(stmt.target, std::move(rows)));
      }
      QueryResult r;
      r.command_tag = StrCat("INSERT 0 ", count);
      return r;
    }
  }
  return InternalError("unhandled statement kind");
}

}  // namespace sqldb
}  // namespace hyperq
