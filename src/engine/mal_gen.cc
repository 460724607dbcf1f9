#include "src/engine/mal_gen.h"

#include "src/common/string_util.h"
#include "src/engine/planner.h"

namespace sciql {
namespace engine {

using gdk::ScalarValue;

Result<CompiledStatement> StatementCompiler::Compile(
    const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      return CompileSelect(stmt);
    case sql::Statement::Kind::kInsert:
      return CompileInsert(stmt);
    case sql::Statement::Kind::kUpdate:
      return CompileUpdate(stmt);
    case sql::Statement::Kind::kDelete:
      return CompileDelete(stmt);
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateArray: {
      if (stmt.select == nullptr) {
        return Status::Internal(
            "plain DDL is executed by Database, not compiled");
      }
      CompiledStatement cs;
      cs.action = stmt.kind == sql::Statement::Kind::kCreateArray
                      ? CompiledStatement::Action::kCreateArrayAs
                      : CompiledStatement::Action::kCreateTableAs;
      cs.target = ToLower(stmt.object_name);
      if (cat_->Exists(cs.target)) {
        return Status::AlreadyExists(
            StrFormat("object %s exists", cs.target.c_str()));
      }
      SelectCompiler sc(&cs.prog, cat_);
      SCIQL_ASSIGN_OR_RETURN(Env out, sc.Compile(*stmt.select));
      for (const EnvCol& c : out.cols) {
        cs.prog.AddResult(c.name, c.reg, c.is_dim);
      }
      return cs;
    }
    default:
      return Status::Internal("unsupported statement for compilation");
  }
}

Result<CompiledStatement> StatementCompiler::CompileSelect(
    const sql::Statement& stmt) {
  CompiledStatement cs;
  cs.action = CompiledStatement::Action::kQuery;
  SelectCompiler sc(&cs.prog, cat_);
  SCIQL_ASSIGN_OR_RETURN(Env out, sc.Compile(*stmt.select));
  for (const EnvCol& c : out.cols) {
    cs.prog.AddResult(c.name, c.reg, c.is_dim);
  }
  return cs;
}

Result<CompiledStatement> StatementCompiler::CompileInsert(
    const sql::Statement& stmt) {
  CompiledStatement cs;
  cs.action = CompiledStatement::Action::kInsert;
  cs.target = ToLower(stmt.object_name);
  cs.insert_columns = stmt.insert_columns;
  if (!cat_->Exists(cs.target)) {
    return Status::NotFound(
        StrFormat("no such table or array: %s", cs.target.c_str()));
  }

  if (stmt.select != nullptr) {
    SelectCompiler sc(&cs.prog, cat_);
    SCIQL_ASSIGN_OR_RETURN(Env out, sc.Compile(*stmt.select));
    for (const EnvCol& c : out.cols) {
      cs.prog.AddResult(c.name, c.reg, c.is_dim);
    }
    return cs;
  }

  // VALUES rows: one bat.pack per column.
  if (stmt.insert_values.empty()) {
    return Status::InvalidArgument("INSERT without VALUES or SELECT");
  }
  size_t ncols = stmt.insert_values[0].size();
  for (const auto& row : stmt.insert_values) {
    if (row.size() != ncols) {
      return Status::InvalidArgument("VALUES rows of differing arity");
    }
  }
  Env empty;
  ExprCompiler comp(&cs.prog, cat_, &empty);
  // Registers are numbered row by row, as the literals appear.
  std::vector<std::vector<int>> cols(ncols);
  for (std::vector<int>& col : cols) col.reserve(stmt.insert_values.size());
  for (const auto& row : stmt.insert_values) {
    for (size_t c = 0; c < ncols; ++c) {
      const sql::Expr& e = *row[c];
      if (!ExprCompiler::IsScalarExpr(e)) {
        return Status::BindError(
            "VALUES expressions must be constant scalars");
      }
      SCIQL_ASSIGN_OR_RETURN(int r, comp.Compile(e));
      cols[c].push_back(r);
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    int col = cs.prog.EmitR("bat", "pack", std::move(cols[c]),
                            StrFormat("v%zu", c));
    cs.prog.AddResult(StrFormat("col%zu", c + 1), col, false);
  }
  return cs;
}

Result<Env> StatementCompiler::CompileTargetRows(const sql::Statement& stmt,
                                                 CompiledStatement* cs) {
  SelectCompiler sc(&cs->prog, cat_);
  SCIQL_ASSIGN_OR_RETURN(Env env, sc.ScanObject(cs->target, ""));
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  int pos;
  SCIQL_RETURN_NOT_OK(sc.CompileWhere(cs->target, conjuncts, &env, &pos));
  if (pos < 0) {
    int cnt = cs->prog.EmitR(
        "sql", "count", {cs->prog.Const(ScalarValue::Str(cs->target))}, "n");
    pos = cs->prog.EmitR("bat", "dense", {cnt}, "pos");
  }
  cs->prog.AddResult("__pos", pos, false);
  return env;
}

Result<CompiledStatement> StatementCompiler::CompileUpdate(
    const sql::Statement& stmt) {
  CompiledStatement cs;
  cs.action = CompiledStatement::Action::kUpdate;
  cs.target = ToLower(stmt.object_name);

  // Reject SET on dimensions: "array dimension manipulations must be done
  // using ALTER ARRAY statements" (paper Sec. 2).
  if (cat_->IsArray(cs.target)) {
    SCIQL_ASSIGN_OR_RETURN(auto arr, cat_->GetArray(cs.target));
    for (const auto& [col, e] : stmt.set_clauses) {
      if (arr->desc.DimIndex(col) >= 0) {
        return Status::InvalidArgument(
            StrFormat("cannot UPDATE dimension %s; use ALTER ARRAY",
                      col.c_str()));
      }
      if (arr->desc.AttrIndex(col) < 0) {
        return Status::BindError(
            StrFormat("array %s has no attribute %s", cs.target.c_str(),
                      col.c_str()));
      }
    }
  } else {
    SCIQL_ASSIGN_OR_RETURN(auto tab, cat_->GetTable(cs.target));
    for (const auto& [col, e] : stmt.set_clauses) {
      if (tab->ColumnIndex(col) < 0) {
        return Status::BindError(StrFormat("table %s has no column %s",
                                           cs.target.c_str(), col.c_str()));
      }
    }
  }

  SCIQL_ASSIGN_OR_RETURN(Env env, CompileTargetRows(stmt, &cs));

  ExprCompiler comp(&cs.prog, cat_, &env);
  for (const auto& [col, e] : stmt.set_clauses) {
    SCIQL_ASSIGN_OR_RETURN(int v, comp.Compile(*e));
    cs.prog.AddResult("__set_" + ToLower(col), v, false);
    cs.set_columns.push_back(ToLower(col));
  }
  return cs;
}

Result<CompiledStatement> StatementCompiler::CompileDelete(
    const sql::Statement& stmt) {
  CompiledStatement cs;
  cs.action = CompiledStatement::Action::kDelete;
  cs.target = ToLower(stmt.object_name);
  if (!cat_->Exists(cs.target)) {
    return Status::NotFound(
        StrFormat("no such table or array: %s", cs.target.c_str()));
  }

  SCIQL_RETURN_NOT_OK(CompileTargetRows(stmt, &cs).status());
  return cs;
}

Result<CompiledStatement> StatementCompiler::CompileDdlDisplay(
    const sql::Statement& stmt) {
  CompiledStatement cs;
  cs.action = CompiledStatement::Action::kDdlDisplay;
  if (stmt.kind != sql::Statement::Kind::kCreateArray ||
      stmt.select != nullptr) {
    // Other DDL has no interesting MAL body; show a catalog call.
    cs.prog.Emit("sql", "ddl", {},
                 {cs.prog.Const(ScalarValue::Str(stmt.ToString()))});
    return cs;
  }
  // The Figure 3 materialisation program: one array.series per dimension,
  // one array.filler per attribute.
  std::vector<const sql::ColumnDef*> dims, attrs;
  for (const auto& c : stmt.columns) {
    (c.is_dimension ? dims : attrs).push_back(&c);
  }
  size_t ncells = 1;
  std::vector<size_t> sizes;
  for (const auto* d : dims) {
    sizes.push_back(d->range.Size());
    ncells *= d->range.Size();
  }
  for (size_t i = 0; i < dims.size(); ++i) {
    size_t rep_each = 1, rep_group = 1;
    for (size_t j = i + 1; j < dims.size(); ++j) rep_each *= sizes[j];
    for (size_t j = 0; j < i; ++j) rep_group *= sizes[j];
    int reg = cs.prog.NewReg(ToLower(dims[i]->name));
    cs.prog.Emit("array", "series", {reg},
                 {cs.prog.Const(ScalarValue::Lng(dims[i]->range.start)),
                  cs.prog.Const(ScalarValue::Lng(dims[i]->range.step)),
                  cs.prog.Const(ScalarValue::Lng(dims[i]->range.stop)),
                  cs.prog.Const(ScalarValue::Lng(static_cast<int64_t>(rep_each))),
                  cs.prog.Const(ScalarValue::Lng(static_cast<int64_t>(rep_group)))});
  }
  for (const auto* a : attrs) {
    int reg = cs.prog.NewReg(ToLower(a->name));
    ScalarValue def =
        a->has_default ? a->default_value : ScalarValue::Null(a->type);
    cs.prog.Emit("array", "filler", {reg},
                 {cs.prog.Const(ScalarValue::Lng(static_cast<int64_t>(ncells))),
                  cs.prog.Const(def)});
  }
  return cs;
}

}  // namespace engine
}  // namespace sciql
