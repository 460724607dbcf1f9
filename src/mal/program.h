// MAL programs: the register-based instruction sequences produced by the
// SQL/SciQL compiler and executed by the MAL interpreter (paper Sec. 3:
// "MAL is the target language for all MonetDB query compiler front-ends").

#ifndef SCIQL_MAL_PROGRAM_H_
#define SCIQL_MAL_PROGRAM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/gdk/types.h"
#include "src/mal/value.h"

namespace sciql {
namespace mal {

struct OpDef;

/// \brief One MAL instruction: rets := module.fn(args).
struct MalInstr {
  /// The op-table row `name` resolved to when emitted, or null when no row
  /// declares it (the verifier reports it, the interpreter refuses it).
  const OpDef* op = nullptr;
  /// "module.fn", kept so unknown ops still render by name.
  std::string name;
  std::vector<int> rets;
  std::vector<int> args;
};

/// \brief A compiled MAL program plus its register metadata.
///
/// Registers are either variables (produced by instructions), inline scalar
/// constants, or opaque plan objects, numbered in the order they are first
/// made. Constants and objects live in the program: a run reads them from
/// here and keeps only variables in its register file. The builder API
/// (NewReg/Const/Emit) is used by the MAL generator; ToString() renders the
/// program in MonetDB's textual MAL style, e.g.
///     x := array.series(0,1,4,4,1);
class MalProgram {
 public:
  enum class RegKind : uint8_t { kVar, kConst, kObj };
  /// \brief Where a register's value lives: `slot` indexes the variables
  /// (kVar, also a run's register file), the constants (kConst) or the
  /// objects (kObj).
  struct Reg {
    RegKind kind = RegKind::kVar;
    uint32_t slot = 0;
  };

  /// \brief Fresh variable register with a display name hint.
  int NewReg(const std::string& hint);
  /// \brief Register holding an inline scalar constant. Identical constants
  /// (same type and exact value; DOUBLEs by bit pattern) share one register
  /// (hash-consed), which lets CSE merge duplicate instructions over equal
  /// literals.
  int Const(const gdk::ScalarValue& v);
  /// \brief Register holding an opaque object (tile spec, array descriptor).
  int Obj(std::shared_ptr<const void> obj, const std::string& tag,
          const std::string& display);
  /// \brief Turn variable `r` into a constant holding `v` (constant folding).
  /// The register keeps its number; it does not join the hash-consing pool.
  void SetConst(int r, gdk::ScalarValue v);

  /// \brief Emit rets := module.fn(args), resolving module.fn to its
  /// op-table row.
  void Emit(const std::string& module, const std::string& fn,
            std::vector<int> rets, std::vector<int> args);

  /// \brief Emit a single-result instruction; returns the new register.
  int EmitR(const std::string& module, const std::string& fn,
            std::vector<int> args, const std::string& hint);

  /// \brief Mark a register as a named result column.
  void AddResult(const std::string& name, int reg, bool is_dim);

  const std::vector<MalInstr>& instrs() const { return instrs_; }
  std::vector<MalInstr>* mutable_instrs() { return &instrs_; }

  size_t NumRegs() const { return regs_.size(); }
  /// \brief Variable slots: the size of a run's register file.
  size_t NumVars() const { return var_names_.size(); }
  const Reg& reg(int r) const { return regs_[static_cast<size_t>(r)]; }
  bool IsConst(int r) const { return reg(r).kind == RegKind::kConst; }
  bool IsObj(int r) const { return reg(r).kind == RegKind::kObj; }
  /// \brief The value of a constant or object register.
  const MalValue& Value(int r) const {
    const Reg& g = reg(r);
    return g.kind == RegKind::kConst ? consts_[g.slot] : objs_[g.slot].value;
  }
  const gdk::ScalarValue& ConstValue(int r) const { return Value(r).scalar; }
  /// \brief A variable register's display name; "" for the others.
  const std::string& VarName(int r) const;

  struct ResultCol {
    std::string name;
    int reg;
    bool is_dim;
  };
  const std::vector<ResultCol>& results() const { return results_; }
  std::vector<ResultCol>* mutable_results() { return &results_; }

  /// \brief Textual MAL rendering of the whole program.
  std::string ToString() const;

  /// \brief One instruction rendered as `rets := module.fn(args);` (no
  /// trailing newline) — the unit EXPLAIN ANALYZE annotates per line.
  std::string InstrToString(size_t i) const;

  /// \brief The trailing `io.result(...);` line, or "" without results.
  std::string ResultLineToString() const;

 private:
  struct ObjReg {
    MalValue value;
    std::string display;
  };

  std::string RegName(int r) const;
  int AddReg(RegKind kind, size_t slot);
  /// The pooled register holding exactly `v`, or -1.
  int FindPooled(const gdk::ScalarValue& v, uint64_t hash) const;
  void PoolInsert(int r, uint64_t hash);

  std::vector<MalInstr> instrs_;
  std::vector<Reg> regs_;
  std::vector<std::string> var_names_;
  /// A deque: its blocks come from the small-object heap and it never moves
  /// its elements, so a statement with thousands of literals appends each
  /// constant once.
  std::deque<MalValue> consts_;
  std::vector<ObjReg> objs_;
  std::vector<ResultCol> results_;
  /// Hash-consing pool: open addressing over a power-of-two table of
  /// constant registers, each beside the hash of its value.
  struct PoolEntry {
    uint64_t hash = 0;
    int reg = -1;  ///< -1: empty
  };
  std::vector<PoolEntry> pool_;
  size_t pool_size_ = 0;
  int name_counter_ = 0;
};

}  // namespace mal
}  // namespace sciql

#endif  // SCIQL_MAL_PROGRAM_H_
