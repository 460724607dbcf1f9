// MAL programs: the register-based instruction sequences produced by the
// SQL/SciQL compiler and executed by the MAL interpreter (paper Sec. 3:
// "MAL is the target language for all MonetDB query compiler front-ends").

#ifndef SCIQL_MAL_PROGRAM_H_
#define SCIQL_MAL_PROGRAM_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
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
/// constants, or opaque plan objects. The builder API (NewReg/Const/Emit) is
/// used by the MAL generator; ToString() renders the program in MonetDB's
/// textual MAL style, e.g.
///     x := array.series(0,1,4,4,1);
class MalProgram {
 public:
  struct Reg {
    std::string name;
    bool is_const = false;
    gdk::ScalarValue cval;
    bool is_obj = false;
    std::shared_ptr<const void> obj;
    std::string obj_tag;
    std::string obj_display;
  };

  /// \brief Fresh variable register with a display name hint.
  int NewReg(const std::string& hint);
  /// \brief Register holding an inline scalar constant. Identical constants
  /// (same type and exact value; DOUBLEs by bit pattern) share one register
  /// (hash-consed), which lets CSE merge duplicate instructions over equal
  /// literals.
  int Const(gdk::ScalarValue v);
  /// \brief Register holding an opaque object (tile spec, array descriptor).
  int Obj(std::shared_ptr<const void> obj, const std::string& tag,
          const std::string& display);

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
  const std::vector<Reg>& regs() const { return regs_; }
  std::vector<Reg>* mutable_regs() { return &regs_; }

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
  std::string RegName(int r) const;

  std::vector<MalInstr> instrs_;
  std::vector<Reg> regs_;
  std::vector<ResultCol> results_;
  // (type, is_null, integer payload, DOUBLE bits, string payload).
  using ConstKey =
      std::tuple<gdk::PhysType, bool, int64_t, uint64_t, std::string>;
  std::map<ConstKey, int> const_pool_;
  int name_counter_ = 0;
};

}  // namespace mal
}  // namespace sciql

#endif  // SCIQL_MAL_PROGRAM_H_
