#include "src/mal/interpreter.h"

#include <chrono>

#include "src/common/string_util.h"
#include "src/obs/trace.h"

namespace sciql {
namespace mal {

namespace {

/// Summed row counts over a register list: BATs contribute their count;
/// result-side scalars count as one row (an aggregate's scalar output is
/// one value), input-side scalars as zero (constants are not flowing rows).
uint64_t SumRows(const MalContext& ctx, const std::vector<int>& regs,
                 bool scalar_is_row) {
  uint64_t rows = 0;
  for (int r : regs) {
    const MalValue& v = ctx.Reg(r);
    if (v.IsBat()) {
      rows += v.bat->Count();
    } else if (scalar_is_row && v.IsScalar()) {
      rows += 1;
    }
  }
  return rows;
}

}  // namespace

bool OpSig::ArityOk(size_t nargs) const {
  if (group.empty()) return nargs == fixed.size();
  if (nargs < fixed.size() + group.size()) return false;
  return (nargs - fixed.size()) % group.size() == 0;
}

std::string OpSig::ArityString() const {
  if (group.empty()) return StrFormat("%zu", fixed.size());
  return StrFormat("%zu+%zuk (k>=1)", fixed.size(), group.size());
}

AK OpSig::ArgSpec(size_t i) const {
  if (i < fixed.size()) return fixed[i];
  return group[(i - fixed.size()) % group.size()];
}

bool OpDef::ShapeOk(size_t nargs, size_t nrets) const {
  for (const OpSig& s : sigs) {
    if (s.ArityOk(nargs) && s.RetCount() == nrets) return true;
  }
  return false;
}

std::string OpDef::ShapeMismatch(const MalInstr& in) const {
  const OpSig& s = sigs[0];
  return "`" + in.name + "` expects " + s.ArityString() +
         StrFormat(" args and %zu rets, got %zu args and %zu rets",
                   s.RetCount(), in.args.size(), in.rets.size());
}

const MalEngine& MalEngine::Global() {
  static const MalEngine engine;
  return engine;
}

Status MalEngine::Run(const MalProgram& prog, MalContext* ctx) const {
  ctx->prog = &prog;
  ctx->vars.assign(prog.NumVars(), MalValue::None());
  for (size_t i = 0; i < prog.instrs().size(); ++i) {
    const MalInstr& instr = prog.instrs()[i];
    if (ctx->trace == nullptr) {
      SCIQL_RETURN_NOT_OK(RunInstr(instr, ctx));
      continue;
    }
    // Traced step: sample wall time, row counts and the kernel-telemetry
    // delta around the instruction. The delta is a before/after snapshot
    // diff of the process-wide counters, never a reset — concurrent
    // sessions keep their own attribution.
    obs::InstrSample sample;
    sample.name = instr.name;
    sample.in_rows = SumRows(*ctx, instr.args, /*scalar_is_row=*/false);
    gdk::TelemetrySnapshot before = gdk::CaptureTelemetry();
    auto start = std::chrono::steady_clock::now();
    SCIQL_RETURN_NOT_OK(RunInstr(instr, ctx));
    sample.micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    sample.delta = gdk::DeltaSince(before);
    sample.out_rows = SumRows(*ctx, instr.rets, /*scalar_is_row=*/true);
    ctx->trace->RecordInstr(i, std::move(sample));
  }
  return Status::OK();
}

Status MalEngine::RunInstr(const MalInstr& instr, MalContext* ctx) const {
  const OpDef* op = instr.op;
  if (op == nullptr) {
    return Status::Internal(
        StrFormat("unknown MAL operation: %s", instr.name.c_str()));
  }
  if (op->kernel == nullptr) {
    return Status::Internal(
        StrFormat("%s is display-only and cannot run", instr.name.c_str()));
  }
  if (!op->ShapeOk(instr.args.size(), instr.rets.size())) {
    return Status::Internal(op->ShapeMismatch(instr));
  }
  for (int r : instr.rets) {
    if (ctx->prog->reg(r).kind != MalProgram::RegKind::kVar) {
      return Status::Internal(StrFormat("%s writes non-variable register %d",
                                        instr.name.c_str(), r));
    }
  }
  Status st = op->kernel(ctx, instr);
  if (!st.ok()) {
    return Status::ExecError(
        StrFormat("%s failed: %s", instr.name.c_str(), st.ToString().c_str()));
  }
  return Status::OK();
}

}  // namespace mal
}  // namespace sciql
