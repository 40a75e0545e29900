#include "cgra/bytecode.hpp"

#include <cmath>

#include "cgra/exec.hpp"
#include "core/error.hpp"

namespace citl::cgra {

namespace {

[[nodiscard]] BcOp bc_op(OpKind k) {
  switch (k) {
    case OpKind::kConst: return BcOp::kConst;
    case OpKind::kParam: return BcOp::kParam;
    case OpKind::kState: return BcOp::kState;
    case OpKind::kLoad: return BcOp::kLoad;
    case OpKind::kStore: return BcOp::kStore;
    case OpKind::kMove: return BcOp::kMove;
    case OpKind::kAdd: return BcOp::kAdd;
    case OpKind::kSub: return BcOp::kSub;
    case OpKind::kMul: return BcOp::kMul;
    case OpKind::kDiv: return BcOp::kDiv;
    case OpKind::kSqrt: return BcOp::kSqrt;
    case OpKind::kNeg: return BcOp::kNeg;
    case OpKind::kAbs: return BcOp::kAbs;
    case OpKind::kMin: return BcOp::kMin;
    case OpKind::kMax: return BcOp::kMax;
    case OpKind::kFloor: return BcOp::kFloor;
    case OpKind::kSin: return BcOp::kSin;
    case OpKind::kCos: return BcOp::kCos;
    case OpKind::kCmpLt: return BcOp::kCmpLt;
    case OpKind::kCmpLe: return BcOp::kCmpLe;
    case OpKind::kCmpEq: return BcOp::kCmpEq;
    case OpKind::kSelect: return BcOp::kSelect;
  }
  CITL_CHECK_MSG(false, "unloweable OpKind");
  return BcOp::kHalt;
}

/// Lane maps (mirrors batch.cpp: dense passes index rows directly, masked
/// passes indirect through the active-lane list).
struct IdentityMap {
  std::size_t operator()(std::size_t k) const noexcept { return k; }
};
struct IndexMap {
  const std::uint32_t* ids;
  std::size_t operator()(std::size_t k) const noexcept { return ids[k]; }
};

template <typename F>
[[nodiscard]] F* scratch_base(const BcContext& ctx) noexcept {
  if constexpr (std::is_same_v<F, float>) {
    return ctx.scratch_f;
  } else {
    return ctx.scratch_d;
  }
}

/// Batched CORDIC, bit-identical to BatchedCgraMachine::eval_cordic (and,
/// per lane, to detail::cordic_rotate): reduce lane-by-lane, then rotate all
/// lanes branch-free with the same operation sequence as the scalar rotation.
template <typename F, typename LaneMap>
void bc_cordic(bool want_sin, const double* in, double* out, F* scratch,
               std::size_t lanes, const LaneMap& lm, std::size_t n_active) {
  F* const x = scratch;
  F* const y = x + lanes;
  F* const zr = y + lanes;
  F* const flip = zr + lanes;
  for (std::size_t k = 0; k < n_active; ++k) {
    detail::cordic_reduce(static_cast<F>(in[lm(k)]), &zr[k], &flip[k]);
    x[k] = F(detail::kCordicGainInv);
    y[k] = F(0);
  }
  F pow2 = F(1);
  for (int i = 0; i < detail::kCordicIters; ++i) {
    const F at = F(detail::kCordicAtan[i]);
    for (std::size_t k = 0; k < n_active; ++k) {
      const F xs = x[k] * pow2;
      const F ys = y[k] * pow2;
      const bool pos = zr[k] >= F(0);
      const F xn = pos ? x[k] - ys : x[k] + ys;
      const F yn = pos ? y[k] + xs : y[k] - xs;
      const F zn = pos ? zr[k] - at : zr[k] + at;
      x[k] = xn;
      y[k] = yn;
      zr[k] = zn;
    }
    pow2 = pow2 * F(0.5);
  }
  if (want_sin) {
    for (std::size_t k = 0; k < n_active; ++k) {
      out[lm(k)] = static_cast<double>(y[k]);
    }
  } else {
    for (std::size_t k = 0; k < n_active; ++k) {
      out[lm(k)] = static_cast<double>(flip[k] * x[k]);
    }
  }
}

// The VM core. Dispatch is a computed goto on GNU-compatible compilers (one
// indirect jump per instruction, no bounds re-check, no switch lowering);
// elsewhere it degrades to a switch in a loop with identical semantics. The
// handler bodies are written once and expanded for whichever dispatcher the
// toolchain supports.
#if defined(__GNUC__) || defined(__clang__)
#define CITL_BC_GOTO 1
#endif

template <typename F, typename LaneMap>
void execute(const std::vector<BytecodeProgram::Instr>& instrs,
             const BcContext& ctx, SensorBus* const* buses, const LaneMap& lm,
             std::size_t n) {
  const std::size_t lanes = ctx.lanes;
  F* const scratch = scratch_base<F>(ctx);
  const BytecodeProgram::Instr* pc = instrs.data();

  // Operand row of the current instruction: the pre-resolved bank + offset.
#define CITL_BC_ROW(WHICH) \
  (pc->WHICH##_pipe ? ctx.pipe_regs + pc->WHICH : ctx.values + pc->WHICH)

#if CITL_BC_GOTO
  static const void* const kLabels[] = {
      &&l_kConst, &&l_kParam, &&l_kState, &&l_kLoad,  &&l_kStore, &&l_kMove,
      &&l_kAdd,   &&l_kSub,   &&l_kMul,   &&l_kDiv,   &&l_kSqrt,  &&l_kNeg,
      &&l_kAbs,   &&l_kMin,   &&l_kMax,   &&l_kFloor, &&l_kSin,   &&l_kCos,
      &&l_kCmpLt, &&l_kCmpLe, &&l_kCmpEq, &&l_kSelect, &&l_kHalt};
#define CITL_BC_CASE(NAME) l_##NAME:
#define CITL_BC_NEXT()                                \
  do {                                                \
    ++pc;                                             \
    goto* kLabels[static_cast<std::size_t>(pc->op)];  \
  } while (0)
  goto* kLabels[static_cast<std::size_t>(pc->op)];
#else
#define CITL_BC_CASE(NAME) case BcOp::NAME:
#define CITL_BC_NEXT() \
  ++pc;                \
  continue
  for (;;) {
    switch (pc->op) {
#endif

  CITL_BC_CASE(kConst) {
    const double q = static_cast<double>(static_cast<F>(pc->konst));
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) out[lm(k)] = q;
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kParam) {
    const double* const src = ctx.param_vals + pc->a;
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) out[lm(k)] = src[lm(k)];
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kState) {
    const double* const src = ctx.state_vals + pc->a;
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) out[lm(k)] = src[lm(k)];
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kLoad) {
    const double* const a = CITL_BC_ROW(a);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      const DecodedAddress da = decode_address(a[l]);
      out[l] = static_cast<double>(
          static_cast<F>(buses[l]->read(da.region, da.offset)));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kStore) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      const DecodedAddress da = decode_address(a[l]);
      buses[l]->write(da.region, da.offset, b[l]);
      out[l] = b[l];
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kMove) {
    const double* const a = CITL_BC_ROW(a);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) out[lm(k)] = a[lm(k)];
    CITL_BC_NEXT();
  }
#define CITL_BC_BIN(NAME, OP)                                     \
  CITL_BC_CASE(NAME) {                                            \
    const double* const a = CITL_BC_ROW(a);                       \
    const double* const b = CITL_BC_ROW(b);                       \
    double* const out = ctx.values + pc->dst;                     \
    for (std::size_t k = 0; k < n; ++k) {                         \
      const std::size_t l = lm(k);                                \
      out[l] = static_cast<double>(static_cast<F>(a[l])           \
                                       OP static_cast<F>(b[l]));  \
    }                                                             \
    CITL_BC_NEXT();                                               \
  }
  CITL_BC_BIN(kAdd, +)
  CITL_BC_BIN(kSub, -)
  CITL_BC_BIN(kMul, *)
  CITL_BC_BIN(kDiv, /)
#undef CITL_BC_BIN
  CITL_BC_CASE(kSqrt) {
    const double* const a = CITL_BC_ROW(a);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<double>(std::sqrt(static_cast<F>(a[l])));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kNeg) {
    const double* const a = CITL_BC_ROW(a);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<double>(-static_cast<F>(a[l]));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kAbs) {
    const double* const a = CITL_BC_ROW(a);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<double>(std::fabs(static_cast<F>(a[l])));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kMin) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<double>(
          std::fmin(static_cast<F>(a[l]), static_cast<F>(b[l])));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kMax) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<double>(
          std::fmax(static_cast<F>(a[l]), static_cast<F>(b[l])));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kFloor) {
    const double* const a = CITL_BC_ROW(a);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<double>(std::floor(static_cast<F>(a[l])));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kSin) {
    bc_cordic<F>(true, CITL_BC_ROW(a), ctx.values + pc->dst, scratch, lanes,
                 lm, n);
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kCos) {
    bc_cordic<F>(false, CITL_BC_ROW(a), ctx.values + pc->dst, scratch, lanes,
                 lm, n);
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kCmpLt) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<F>(a[l]) < static_cast<F>(b[l]) ? 1.0 : 0.0;
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kCmpLe) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<F>(a[l]) <= static_cast<F>(b[l]) ? 1.0 : 0.0;
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kCmpEq) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<F>(a[l]) == static_cast<F>(b[l]) ? 1.0 : 0.0;
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kSelect) {
    const double* const a = CITL_BC_ROW(a);
    const double* const b = CITL_BC_ROW(b);
    const double* const c = CITL_BC_ROW(c);
    double* const out = ctx.values + pc->dst;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t l = lm(k);
      out[l] = static_cast<F>(a[l]) != F(0)
                   ? static_cast<double>(static_cast<F>(b[l]))
                   : static_cast<double>(static_cast<F>(c[l]));
    }
    CITL_BC_NEXT();
  }
  CITL_BC_CASE(kHalt) { return; }
#if !CITL_BC_GOTO
    }  // switch
  }    // for
#endif

#undef CITL_BC_ROW
#undef CITL_BC_CASE
#undef CITL_BC_NEXT
}

}  // namespace

BytecodeProgram::BytecodeProgram(const CompiledKernel& kernel,
                                 std::size_t lanes) {
  const Dfg& g = kernel.dfg;
  const auto row = [&](NodeId id) {
    return static_cast<std::uint32_t>(static_cast<std::size_t>(id) * lanes);
  };
  // Node -> param/state slot (mirrors the machines' slot tables).
  std::vector<int> param_slot(g.size(), -1);
  std::vector<int> state_slot(g.size(), -1);
  const auto& params = g.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    param_slot[static_cast<std::size_t>(params[i].node)] = static_cast<int>(i);
  }
  const auto& states = g.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    state_slot[static_cast<std::size_t>(states[i].node)] = static_cast<int>(i);
  }

  const std::vector<NodeId> topo = g.topo_order();
  instrs_.reserve(topo.size() + 1);
  for (NodeId id : topo) {
    const Node& node = g.node(id);
    Instr ins;
    ins.op = bc_op(node.kind);
    ins.dst = row(id);
    switch (node.kind) {
      case OpKind::kConst:
        ins.konst = node.constant;
        break;
      case OpKind::kParam:
        ins.a = static_cast<std::uint32_t>(
            static_cast<std::size_t>(
                param_slot[static_cast<std::size_t>(id)]) *
            lanes);
        break;
      case OpKind::kState:
        ins.a = static_cast<std::uint32_t>(
            static_cast<std::size_t>(
                state_slot[static_cast<std::size_t>(id)]) *
            lanes);
        break;
      default: {
        const unsigned arity = node.arity();
        if (arity > 0) {
          ins.a = row(node.args[0]);
          ins.a_pipe = g.is_pipeline_edge(node.args[0], id) ? 1 : 0;
        }
        if (arity > 1) {
          ins.b = row(node.args[1]);
          ins.b_pipe = g.is_pipeline_edge(node.args[1], id) ? 1 : 0;
        }
        if (arity > 2) {
          ins.c = row(node.args[2]);
          ins.c_pipe = g.is_pipeline_edge(node.args[2], id) ? 1 : 0;
        }
        break;
      }
    }
    instrs_.push_back(ins);
  }
  instrs_.push_back(Instr{});  // kHalt
}

void BytecodeProgram::run_dense(Precision precision, const BcContext& ctx,
                                SensorBus* const* buses) const {
  if (precision == Precision::kFloat32) {
    execute<float>(instrs_, ctx, buses, IdentityMap{}, ctx.lanes);
  } else {
    execute<double>(instrs_, ctx, buses, IdentityMap{}, ctx.lanes);
  }
}

void BytecodeProgram::run_masked(Precision precision, const BcContext& ctx,
                                 SensorBus* const* buses,
                                 const std::uint32_t* lane_ids,
                                 std::size_t n_active) const {
  if (precision == Precision::kFloat32) {
    execute<float>(instrs_, ctx, buses, IndexMap{lane_ids}, n_active);
  } else {
    execute<double>(instrs_, ctx, buses, IndexMap{lane_ids}, n_active);
  }
}

}  // namespace citl::cgra
