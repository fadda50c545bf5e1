#include "core/spec_compiler.h"

#include <functional>

#include "base/logging.h"

namespace owl::synth
{

using ila::IlaNode;
using ila::IlaOp;
using ila::StateInfo;
using ila::StateKind;
using smt::TermRef;

namespace
{

/** Collect the node indices of Load expressions inside an expr tree. */
void
collectLoads(const ila::IlaContext &ctx, int32_t root,
             std::set<int32_t> &out)
{
    std::vector<int32_t> stack{root};
    while (!stack.empty()) {
        int32_t cur = stack.back();
        stack.pop_back();
        const IlaNode &n = ctx.node(cur);
        if (n.op == IlaOp::Load)
            out.insert(cur);
        for (int32_t k : n.kids)
            stack.push_back(k);
    }
}

} // namespace

SpecCompiler::SpecCompiler(const ila::Ila &spec, const AbsFunc &alpha,
                           smt::TermTable &tt,
                           const oyster::SymRun &run,
                           const oyster::Design &design)
    : spec(spec), alpha(alpha), tt(tt), run(run), design(design)
{
    if (spec.hasFetch())
        collectLoads(spec.ctx(), spec.fetch().idx(), fetchLoads);
}

int
SpecCompiler::memConstTableId(const StateInfo &info)
{
    return tt.registerTable(info.name, info.width, info.constContents);
}

TermRef
SpecCompiler::translateScalarRead(const StateInfo &info,
                                  const AbsEntry &entry)
{
    int rt = entry.readTime();
    if (rt < 0)
        owl_fatal("abstraction entry for '", info.name,
                  "' has no read effect but is read by the spec");
    switch (entry.type) {
      case MapType::Input:
        return run.inputAt(entry.datapathName, rt);
      case MapType::Register:
        return run.regAt(entry.datapathName, rt - 1);
      case MapType::Output:
        return run.wireAt(entry.datapathName, rt);
      case MapType::Memory:
        owl_fatal("scalar spec state '", info.name,
                  "' mapped to a memory");
    }
    owl_panic("bad MapType");
}

TermRef
SpecCompiler::translate(int32_t node_idx)
{
    const ila::IlaContext &ctx = spec.ctx();
    const IlaNode &n = ctx.node(node_idx);
    auto kid = [&](int i) { return translate(n.kids[i]); };
    switch (n.op) {
      case IlaOp::Const:
        return tt.constant(n.cval);
      case IlaOp::InputVar:
      case IlaOp::StateVar: {
        const StateInfo &info = ctx.state(n.a);
        if (n.isMem)
            owl_fatal("memory state '", info.name,
                      "' used as a scalar in the spec");
        const AbsEntry *e = alpha.entryFor(info.name);
        if (!e)
            owl_fatal("spec state '", info.name,
                      "' is not mapped by the abstraction function");
        return translateScalarRead(info, *e);
      }
      case IlaOp::Load: {
        const IlaNode &m = ctx.node(n.kids[0]);
        owl_assert(m.op == IlaOp::StateVar,
                   "Load base must be a state variable");
        const StateInfo &info = ctx.state(m.a);
        TermRef addr = kid(1);
        if (info.kind == StateKind::MemConst)
            return tt.lookup(memConstTableId(info), addr);
        bool fetch_ctx = fetchLoads.count(node_idx) != 0;
        const AbsEntry *e = alpha.entryFor(info.name, fetch_ctx);
        if (!e)
            owl_fatal("spec memory '", info.name,
                      "' is not mapped by the abstraction function");
        int rt = e->readTime();
        if (rt < 0)
            owl_fatal("no read time for spec memory '", info.name,
                      "'");
        return run.readMemAt(tt, e->datapathName, rt - 1, addr);
      }
      case IlaOp::Store:
        owl_fatal("Store in a scalar context");
      case IlaOp::Not: return tt.mkNot(kid(0));
      case IlaOp::Neg: return tt.mkNeg(kid(0));
      case IlaOp::And: return tt.mkAnd(kid(0), kid(1));
      case IlaOp::Or: return tt.mkOr(kid(0), kid(1));
      case IlaOp::Xor: return tt.mkXor(kid(0), kid(1));
      case IlaOp::Add: return tt.mkAdd(kid(0), kid(1));
      case IlaOp::Sub: return tt.mkSub(kid(0), kid(1));
      case IlaOp::Mul: return tt.mkMul(kid(0), kid(1));
      case IlaOp::Clmul: return tt.mkClmul(kid(0), kid(1));
      case IlaOp::Clmulh: return tt.mkClmulh(kid(0), kid(1));
      case IlaOp::Eq: return tt.mkEq(kid(0), kid(1));
      case IlaOp::Ult: return tt.mkUlt(kid(0), kid(1));
      case IlaOp::Ule: return tt.mkUle(kid(0), kid(1));
      case IlaOp::Slt: return tt.mkSlt(kid(0), kid(1));
      case IlaOp::Sle: return tt.mkSle(kid(0), kid(1));
      case IlaOp::Ite: return tt.mkIte(kid(0), kid(1), kid(2));
      case IlaOp::Extract: return tt.mkExtract(kid(0), n.a, n.b);
      case IlaOp::Concat: return tt.mkConcat(kid(0), kid(1));
      case IlaOp::ZExt: return tt.mkZExt(kid(0), n.width);
      case IlaOp::SExt: return tt.mkSExt(kid(0), n.width);
      case IlaOp::Shl: return tt.mkShl(kid(0), kid(1));
      case IlaOp::Lshr: return tt.mkLshr(kid(0), kid(1));
      case IlaOp::Ashr: return tt.mkAshr(kid(0), kid(1));
      case IlaOp::Rol: return tt.mkRol(kid(0), kid(1));
      case IlaOp::Ror: return tt.mkRor(kid(0), kid(1));
    }
    owl_panic("unhandled ILA op in translation");
}

SpecCompiler::StoreChain
SpecCompiler::flattenStores(int32_t node_idx)
{
    const ila::IlaContext &ctx = spec.ctx();
    const IlaNode &n = ctx.node(node_idx);
    if (n.op == IlaOp::StateVar) {
        return StoreChain{n.a, {}};
    }
    if (n.op == IlaOp::Store) {
        StoreChain chain = flattenStores(n.kids[0]);
        TermRef addr = translate(n.kids[1]);
        TermRef data = translate(n.kids[2]);
        chain.stores.emplace_back(addr, data);
        return chain;
    }
    owl_fatal("unsupported memory-sorted spec expression (expected a "
              "Store chain over a state variable)");
}

TermRef
SpecCompiler::postForScalar(const StateInfo &info, const AbsEntry &entry,
                            const ila::IlaExpr *update)
{
    int wt = entry.writeTime();
    owl_assert(wt > 0, "postForScalar needs a write time");
    TermRef target;
    switch (entry.type) {
      case MapType::Register:
        target = run.regAt(entry.datapathName, wt);
        break;
      case MapType::Output:
        target = run.wireAt(entry.datapathName, wt);
        break;
      default:
        owl_fatal("spec state '", info.name,
                  "' written but mapped to a non-writable component");
    }
    TermRef value;
    if (update) {
        value = translate(update->idx());
    } else {
        // Frame condition: unchanged relative to the initial state.
        switch (entry.type) {
          case MapType::Register:
            value = run.regAt(entry.datapathName, 0);
            break;
          default:
            owl_fatal("frame condition for non-register '", info.name,
                      "'");
        }
    }
    return tt.mkEq(target, value);
}

void
SpecCompiler::postForMemory(const StateInfo &info, const AbsEntry &entry,
                            const ila::IlaExpr *update,
                            std::vector<TermRef> &out)
{
    int wt = entry.writeTime();
    owl_assert(wt > 0, "postForMemory needs a write time");
    const oyster::SymMem &dp = run.memAt(entry.datapathName, wt);

    StoreChain chain;
    if (update) {
        chain = flattenStores(update->idx());
        const StateInfo &base = spec.ctx().state(chain.stateIdx);
        owl_assert(base.name == info.name,
                   "memory update must be a store chain over the "
                   "updated state itself");
    } else {
        chain.stores.clear();
    }

    // Extensional comparison at the union of store addresses. Both
    // sides are chains over the same uninterpreted base, so agreement
    // there implies agreement everywhere.
    std::vector<TermRef> addrs;
    auto add_addr = [&](TermRef a) {
        for (TermRef x : addrs) {
            if (x == a)
                return;
        }
        addrs.push_back(a);
    };
    for (const auto &[a, d] : chain.stores)
        add_addr(a);
    for (const oyster::SymMemWrite &w : dp.writes)
        add_addr(w.addr);

    // The spec chain folds over the same base as the datapath's
    // (concrete in CEGIS replays, uninterpreted otherwise).
    oyster::SymMem base_only = dp;
    base_only.writes.clear();
    for (TermRef a : addrs) {
        // Spec-side read at a: fold the spec store chain (newest
        // outermost) over the shared base.
        TermRef spec_val = oyster::foldMemRead(tt, base_only, a);
        for (const auto &[sa, sd] : chain.stores)
            spec_val = tt.mkIte(tt.mkEq(a, sa), sd, spec_val);
        TermRef dp_val = oyster::foldMemRead(tt, dp, a);
        out.push_back(tt.mkEq(dp_val, spec_val));
    }
}

InstrConditions
SpecCompiler::compileInstr(const ila::Instr &instr)
{
    InstrConditions out;
    out.name = instr.name();
    owl_assert(instr.hasDecode(), "instruction '", instr.name(),
               "' has no decode condition");
    out.pre = translate(instr.decode().idx());

    // α assumptions (e.g. instruction_valid at cycle 1).
    for (const Assumption &a : alpha.assumes()) {
        TermRef w = run.wireAt(a.wire, a.time);
        owl_assert(tt.width(w) == 1, "assumption wire '", a.wire,
                   "' must be 1-bit");
        out.assumes.push_back(w);
    }

    // Updates + frame conditions over every mapped, writable state.
    const auto &states = spec.states();
    for (size_t si = 0; si < states.size(); si++) {
        const StateInfo &info = states[si];
        if (info.kind == StateKind::Input ||
            info.kind == StateKind::MemConst) {
            continue;
        }
        const ila::IlaExpr *update = instr.updateFor(si);
        const AbsEntry *e = alpha.entryFor(info.name);
        if (!e) {
            if (update)
                owl_fatal("spec state '", info.name,
                          "' is updated but unmapped");
            continue;
        }
        if (e->writeTime() < 0) {
            if (update)
                owl_fatal("spec state '", info.name,
                          "' is updated but its abstraction entry has "
                          "no write effect");
            continue; // read-only mapping: no frame condition
        }
        if (info.kind == StateKind::BvState) {
            out.posts.push_back(postForScalar(info, *e, update));
        } else {
            postForMemory(info, *e, update, out.posts);
        }
    }
    return out;
}

smt::TermRef
SpecCompiler::fetchTerm()
{
    owl_assert(spec.hasFetch(), "specification has no fetch function");
    return translate(spec.fetch().idx());
}

TermRef
InstrConditions::holds(smt::TermTable &tt) const
{
    TermRef lhs = pre;
    for (TermRef a : assumes)
        lhs = tt.mkAnd(lhs, a);
    TermRef rhs = tt.trueTerm();
    for (TermRef p : posts)
        rhs = tt.mkAnd(rhs, p);
    return tt.mkImplies(lhs, rhs);
}

std::vector<TermRef>
InstrConditions::violated(smt::TermTable &tt,
                          const std::vector<TermRef> &side) const
{
    std::vector<TermRef> out{pre};
    out.insert(out.end(), assumes.begin(), assumes.end());
    out.insert(out.end(), side.begin(), side.end());
    TermRef all_posts = tt.trueTerm();
    for (TermRef p : posts)
        all_posts = tt.mkAnd(all_posts, p);
    out.push_back(tt.mkNot(all_posts));
    return out;
}

std::vector<InstrConditions>
SpecCompiler::compileAll()
{
    std::vector<InstrConditions> out;
    for (const auto &i : spec.instrs())
        out.push_back(compileInstr(*i));
    return out;
}

oyster::ExprRef
SpecCompiler::decodeToOyster(const ila::Ila &spec, const AbsFunc &alpha,
                             const ila::Instr &instr,
                             oyster::Design &design)
{
    const ila::IlaContext &ctx = spec.ctx();
    std::set<int32_t> fetch_loads;
    if (spec.hasFetch())
        collectLoads(ctx, spec.fetch().idx(), fetch_loads);

    std::function<oyster::ExprRef(int32_t)> go =
        [&](int32_t idx) -> oyster::ExprRef {
        const IlaNode &n = ctx.node(idx);
        auto kid = [&](int i) { return go(n.kids[i]); };
        switch (n.op) {
          case IlaOp::Const:
            return design.lit(n.cval);
          case IlaOp::InputVar:
          case IlaOp::StateVar: {
            const StateInfo &info = ctx.state(n.a);
            const AbsEntry *e = alpha.entryFor(info.name);
            if (!e)
                owl_fatal("decode references unmapped state '",
                          info.name, "'");
            return design.var(e->datapathName);
          }
          case IlaOp::Load: {
            if (!fetch_loads.count(idx))
                owl_fatal("decode condition loads a non-fetch memory; "
                          "cannot translate to datapath logic");
            const AbsEntry *fe = alpha.fetchEntry();
            owl_assert(fe && !fe->fetchWire.empty(),
                       "fetch entry with a fetch wire required");
            return design.var(fe->fetchWire);
          }
          case IlaOp::Not: return design.opNot(kid(0));
          case IlaOp::Neg: return design.opNeg(kid(0));
          case IlaOp::And: return design.opAnd(kid(0), kid(1));
          case IlaOp::Or: return design.opOr(kid(0), kid(1));
          case IlaOp::Xor: return design.opXor(kid(0), kid(1));
          case IlaOp::Add: return design.opAdd(kid(0), kid(1));
          case IlaOp::Sub: return design.opSub(kid(0), kid(1));
          case IlaOp::Eq: return design.opEq(kid(0), kid(1));
          case IlaOp::Ult: return design.opUlt(kid(0), kid(1));
          case IlaOp::Ule: return design.opUle(kid(0), kid(1));
          case IlaOp::Slt: return design.opSlt(kid(0), kid(1));
          case IlaOp::Sle: return design.opSle(kid(0), kid(1));
          case IlaOp::Ite:
            return design.opIte(kid(0), kid(1), kid(2));
          case IlaOp::Extract:
            return design.opExtract(kid(0), n.a, n.b);
          case IlaOp::Concat:
            return design.opConcat(kid(0), kid(1));
          case IlaOp::ZExt: return design.opZExt(kid(0), n.width);
          case IlaOp::SExt: return design.opSExt(kid(0), n.width);
          default:
            owl_fatal("unsupported op in decode-to-datapath "
                      "translation");
        }
    };
    return go(instr.decode().idx());
}

} // namespace owl::synth
