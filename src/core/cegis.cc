#include "core/cegis.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "obs/obs.h"
#include "oyster/symeval.h"
#include "smt/incremental.h"
#include "smt/solver.h"

namespace owl::synth
{

using oyster::SymbolicEvaluator;
using oyster::SymRun;
using smt::CheckResult;
using smt::TermRef;
using smt::TermTable;

const char *
synthStatusName(SynthStatus s)
{
    switch (s) {
      case SynthStatus::Ok: return "ok";
      case SynthStatus::Unsat: return "unsat";
      case SynthStatus::Timeout: return "timeout";
      case SynthStatus::IterLimit: return "iteration-limit";
    }
    return "?";
}

std::chrono::milliseconds
CegisOptions::remaining() const
{
    if (!hasDeadline())
        return std::chrono::milliseconds(0);
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
        return std::chrono::milliseconds(1);
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
}

smt::SolveLimits
CegisOptions::solveLimits() const
{
    smt::SolveLimits limits;
    static_cast<smt::SolverConfig &>(limits) = *this;
    limits.conflictLimit = conflictLimit;
    if (hasDeadline())
        limits.timeLimit = remaining();
    limits.cancelFlag = cancelFlag;
    return limits;
}

HoleValues
zeroHoles(const oyster::Design &sketch)
{
    HoleValues hv;
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            hv.emplace(d.name, BitVec(d.width));
    }
    return hv;
}

std::map<int, std::string>
memoryNames(const oyster::Design &sketch)
{
    std::map<int, std::string> out;
    int idx = 0;
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Memory)
            out[idx] = d.name;
        idx++;
    }
    return out;
}

void
applyInitAliases(const oyster::Design &sketch, const AbsFunc &alpha,
                 TermTable &tt, SymbolicEvaluator &ev)
{
    for (const auto &[a, b] : alpha.initAliases()) {
        int w = sketch.decl(a).width;
        TermRef v = tt.freshVar("reg." + a + ".0", w);
        ev.setInitialReg(a, v);
        ev.setInitialReg(b, v);
    }
}

void
applyCexAliases(const AbsFunc &alpha, Counterexample &cex)
{
    for (const auto &[a, b] : alpha.initAliases()) {
        auto it = cex.regs.find(a);
        if (it != cex.regs.end())
            cex.regs[b] = it->second;
        else
            cex.regs.erase(b);
    }
}

InstrSynthesizer::InstrSynthesizer(const oyster::Design &sketch,
                                   const ila::Ila &spec,
                                   const AbsFunc &alpha)
    : sketch(sketch), spec(spec), alpha(alpha),
      memNames(memoryNames(sketch))
{
}

void
extractCounterexample(const TermTable &tt, const smt::Model &model,
                      const std::map<int, std::string> &mem_names,
                      Counterexample &cex)
{
    // First pass: variables (initial registers and per-cycle inputs),
    // identified by the symbolic evaluator's naming scheme.
    smt::Assignment asg;
    std::vector<std::pair<TermRef, BitVec>> base_reads;
    for (const auto &[idx, val] : model.leafValues) {
        TermRef t{idx};
        const smt::Node &n = tt.node(t);
        if (n.op == smt::Op::Var) {
            const std::string &name = tt.varInfo(n.a).name;
            asg.setVar(n.a, val);
            if (name.rfind("reg.", 0) == 0 &&
                name.size() > 6 &&
                name.compare(name.size() - 2, 2, ".0") == 0) {
                cex.regs[name.substr(4, name.size() - 6)] = val;
            } else if (name.rfind("in.", 0) == 0) {
                size_t dot = name.rfind('.');
                std::string in_name = name.substr(3, dot - 3);
                int cycle = std::stoi(name.substr(dot + 1));
                cex.inputs[{in_name, cycle}] = val;
            }
        }
    }
    // Second pass: memory base reads. Addresses may be symbolic and
    // may depend on *other* base reads (e.g. a register index sliced
    // out of the fetched instruction word). Children always have
    // smaller term indices than their parents, so resolving base
    // reads in ascending index order and feeding each resolved word
    // back into the assignment handles those chains.
    std::vector<std::pair<uint32_t, BitVec>> base_reads_sorted;
    for (const auto &[idx, val] : model.leafValues) {
        if (tt.node(TermRef{idx}).op == smt::Op::BaseRead)
            base_reads_sorted.emplace_back(idx, val);
    }
    std::sort(base_reads_sorted.begin(), base_reads_sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[idx, val] : base_reads_sorted) {
        const smt::Node &n = tt.node(TermRef{idx});
        BitVec addr = evalTerm(tt, n.children[0], asg);
        asg.setMemWord(n.a, addr.toUint64(), val);
        auto it = mem_names.find(n.a);
        if (it == mem_names.end())
            continue;
        cex.mems[it->second][addr.toUint64()] = val;
    }
}

SynthStatus
InstrSynthesizer::verifyCandidate(const ila::Instr &instr,
                                  const HoleValues &candidate,
                                  Counterexample *cex,
                                  const CegisOptions &opts,
                                  smt::CheckStats *stats)
{
    obs::ScopedSpan span("verify");
    TermTable tt;
    SymbolicEvaluator ev(sketch, tt);
    for (const auto &[name, value] : candidate)
        ev.setHole(name, tt.constant(value));
    applyInitAliases(sketch, alpha, tt, ev);
    SymRun run = ev.run(alpha.cycles());

    SpecCompiler sc(spec, alpha, tt, run, sketch);
    // A model is a state where the candidate control violates the
    // instruction's semantics.
    std::vector<TermRef> assertions = sc.compileInstr(instr).violated(tt);

    smt::Model model;
    smt::SolveLimits lims = opts.solveLimits();
    lims.ackermannSeeds = &ackSeeds[instr.name()];
    CheckResult r = smt::checkSat(tt, assertions, &model, lims, stats);
    switch (r) {
      case CheckResult::Unsat:
        span.attr("result", "valid");
        return SynthStatus::Ok;
      case CheckResult::Unknown:
        span.attr("result", "timeout");
        return SynthStatus::Timeout;
      case CheckResult::Sat:
        span.attr("result", "refuted");
        if (cex)
            extractCounterexample(tt, model, memNames, *cex);
        return SynthStatus::Unsat; // candidate refuted
    }
    owl_panic("unreachable");
}

SymRun
replayCex(const oyster::Design &sketch, const AbsFunc &alpha,
          TermTable &tt, const std::map<std::string, TermRef> &hole_terms,
          Counterexample cex)
{
    applyCexAliases(alpha, cex);
    SymbolicEvaluator ev(sketch, tt);
    for (const auto &[name, term] : hole_terms)
        ev.setHole(name, term);
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Register) {
            auto it = cex.regs.find(d.name);
            BitVec v = it != cex.regs.end() ? it->second
                                            : BitVec(d.width);
            ev.setInitialReg(d.name, tt.constant(v));
        } else if (d.kind == oyster::DeclKind::Input) {
            for (int t = 1; t <= alpha.cycles(); t++) {
                auto it = cex.inputs.find({d.name, t});
                BitVec v = it != cex.inputs.end() ? it->second
                                                  : BitVec(d.width);
                ev.setInput(d.name, t, tt.constant(v));
            }
        } else if (d.kind == oyster::DeclKind::Memory) {
            auto it = cex.mems.find(d.name);
            ev.setConcreteMem(d.name,
                              it != cex.mems.end()
                                  ? it->second
                                  : std::map<uint64_t, BitVec>{});
        }
    }
    return ev.run(alpha.cycles());
}

SynthStatus
cegisLoop(const CegisOptions &opts, int &iterations,
          const VerifyStep &verify, const SynthStep &synth)
{
    std::vector<Counterexample> cexes;
    for (int iter = 0; iter < opts.maxIterations; iter++) {
        iterations = iter + 1;
        OWL_COUNTER_INC("cegis.iterations");
        obs::ScopedSpan iter_span("cegis.iter");
        iter_span.attr("n", iter);
        iter_span.attr("cex_count", cexes.size());
        if (opts.expired())
            return SynthStatus::Timeout;
        Counterexample cex;
        SynthStatus v = verify(cex);
        if (v != SynthStatus::Unsat) // proved (Ok) or out of budget
            return v;
        cexes.push_back(std::move(cex));
        OWL_COUNTER_INC("cegis.counterexamples");
        // Inter-step budget check: verification can consume the whole
        // deadline in SAT calls too short to trip the CDCL-stride
        // poll, so re-check before paying for the synth step.
        if (opts.expired())
            return SynthStatus::Timeout;
        SynthStatus s = synth(cexes, iter_span);
        if (s != SynthStatus::Ok)
            return s;
    }
    return SynthStatus::IterLimit;
}

namespace
{

/**
 * Encode one counterexample replay for one instruction, symbolic
 * holes and every other leaf concrete, as (Pre ∧ assumes) → posts.
 * Shared by the fresh per-iteration path (which conjoins one term per
 * counterexample into each query) and the incremental path (which
 * adds each term as a new activation-literal group exactly once).
 */
TermRef
buildCexConstraint(const oyster::Design &sketch, const ila::Ila &spec,
                   const AbsFunc &alpha, TermTable &tt,
                   const std::map<std::string, TermRef> &hole_vars,
                   const ila::Instr &instr, const Counterexample &cex)
{
    SymRun run = replayCex(sketch, alpha, tt, hole_vars, cex);
    SpecCompiler sc(spec, alpha, tt, run, sketch);
    return sc.compileInstr(instr).holds(tt);
}

/**
 * Solve the synth query in ctx and fix the candidate to its
 * lexicographically-minimal hole assignment: holes in name order, bits
 * msb-to-lsb, each bit probed with an assumption and pinned to 0 when
 * a solution with that prefix exists.
 *
 * The point is determinism across solving strategies: which model a
 * SAT solver returns depends on learned clauses, activities, and
 * saved phases, so an incremental session (or a portfolio race)
 * naturally drifts away from a fresh solver-per-iteration run even
 * though the queries are equivalent. The lexmin assignment is a
 * property of the formula alone, so both paths — and every portfolio
 * configuration — land on bit-identical candidates, which keeps the
 * whole CEGIS trajectory (counterexamples included) reproducible.
 * Probes are assumption-only solves on a warm solver, typically pure
 * propagation after the initial model.
 */
SynthStatus
solveLexmin(smt::IncrementalContext &ctx,
            const std::map<std::string, TermRef> &hole_vars,
            const CegisOptions &opts, HoleValues &candidate,
            smt::CheckStats *stats = nullptr)
{
    switch (ctx.check(nullptr, opts.solveLimits(), stats)) {
      case CheckResult::Unsat:
        return SynthStatus::Unsat;
      case CheckResult::Unknown:
        return SynthStatus::Timeout;
      case CheckResult::Sat:
        break;
    }
    std::vector<sat::Lit> fixed;
    for (const auto &[name, var] : hole_vars) {
        std::vector<sat::Lit> lits = ctx.literalsOf(var);
        BitVec value(static_cast<int>(lits.size()));
        for (int b = static_cast<int>(lits.size()) - 1; b >= 0; b--) {
            // Honor the run's budget between probes: each probe is
            // usually pure propagation, well below the CDCL deadline
            // stride, so without this check a long probe sequence
            // could overrun an already-expired deadline.
            if (opts.expired())
                return SynthStatus::Timeout;
            fixed.push_back(~lits[b]);
            smt::CheckResult r =
                ctx.check(nullptr, opts.solveLimits(), nullptr, fixed);
            if (r == smt::CheckResult::Unknown)
                return SynthStatus::Timeout;
            if (r == smt::CheckResult::Unsat) {
                // No solution has this bit 0 under the fixed prefix:
                // it is 1 in every remaining solution.
                fixed.back() = lits[b];
                value.setBit(b, true);
            }
        }
        candidate[name] = value;
    }
    return SynthStatus::Ok;
}

/** Number of holes whose value differs between two candidates. */
int
holeDelta(const HoleValues &before, const HoleValues &after)
{
    int changed = 0;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        if (it == before.end() || !(it->second == v))
            changed++;
    }
    return changed;
}

} // namespace

SynthSession::SynthSession(const oyster::Design &sketch,
                           const ila::Ila &spec, const AbsFunc &alpha,
                           const std::string &instr_name,
                           const CegisOptions &opts)
    : sketch(sketch), spec(spec), alpha(alpha),
      instr_name(instr_name), instr(spec.instr(instr_name)),
      ctx(tt, opts)
{
    // Hole variables are shared by every counterexample group,
    // exactly like the fresh path shares them per query.
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            holeVars[d.name] = tt.freshVar("hole." + d.name, d.width);
    }
}

void
SynthSession::addCex(const Counterexample &cex)
{
    TermRef c = buildCexConstraint(sketch, spec, alpha, tt, holeVars,
                                   instr, cex);
    ctx.addGroup({c});
}

SynthStatus
SynthSession::solve(HoleValues &candidate, const CegisOptions &opts)
{
    if (opts.expired())
        return SynthStatus::Timeout;
    return solveLexmin(ctx, holeVars, opts, candidate);
}

SynthStatus
InstrSynthesizer::synthStep(const ila::Instr &instr,
                            const std::vector<Counterexample> &cexes,
                            HoleValues &candidate,
                            const CegisOptions &opts,
                            smt::CheckStats *stats)
{
    obs::ScopedSpan span("synth");
    span.attr("cex_count", cexes.size());
    TermTable tt;

    // Shared hole variables across every counterexample replay.
    std::map<std::string, TermRef> hole_vars;
    for (const oyster::Decl &d : sketch.decls()) {
        if (d.kind == oyster::DeclKind::Hole)
            hole_vars[d.name] = tt.freshVar("hole." + d.name, d.width);
    }

    // Even the fresh path encodes through an IncrementalContext — a
    // throwaway one per call, so nothing carries over between
    // iterations — because hole canonicalization needs cheap
    // assumption-based re-solves against the already-blasted query.
    smt::IncrementalContext ctx(tt, opts);
    for (const Counterexample &cex : cexes) {
        ctx.assertPermanent(buildCexConstraint(
            sketch, spec, alpha, tt, hole_vars, instr, cex));
    }
    return solveLexmin(ctx, hole_vars, opts, candidate, stats);
}

CegisResult
InstrSynthesizer::synthesize(const ila::Instr &instr,
                             const HoleValues *pin,
                             const CegisOptions &opts)
{
    obs::ScopedSpan span("cegis");
    span.attr("instr", instr.name());
    span.attr("pinned", pin ? 1 : 0);
    span.attr("incremental", opts.incremental ? 1 : 0);
    OWL_COUNTER_INC("cegis.instructions");

    CegisResult result;
    HoleValues candidate = pin ? *pin : zeroHoles(sketch);
    // Fill any holes missing from the pin with zeros.
    for (auto &[name, v] : zeroHoles(sketch))
        candidate.emplace(name, v);

    std::unique_ptr<SynthSession> session;
    bool pooled = false;
    if (opts.incremental) {
        if (opts.sessionPool) {
            session = opts.sessionPool->checkout(instr.name(), opts);
            pooled = session != nullptr;
        }
        if (!session) {
            session = std::make_unique<SynthSession>(
                sketch, spec, alpha, instr.name(), opts);
        }
    }
    // A pooled session carries stats from earlier runs; flush only
    // this run's deltas into the process counters.
    smt::IncrementalStats session_base;
    if (session)
        session_base = session->stats();

    // Ackermann constraints encoded for this instruction across all
    // its queries: every fresh verify/synth query's count plus (at
    // the end) the incremental session's cumulative total.
    uint64_t instr_ack = 0;

    auto verify = [&](Counterexample &cex) {
        smt::CheckStats verify_stats;
        SynthStatus v =
            verifyCandidate(instr, candidate, &cex, opts, &verify_stats);
        instr_ack += verify_stats.ackermannConstraints;
        return v;
    };
    auto synth = [&](const std::vector<Counterexample> &cexes,
                     obs::ScopedSpan &iter_span) {
        HoleValues previous = candidate;
        SynthStatus s;
        if (session) {
            obs::ScopedSpan synth_span("synth");
            synth_span.attr("cex_count", cexes.size());
            synth_span.attr("incremental", 1);
            session->addCex(cexes.back());
            s = session->solve(candidate, opts);
        } else {
            smt::CheckStats synth_stats;
            s = synthStep(instr, cexes, candidate, opts, &synth_stats);
            instr_ack += synth_stats.ackermannConstraints;
        }
        if (s != SynthStatus::Ok)
            return s;
        int delta = holeDelta(previous, candidate);
        iter_span.attr("hole_delta", delta);
        OWL_TRACE_EVENT("cegis", "iter instr=", instr.name(),
                        " n=", cexes.size() - 1, " cex=", cexes.size(),
                        " hole_delta=", delta);
        return s;
    };
    result.status = cegisLoop(opts, result.iterations, verify, synth);
    if (result.status == SynthStatus::Ok)
        result.holes = candidate;

    if (session) {
        const smt::IncrementalStats &st = session->stats();
        OWL_COUNTER_ADD("cegis.incremental.solve_calls",
                        st.solveCalls - session_base.solveCalls);
        OWL_COUNTER_ADD("cegis.incremental.clauses_reused",
                        st.clausesReused - session_base.clausesReused);
        OWL_COUNTER_ADD("cegis.incremental.cache_hits",
                        st.cacheHits - session_base.cacheHits);
        instr_ack +=
            st.ackermannConstraints - session_base.ackermannConstraints;
        if (pooled)
            opts.sessionPool->checkin(std::move(session));
    }
    OWL_HISTOGRAM_RECORD("cegis.instr_ackermann", instr_ack);
    span.attr("status", synthStatusName(result.status));
    span.attr("iterations", result.iterations);
    span.attr("ackermann", instr_ack);
    OWL_TRACE_EVENT("cegis", "done instr=", instr.name(),
                    " status=", synthStatusName(result.status),
                    " iterations=", result.iterations);
    return result;
}

} // namespace owl::synth
