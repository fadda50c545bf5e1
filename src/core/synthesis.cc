#include "core/synthesis.h"

#include <future>
#include <iostream>
#include <vector>

#include "base/logging.h"
#include "oyster/lint.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "oyster/symeval.h"
#include "smt/solver.h"

namespace owl::synth
{

using oyster::SymbolicEvaluator;
using oyster::SymRun;
using smt::CheckResult;
using smt::TermRef;
using smt::TermTable;

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::Monolithic: return "monolithic";
      case Strategy::PerInstruction: return "per-instruction";
      case Strategy::PerInstructionParallel:
        return "per-instruction-parallel";
    }
    return "?";
}

namespace
{

/**
 * Monolithic synthesis (Equation (1)): one joint CEGIS query over the
 * whole specification. Hole implementations are per-instruction
 * constant vectors selected by the decode preconditions, so the
 * solution space matches what per-instruction + control union can
 * express — but the solver must handle the conjunction over all
 * instructions at once.
 */
class MonolithicSynthesizer
{
  public:
    MonolithicSynthesizer(const oyster::Design &sketch,
                          const ila::Ila &spec, const AbsFunc &alpha)
        : sketch(sketch), spec(spec), alpha(alpha),
          memNames(memoryNames(sketch))
    {
        for (const oyster::Decl &d : sketch.decls()) {
            if (d.kind == oyster::DeclKind::Hole)
                holes.push_back(&d);
        }
        for (const auto &i : spec.instrs())
            instrs.push_back(i.get());
    }

    SynthStatus
    run(PerInstrResults &results, const CegisOptions &opts,
        int &iterations)
    {
        obs::ScopedSpan span("cegis");
        span.attr("mono", 1);
        span.attr("instrs", instrs.size());

        // candidate[j][hole] for instruction j.
        std::vector<HoleValues> candidate(instrs.size());
        for (size_t j = 0; j < instrs.size(); j++) {
            for (const oyster::Decl *h : holes)
                candidate[j][h->name] = BitVec(h->width);
        }

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
            SynthStatus v = verify(candidate, cex, opts);
            if (v == SynthStatus::Ok) {
                results.clear();
                for (size_t j = 0; j < instrs.size(); j++)
                    results.emplace_back(instrs[j]->name(),
                                         candidate[j]);
                return SynthStatus::Ok;
            }
            if (v == SynthStatus::Timeout)
                return SynthStatus::Timeout;
            cexes.push_back(std::move(cex));
            OWL_COUNTER_INC("cegis.counterexamples");
            OWL_TRACE_EVENT("cegis", "mono iter n=", iter,
                            " cex=", cexes.size());
            // Inter-step budget check (mirrors the per-instruction
            // loop): short SAT calls can slip under the CDCL deadline
            // stride, so the deadline must also be honored between
            // the verify and synth halves of an iteration.
            if (opts.expired())
                return SynthStatus::Timeout;
            SynthStatus s = synth(cexes, candidate, opts);
            if (s != SynthStatus::Ok)
                return s;
        }
        return SynthStatus::IterLimit;
    }

  private:
    const oyster::Design &sketch;
    const ila::Ila &spec;
    const AbsFunc &alpha;
    std::map<int, std::string> memNames;
    std::vector<const oyster::Decl *> holes;
    std::vector<const ila::Instr *> instrs;

    /** Fold per-instruction values into the hole's selection chain. */
    TermRef
    holeChain(TermTable &tt, const std::vector<TermRef> &pres,
              const std::vector<TermRef> &per_instr_vals) const
    {
        TermRef v = per_instr_vals.back();
        for (int j = per_instr_vals.size() - 2; j >= 0; j--)
            v = tt.mkIte(pres[j], per_instr_vals[j], v);
        return v;
    }

    SynthStatus
    verify(const std::vector<HoleValues> &candidate, Counterexample &cex,
           const CegisOptions &opts)
    {
        obs::ScopedSpan span("verify");
        TermTable tt;
        SymbolicEvaluator ev(sketch, tt);
        std::map<std::string, TermRef> hole_vars;
        for (const oyster::Decl *h : holes) {
            hole_vars[h->name] =
                tt.freshVar("holev." + h->name, h->width);
            ev.setHole(h->name, hole_vars[h->name]);
        }
        applyInitAliases(sketch, alpha, tt, ev);
        SymRun run = ev.run(alpha.cycles());
        SpecCompiler sc(spec, alpha, tt, run, sketch);
        std::vector<InstrConditions> conds = sc.compileAll();

        std::vector<TermRef> assertions;
        std::vector<TermRef> pres;
        for (const InstrConditions &c : conds)
            pres.push_back(c.pre);
        // Hole definition constraints: the hole equals the candidate
        // constant of whichever instruction's precondition holds.
        for (const oyster::Decl *h : holes) {
            std::vector<TermRef> vals;
            for (size_t j = 0; j < instrs.size(); j++)
                vals.push_back(tt.constant(candidate[j].at(h->name)));
            assertions.push_back(tt.mkEq(hole_vars[h->name],
                                         holeChain(tt, pres, vals)));
        }
        // ¬ ∧_j ((pre_j ∧ assumes) → posts_j)
        TermRef all = tt.trueTerm();
        for (const InstrConditions &c : conds) {
            TermRef lhs = c.pre;
            for (TermRef a : c.assumes)
                lhs = tt.mkAnd(lhs, a);
            TermRef rhs = tt.trueTerm();
            for (TermRef p : c.posts)
                rhs = tt.mkAnd(rhs, p);
            all = tt.mkAnd(all, tt.mkImplies(lhs, rhs));
        }
        assertions.push_back(tt.mkNot(all));

        smt::Model model;
        CheckResult r = smt::checkSat(tt, assertions, &model,
                                      opts.solveLimits());
        if (r == CheckResult::Unsat)
            return SynthStatus::Ok;
        if (r == CheckResult::Unknown)
            return SynthStatus::Timeout;
        extractCounterexample(tt, model, memNames, cex);
        return SynthStatus::Unsat;
    }

    SynthStatus
    synth(const std::vector<Counterexample> &cexes,
          std::vector<HoleValues> &candidate, const CegisOptions &opts)
    {
        obs::ScopedSpan span("synth");
        span.attr("cex_count", cexes.size());
        TermTable tt;
        // Per-instruction, per-hole constant variables.
        std::vector<std::map<std::string, TermRef>> cvars(instrs.size());
        for (size_t j = 0; j < instrs.size(); j++) {
            for (const oyster::Decl *h : holes) {
                cvars[j][h->name] = tt.freshVar(
                    "c." + std::to_string(j) + "." + h->name, h->width);
            }
        }

        std::vector<TermRef> assertions;
        for (const Counterexample &cex : cexes) {
            // Two-pass trick: first evaluate with throwaway hole vars
            // to learn the (concrete) preconditions under this
            // counterexample, then re-evaluate with the selected
            // instruction's constant vars plugged in.
            //
            // Preconditions depend only on leaves (decode is
            // spec-side), so the first pass folds them to constants.
            std::map<std::string, TermRef> probe;
            for (const oyster::Decl *h : holes)
                probe[h->name] = tt.freshVar("probe." + h->name,
                                             h->width);
            SymRun run0 = runWithCex(tt, cex, probe);
            SpecCompiler sc0(spec, alpha, tt, run0, sketch);
            std::vector<TermRef> pres;
            for (const auto &i : spec.instrs())
                pres.push_back(
                    sc0.compileInstr(*i).pre);

            std::map<std::string, TermRef> hole_terms;
            for (const oyster::Decl *h : holes) {
                std::vector<TermRef> vals;
                for (size_t j = 0; j < instrs.size(); j++)
                    vals.push_back(cvars[j].at(h->name));
                hole_terms[h->name] = holeChain(tt, pres, vals);
            }
            SymRun run = runWithCex(tt, cex, hole_terms);
            SpecCompiler sc(spec, alpha, tt, run, sketch);
            for (const auto &i : spec.instrs()) {
                InstrConditions c = sc.compileInstr(*i);
                TermRef lhs = c.pre;
                for (TermRef a : c.assumes)
                    lhs = tt.mkAnd(lhs, a);
                TermRef rhs = tt.trueTerm();
                for (TermRef p : c.posts)
                    rhs = tt.mkAnd(rhs, p);
                assertions.push_back(tt.mkImplies(lhs, rhs));
            }
        }

        smt::Model model;
        CheckResult r = smt::checkSat(tt, assertions, &model,
                                      opts.solveLimits());
        if (r == CheckResult::Unsat)
            return SynthStatus::Unsat;
        if (r == CheckResult::Unknown)
            return SynthStatus::Timeout;
        for (size_t j = 0; j < instrs.size(); j++) {
            for (const oyster::Decl *h : holes) {
                const smt::Node &n = tt.node(cvars[j].at(h->name));
                candidate[j][h->name] = model.varValue(tt, n.a);
            }
        }
        return SynthStatus::Ok;
    }

    SymRun
    runWithCex(TermTable &tt, Counterexample cex,
               const std::map<std::string, TermRef> &hole_terms)
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
};

} // namespace

SynthesisResult
synthesizeControl(oyster::Design &sketch, const ila::Ila &spec,
                  const AbsFunc &alpha, const SynthesisOptions &opts)
{
    obs::ScopedSpan span("synthesize");
    span.attr("instrs", spec.instrs().size());
    span.attr("strategy", strategyName(opts.strategy));
    OWL_COUNTER_INC("synth.runs");

    SynthesisResult result;
    auto start = std::chrono::steady_clock::now();
    CegisOptions copts;
    static_cast<CegisConfig &>(copts) = opts;
    if (opts.timeLimit.count() > 0)
        copts.deadline = start + opts.timeLimit;

    switch (opts.strategy) {
      case Strategy::PerInstruction: {
        InstrSynthesizer synth(sketch, spec, alpha);
        const HoleValues *pin = nullptr;
        HoleValues last;
        for (const auto &i : spec.instrs()) {
            if (opts.verbose)
                std::cerr << "[owl] synthesizing " << i->name()
                          << "...\n";
            CegisResult r = synth.synthesize(
                *i, opts.pinFirst ? pin : nullptr, copts);
            result.cegisIterations += r.iterations;
            if (r.status != SynthStatus::Ok) {
                result.status = r.status;
                result.failedInstr = i->name();
                break;
            }
            result.perInstr.emplace_back(i->name(), r.holes);
            last = r.holes;
            pin = &last;
        }
        break;
      }
      case Strategy::PerInstructionParallel: {
        int jobs = opts.jobs > 0 ? opts.jobs : exec::defaultJobs();
        span.attr("jobs", jobs);
        if (opts.verbose)
            std::cerr << "[owl] synthesizing "
                      << spec.instrs().size() << " instructions on "
                      << jobs << " worker(s)...\n";
        exec::ThreadPool pool(jobs);
        exec::CancelToken cancel;
        // Tasks poll the token so sibling instructions stop early
        // once the overall run is doomed.
        CegisOptions task_opts = copts;
        task_opts.cancelFlag = cancel.flag();
        obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();

        // A task that fails *after* cancellation fired may be an
        // artifact of the abort (its SAT calls return Unknown), not a
        // genuine result — remember, for failure attribution below.
        struct TaskOut
        {
            CegisResult r;
            bool sawCancel = false;
        };
        std::vector<std::future<TaskOut>> futures;
        futures.reserve(spec.instrs().size());
        for (const auto &i : spec.instrs()) {
            const ila::Instr *instr = i.get();
            futures.push_back(pool.submit([&sketch, &spec, &alpha,
                                           &task_opts, &cancel, &ctx,
                                           instr]() {
                obs::TaskSpanScope scope(ctx);
                TaskOut out;
                // No pinning: each instruction starts from the zero
                // candidate, exactly like a sequential
                // pinFirst=false run, which is what makes the merged
                // result bit-identical to that run.
                InstrSynthesizer isynth(sketch, spec, alpha);
                out.r = isynth.synthesize(*instr, nullptr, task_opts);
                if (out.r.status != SynthStatus::Ok) {
                    out.sawCancel = cancel.cancelled();
                    cancel.cancel();
                }
                return out;
            }));
        }

        // Join in instruction order (deterministic merge). Waiting
        // helps execute queued tasks, so this cannot starve even on
        // a single-worker pool.
        std::string first_genuine, first_any;
        SynthStatus genuine_status = SynthStatus::Ok;
        SynthStatus any_status = SynthStatus::Ok;
        size_t idx = 0;
        for (const auto &i : spec.instrs()) {
            TaskOut out = pool.waitFor(futures[idx++]);
            result.cegisIterations += out.r.iterations;
            if (out.r.status == SynthStatus::Ok) {
                result.perInstr.emplace_back(i->name(),
                                             out.r.holes);
                continue;
            }
            bool artifact = out.sawCancel &&
                            out.r.status == SynthStatus::Timeout;
            if (first_any.empty()) {
                first_any = i->name();
                any_status = out.r.status;
            }
            if (!artifact && first_genuine.empty()) {
                first_genuine = i->name();
                genuine_status = out.r.status;
            }
        }
        if (!first_genuine.empty()) {
            result.status = genuine_status;
            result.failedInstr = first_genuine;
        } else if (!first_any.empty()) {
            result.status = any_status;
            result.failedInstr = first_any;
        }
        break;
      }
      case Strategy::Monolithic: {
        MonolithicSynthesizer mono(sketch, spec, alpha);
        int iters = 0;
        result.status = mono.run(result.perInstr, copts, iters);
        result.cegisIterations = iters;
        break;
      }
    }

    if (result.status == SynthStatus::Ok)
        applyControlUnion(sketch, spec, alpha, result.perInstr);

    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    span.attr("status", synthStatusName(result.status));
    span.attr("iterations", result.cegisIterations);
    span.attr("millis", static_cast<int64_t>(result.seconds * 1000));
    return result;
}

SynthStatus
checkMutualExclusion(const oyster::Design &design, const ila::Ila &spec,
                     const AbsFunc &alpha, std::string *failed_pair,
                     const CegisOptions &opts)
{
    obs::ScopedSpan span("mutex_check");
    // Decode conditions only touch the pre-state, so one symbolic run
    // serves all pairwise checks. Holes (if the design is still a
    // sketch) become fresh variables; decode conditions cannot depend
    // on them under instruction independence condition 2.
    TermTable tt;
    SymbolicEvaluator ev(design, tt);
    for (const oyster::Decl &dc : design.decls()) {
        if (dc.kind == oyster::DeclKind::Hole) {
            ev.setHole(dc.name,
                       tt.freshVar("hole." + dc.name, dc.width));
        }
    }
    applyInitAliases(design, alpha, tt, ev);
    SymRun run = ev.run(alpha.cycles());
    SpecCompiler sc(spec, alpha, tt, run, design);
    std::vector<TermRef> pres;
    std::vector<std::string> names;
    for (const auto &i : spec.instrs()) {
        pres.push_back(sc.compileInstr(*i).pre);
        names.push_back(i->name());
    }
    for (size_t a = 0; a < pres.size(); a++) {
        for (size_t b = a + 1; b < pres.size(); b++) {
            // Pairwise queries are short enough to slip under the
            // CDCL deadline stride; honor the budget between them.
            if (opts.expired())
                return SynthStatus::Timeout;
            CheckResult r =
                smt::checkSat(tt, {tt.mkAnd(pres[a], pres[b])},
                              nullptr, opts.solveLimits());
            if (r == CheckResult::Unsat)
                continue;
            if (failed_pair)
                *failed_pair = names[a] + "/" + names[b];
            return r == CheckResult::Unknown ? SynthStatus::Timeout
                                             : SynthStatus::Unsat;
        }
    }
    return SynthStatus::Ok;
}

namespace
{

/**
 * Detect the decode cycle of a completed design with union-generated
 * precondition wires: the cycle in which the abstraction function's
 * fetch wire carries the same term as the spec's fetch expression.
 * Returns -1 when the design has no pre_* wires (e.g. a hand-written
 * reference) or no fetch entry.
 */
int
findDecodeCycle(const oyster::Design &design, const ila::Ila &spec,
                const AbsFunc &alpha)
{
    const AbsEntry *fe = alpha.fetchEntry();
    if (!fe || fe->fetchWire.empty() || !spec.hasFetch())
        return -1;
    for (const auto &i : spec.instrs()) {
        if (!design.hasDecl("pre_" + i->name()))
            return -1;
    }
    TermTable tt;
    SymbolicEvaluator ev(design, tt);
    applyInitAliases(design, alpha, tt, ev);
    SymRun run = ev.run(alpha.cycles());
    SpecCompiler sc(spec, alpha, tt, run, design);
    TermRef fetch = sc.fetchTerm();
    for (int t = 1; t <= alpha.cycles(); t++) {
        if (run.wireAt(fe->fetchWire, t) == fetch)
            return t;
    }
    return -1;
}

} // namespace

SynthStatus
verifyDesign(const oyster::Design &design, const ila::Ila &spec,
             const AbsFunc &alpha, std::string *failed_instr,
             const CegisOptions &opts)
{
    obs::ScopedSpan span("verifyDesign");
    span.attr("instrs", spec.instrs().size());
    OWL_COUNTER_INC("verify.designs");
    lint::checkDesign(design, /*allow_holes=*/false);
    // With pairwise-disjoint decode conditions, the generated
    // precondition wires can be pinned to constants in the decode
    // cycle (case split), which folds the control union's selection
    // chains before the solver ever sees them. The pin equalities are
    // asserted, so this is an equisatisfiable rewrite, not an
    // assumption.
    bool exclusive =
        checkMutualExclusion(design, spec, alpha, nullptr, opts) ==
        SynthStatus::Ok;
    int decode_cycle =
        exclusive ? findDecodeCycle(design, spec, alpha) : -1;

    for (const auto &i : spec.instrs()) {
        if (opts.expired()) {
            if (failed_instr)
                *failed_instr = i->name();
            return SynthStatus::Timeout;
        }
        TermTable tt;
        SymbolicEvaluator ev(design, tt);
        applyInitAliases(design, alpha, tt, ev);
        if (decode_cycle > 0) {
            for (const auto &j : spec.instrs()) {
                ev.pinWire("pre_" + j->name(), decode_cycle,
                           j.get() == i.get() ? tt.trueTerm()
                                              : tt.falseTerm());
            }
        }
        SymRun run = ev.run(alpha.cycles());
        SpecCompiler sc(spec, alpha, tt, run, design);
        InstrConditions conds = sc.compileInstr(*i);

        std::vector<TermRef> assertions;
        assertions.push_back(conds.pre);
        for (TermRef a : conds.assumes)
            assertions.push_back(a);
        for (const auto &[computed, pinned] : run.pinConstraints)
            assertions.push_back(tt.mkEq(computed, pinned));
        TermRef all_posts = tt.trueTerm();
        for (TermRef p : conds.posts)
            all_posts = tt.mkAnd(all_posts, p);
        assertions.push_back(tt.mkNot(all_posts));

        CheckResult r = smt::checkSat(tt, assertions, nullptr,
                                      opts.solveLimits());
        if (r == CheckResult::Unsat)
            continue;
        if (failed_instr)
            *failed_instr = i->name();
        return r == CheckResult::Unknown ? SynthStatus::Timeout
                                         : SynthStatus::Unsat;
    }
    return SynthStatus::Ok;
}

} // namespace owl::synth
