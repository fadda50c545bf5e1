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
 * The two joint queries of Equation (1), monolithic synthesis: hole
 * implementations are per-instruction constant vectors selected by
 * the decode preconditions, so the solution space matches what
 * per-instruction + control union can express — but the solver must
 * handle the conjunction over all instructions at once. These are the
 * verify and synth steps synthesizeControl hands to cegisLoop(); the
 * synth step takes its holes from the raw checkSat model, with no
 * lexmin canonicalization.
 */
class MonolithicQueries
{
  public:
    MonolithicQueries(const oyster::Design &sketch, const ila::Ila &spec,
                      const AbsFunc &alpha)
        : sketch(sketch), spec(spec), alpha(alpha),
          memNames(memoryNames(sketch))
    {
        for (const oyster::Decl &d : sketch.decls()) {
            if (d.kind == oyster::DeclKind::Hole)
                holes.push_back(&d);
        }
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
            for (const HoleValues &hv : candidate)
                vals.push_back(tt.constant(hv.at(h->name)));
            assertions.push_back(tt.mkEq(hole_vars[h->name],
                                         holeChain(tt, pres, vals)));
        }
        // ¬ ∧_j ((pre_j ∧ assumes) → posts_j)
        TermRef all = tt.trueTerm();
        for (const InstrConditions &c : conds)
            all = tt.mkAnd(all, c.holds(tt));
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
        std::vector<std::map<std::string, TermRef>> cvars(
            candidate.size());
        for (size_t j = 0; j < cvars.size(); j++) {
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
            SymRun run0 = replayCex(sketch, alpha, tt, probe, cex);
            SpecCompiler sc0(spec, alpha, tt, run0, sketch);
            std::vector<TermRef> pres;
            for (const auto &i : spec.instrs())
                pres.push_back(sc0.compileInstr(*i).pre);

            std::map<std::string, TermRef> hole_terms;
            for (const oyster::Decl *h : holes) {
                std::vector<TermRef> vals;
                for (const auto &cv : cvars)
                    vals.push_back(cv.at(h->name));
                hole_terms[h->name] = holeChain(tt, pres, vals);
            }
            SymRun run = replayCex(sketch, alpha, tt, hole_terms, cex);
            SpecCompiler sc(spec, alpha, tt, run, sketch);
            for (const auto &i : spec.instrs())
                assertions.push_back(sc.compileInstr(*i).holds(tt));
        }

        smt::Model model;
        CheckResult r = smt::checkSat(tt, assertions, &model,
                                      opts.solveLimits());
        if (r == CheckResult::Unsat)
            return SynthStatus::Unsat;
        if (r == CheckResult::Unknown)
            return SynthStatus::Timeout;
        for (size_t j = 0; j < cvars.size(); j++) {
            for (const oyster::Decl *h : holes) {
                const smt::Node &n = tt.node(cvars[j].at(h->name));
                candidate[j][h->name] = model.varValue(tt, n.a);
            }
        }
        return SynthStatus::Ok;
    }

  private:
    const oyster::Design &sketch;
    const ila::Ila &spec;
    const AbsFunc &alpha;
    std::map<int, std::string> memNames;
    std::vector<const oyster::Decl *> holes;

    /** Fold per-instruction values into the hole's selection chain. */
    static TermRef
    holeChain(TermTable &tt, const std::vector<TermRef> &pres,
              const std::vector<TermRef> &per_instr_vals)
    {
        TermRef v = per_instr_vals.back();
        for (int j = per_instr_vals.size() - 2; j >= 0; j--)
            v = tt.mkIte(pres[j], per_instr_vals[j], v);
        return v;
    }
};

} // namespace

SynthesisResult
synthesizeControl(oyster::Design &sketch, const ila::Ila &spec,
                  const AbsFunc &alpha, const SynthesisOptions &opts)
{
    if (spec.instrs().empty())
        owl_fatal("specification '", spec.name(),
                  "' has no instructions to synthesize control for");
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
        obs::ScopedSpan cegis_span("cegis");
        cegis_span.attr("mono", 1);
        cegis_span.attr("instrs", spec.instrs().size());
        MonolithicQueries mono(sketch, spec, alpha);
        // candidate[j][hole] for instruction j.
        std::vector<HoleValues> candidate(spec.instrs().size(),
                                          zeroHoles(sketch));
        result.status = cegisLoop(
            copts, result.cegisIterations,
            [&](Counterexample &cex) {
                return mono.verify(candidate, cex, copts);
            },
            [&](const std::vector<Counterexample> &cexes,
                obs::ScopedSpan &) {
                OWL_TRACE_EVENT("cegis", "mono iter n=",
                                cexes.size() - 1, " cex=", cexes.size());
                return mono.synth(cexes, candidate, copts);
            });
        if (result.status == SynthStatus::Ok) {
            for (size_t j = 0; j < candidate.size(); j++)
                result.perInstr.emplace_back(spec.instrs()[j]->name(),
                                             candidate[j]);
        }
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
        std::vector<TermRef> pins;
        for (const auto &[computed, pinned] : run.pinConstraints)
            pins.push_back(tt.mkEq(computed, pinned));

        CheckResult r = smt::checkSat(tt, conds.violated(tt, pins),
                                      nullptr, opts.solveLimits());
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
