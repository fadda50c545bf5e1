/**
 * @file
 * The traced run: per-layer numbers for one workload.
 *
 * It first repeats the workload's synthesis with the obs layer off,
 * then turns obs on for the rest of the run and never resets it, so
 * growth of the obs state shows in obs.trace_overhead_ratio. Every
 * time is taken here, around a call into one module's public entry
 * points; the SAT/SMT work counts are deltas of the program's own obs
 * counters across the traced synthesis and verification.
 *
 * Per design, in the workload's path:
 *   designs   makeCaseStudy                         designs.make_ms
 *   serve     designFingerprint, instrFingerprint   serve.fingerprint_ms
 *   core      InstrSynthesizer::synthesize (pi: pin
 *             sequence of synthesizeControl), or
 *             synthesizeControl (mono)              core.cegis_ms
 *             applyControlUnion                     core.union_ms
 *             checkMutualExclusion, verifyDesign    core.mutex_ms, ...
 *   netlist   compile, optimize                     netlist.*
 * then a replay of each instruction's final verify query (mono: the
 * joint Equation (1) query), one layer at a time: SymbolicEvaluator,
 * SpecCompiler, BitBlaster, sat::Solver::simplify, Solver::solve, and
 * the same query through smt::checkSat; its verdicts must match
 * InstrSynthesizer::verifyCandidate. Last, the serve layer: the
 * workload's probe design goes to one-session servers as cold
 * requests, cache hits and warm-session misses (serveProbe).
 */

#include <algorithm>
#include <map>

#include "bench.h"
#include "designs/registry.h"
#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "obs/obs.h"
#include "oyster/symeval.h"
#include "sat/solver.h"
#include "serve/fingerprint.h"
#include "serve/server.h"
#include "smt/ackermann.h"
#include "smt/bitblast.h"
#include "smt/solver.h"

namespace owlbench
{

using owl::designs::CaseStudy;
using owl::smt::TermRef;
using owl::smt::TermTable;
using owl::synth::HoleValues;
using owl::synth::PerInstrResults;
using owl::synth::SynthStatus;

namespace
{

/** Counters read as work counts (deltas, never reset). */
const std::vector<std::string> &
counterNames()
{
    static const std::vector<std::string> names = {
        "sat.conflicts",
        "sat.propagations",
        "sat.preprocess.vars_eliminated",
        "sat.preprocess.vars_total",
        "smt.checks",
        "smt.ackermann.lemmas",
        "smt.ackermann.rounds",
        "smt.ackermann.pair_bound",
    };
    return names;
}

std::map<std::string, uint64_t>
readCounters()
{
    std::map<std::string, uint64_t> v;
    for (const std::string &n : counterNames())
        v[n] = owl::obs::Registry::instance().counterValue(n);
    return v;
}

/** Per-layer accumulators over one pass of the workload's designs. */
struct Layers
{
    double make_ms = 0;
    double fingerprint_ms = 0;
    double cegis_ms = 0;
    double union_ms = 0;
    double mutex_ms = 0;
    double verify_design_ms = 0;
    double compile_ms = 0;
    double optimize_ms = 0;
    double symeval_ms = 0;
    double spec_compile_ms = 0;
    double bitblast_ms = 0;
    double simplify_ms = 0;
    double solve_ms = 0;
    double checksat_ms = 0;
    double verify_candidate_ms = 0;
    uint64_t term_nodes = 0;
    uint64_t gates_raw = 0;
    uint64_t cegis_iters = 0;
};

double
msSince(double t0)
{
    return (nowS() - t0) * 1000.0;
}

CaseStudy
make(const std::string &design)
{
    auto cs = owl::designs::makeCaseStudy(design);
    if (!cs)
        throw std::runtime_error("unknown design " + design);
    return std::move(*cs);
}

const owl::ila::Instr *
findInstr(const owl::ila::Ila &spec, const std::string &name)
{
    for (const auto &i : spec.instrs()) {
        if (i->name() == name)
            return i.get();
    }
    return nullptr;
}

/**
 * Bit-blast, simplify and solve one query the way smt::checkSat does
 * (fresh solver per lazy-Ackermann round, the same limits, seeded
 * congruences and the previous round's model as phase hints), timing
 * each layer. Returns true when the query is Unsat.
 */
bool
solveLayered(TermTable &tt, const std::vector<TermRef> &assertions,
             const owl::smt::SolveLimits &lim, Layers &l)
{
    std::vector<TermRef> vars, reads;
    tt.collectLeaves(assertions, vars, reads);
    owl::smt::AckermannManager ack(tt);
    auto reg = ack.registerReads(reads, lim.eagerAckermann);
    std::vector<TermRef> all = assertions;
    all.insert(all.end(), reg.congruences.begin(), reg.congruences.end());
    const bool lazy = !lim.eagerAckermann && ack.pairBound() > 0;
    std::vector<TermRef> lemmas;
    if (lazy && lim.ackermannSeeds)
        lemmas = ack.instantiateSeeds(*lim.ackermannSeeds);
    std::vector<bool> phase_hints;
    while (true) {
        owl::sat::Solver::Options so;
        so.simp.enabled = lim.preprocess;
        so.simp.inprocessConflicts = lim.inprocessConflicts;
        owl::sat::Solver solver(so);
        if (lim.timeLimit.count() > 0)
            solver.setTimeLimit(lim.timeLimit);
        if (lim.conflictLimit > 0)
            solver.setConflictLimit(lim.conflictLimit);
        owl::smt::BitBlaster bb(tt, solver);
        double t0 = nowS();
        for (TermRef a : all) {
            if (tt.isFalse(a)) {
                l.bitblast_ms += msSince(t0);
                return true;
            }
            bb.assertTrue(a);
        }
        for (TermRef a : lemmas)
            bb.assertTrue(a);
        if (lazy) {
            for (size_t i = 0; i < reg.newReads.size(); i++) {
                bb.blast(reg.newReads[i]);
                bb.blast(reg.addresses[i]);
            }
        }
        l.bitblast_ms += msSince(t0);
        if (!phase_hints.empty())
            solver.setPhaseHints(phase_hints);
        t0 = nowS();
        bool consistent = !lim.preprocess || solver.simplify();
        l.simplify_ms += msSince(t0);
        if (!consistent)
            return true;
        t0 = nowS();
        owl::sat::Result r = solver.solve();
        l.solve_ms += msSince(t0);
        if (r != owl::sat::Result::Sat)
            return r == owl::sat::Result::Unsat;
        if (!lazy)
            return false;
        std::vector<TermRef> more = ack.scanModel(
            [&bb](TermRef t) { return bb.modelValue(t); });
        if (more.empty())
            return false;
        phase_hints.resize(static_cast<size_t>(solver.numVars()));
        for (int v = 0; v < solver.numVars(); v++)
            phase_hints[v] = solver.modelValue(v);
        lemmas.insert(lemmas.end(), more.begin(), more.end());
    }
}

/** Layered solve plus the same query through smt::checkSat. */
void
solveBothWays(TermTable &tt, const std::vector<TermRef> &assertions,
              const owl::smt::SolveLimits &lim, Layers &l,
              bool &layered_unsat, bool &checksat_unsat)
{
    layered_unsat = solveLayered(tt, assertions, lim, l);
    double t0 = nowS();
    owl::smt::CheckResult r =
        owl::smt::checkSat(tt, assertions, nullptr, lim);
    l.checksat_ms += msSince(t0);
    checksat_unsat = r == owl::smt::CheckResult::Unsat;
}

/**
 * Replay one instruction's final verify query (verifyCandidate's
 * Pre ∧ assumes ∧ ¬Post with the holes folded to constants).
 */
void
replayInstr(const CaseStudy &cs, const owl::ila::Instr &instr,
            const HoleValues &holes, const owl::smt::SolveLimits &lim,
            Layers &l, bool &layered_unsat, bool &checksat_unsat)
{
    TermTable tt;
    double t0 = nowS();
    owl::oyster::SymbolicEvaluator ev(cs.sketch, tt);
    for (const auto &[name, value] : holes)
        ev.setHole(name, tt.constant(value));
    owl::synth::applyInitAliases(cs.sketch, cs.alpha, tt, ev);
    owl::oyster::SymRun run = ev.run(cs.alpha.cycles());
    l.symeval_ms += msSince(t0);
    l.term_nodes += tt.numNodes();

    t0 = nowS();
    owl::synth::SpecCompiler sc(cs.spec, cs.alpha, tt, run, cs.sketch);
    owl::synth::InstrConditions conds = sc.compileInstr(instr);
    l.spec_compile_ms += msSince(t0);

    std::vector<TermRef> assertions{conds.pre};
    assertions.insert(assertions.end(), conds.assumes.begin(),
                      conds.assumes.end());
    TermRef posts = tt.trueTerm();
    for (TermRef p : conds.posts)
        posts = tt.mkAnd(posts, p);
    assertions.push_back(tt.mkNot(posts));
    solveBothWays(tt, assertions, lim, l, layered_unsat, checksat_unsat);
}

/**
 * Replay the monolithic path's final verify query: symbolic holes
 * equal to each instruction's constants under its precondition,
 * against ¬∧(Pre_j ∧ assumes_j → Post_j) over every instruction.
 */
void
replayJoint(const CaseStudy &cs, const PerInstrResults &holes,
            const owl::smt::SolveLimits &lim, Layers &l,
            bool &layered_unsat, bool &checksat_unsat)
{
    TermTable tt;
    double t0 = nowS();
    owl::oyster::SymbolicEvaluator ev(cs.sketch, tt);
    std::map<std::string, TermRef> hole_vars;
    for (const owl::oyster::Decl &d : cs.sketch.decls()) {
        if (d.kind != owl::oyster::DeclKind::Hole)
            continue;
        hole_vars[d.name] = tt.freshVar("holev." + d.name, d.width);
        ev.setHole(d.name, hole_vars[d.name]);
    }
    owl::synth::applyInitAliases(cs.sketch, cs.alpha, tt, ev);
    owl::oyster::SymRun run = ev.run(cs.alpha.cycles());
    l.symeval_ms += msSince(t0);
    l.term_nodes += tt.numNodes();

    t0 = nowS();
    owl::synth::SpecCompiler sc(cs.spec, cs.alpha, tt, run, cs.sketch);
    std::vector<owl::synth::InstrConditions> conds = sc.compileAll();
    l.spec_compile_ms += msSince(t0);

    std::vector<TermRef> assertions;
    for (const auto &[name, var] : hole_vars) {
        TermRef chain = tt.constant(holes.back().second.at(name));
        for (size_t j = conds.size() - 1; j-- > 0;) {
            chain = tt.mkIte(conds[j].pre,
                             tt.constant(holes[j].second.at(name)), chain);
        }
        assertions.push_back(tt.mkEq(var, chain));
    }
    TermRef all = tt.trueTerm();
    for (const owl::synth::InstrConditions &c : conds) {
        TermRef lhs = c.pre;
        for (TermRef a : c.assumes)
            lhs = tt.mkAnd(lhs, a);
        TermRef rhs = tt.trueTerm();
        for (TermRef p : c.posts)
            rhs = tt.mkAnd(rhs, p);
        all = tt.mkAnd(all, tt.mkImplies(lhs, rhs));
    }
    assertions.push_back(tt.mkNot(all));
    solveBothWays(tt, assertions, lim, l, layered_unsat, checksat_unsat);
}

/** Untraced synthesis of every design: seconds and hole digests. */
double
untracedSynthesis(const Workload &w, const Reference &ref, Outcome &out,
                  std::map<std::string, std::string> &digests)
{
    const owl::synth::SynthesisOptions opts = synthesisOptions(w.path);
    double total = 0;
    for (const std::string &d : w.designs) {
        CaseStudy cs = make(d);
        double t0 = nowS();
        owl::synth::SynthesisResult r = owl::synth::synthesizeControl(
            cs.sketch, cs.spec, cs.alpha, opts);
        total += nowS() - t0;
        out.check(r.status == SynthStatus::Ok,
                  d + ": untraced synthesis " +
                      owl::synth::synthStatusName(r.status));
        ref.checkHoles(out, w.referenceSet, d, r.perInstr);
        digests[d] = runDigest(r.perInstr);
    }
    return total;
}

/** The traced synthesis of one design in the workload's path. */
PerInstrResults
tracedSynthesis(const Workload &w, CaseStudy &cs, Layers &l,
                Outcome &out, const std::string &design)
{
    PerInstrResults results;
    if (w.path == Path::Monolithic) {
        double t0 = nowS();
        owl::synth::SynthesisResult r = owl::synth::synthesizeControl(
            cs.sketch, cs.spec, cs.alpha, synthesisOptions(w.path));
        l.cegis_ms += msSince(t0);
        l.cegis_iters += static_cast<uint64_t>(r.cegisIterations);
        out.check(r.status == SynthStatus::Ok,
                  design + ": traced synthesis " +
                      owl::synth::synthStatusName(r.status));
        // The union already ran inside synthesizeControl; time it on
        // a fresh sketch.
        CaseStudy fresh = make(design);
        t0 = nowS();
        owl::synth::applyControlUnion(fresh.sketch, fresh.spec,
                                      fresh.alpha, r.perInstr);
        l.union_ms += msSince(t0);
        return r.perInstr;
    }
    // synthesizeControl's sequential loop, spelled out so each
    // instruction's CEGIS run is timed on its own.
    owl::synth::CegisOptions copts = cegisOptions(w.path);
    const bool pin_first = w.path == Path::PerInstruction &&
                           synthesisOptions(w.path).pinFirst;
    owl::synth::InstrSynthesizer synth(cs.sketch, cs.spec, cs.alpha);
    HoleValues last;
    const HoleValues *pin = nullptr;
    for (const auto &i : cs.spec.instrs()) {
        double t0 = nowS();
        owl::synth::CegisResult r =
            synth.synthesize(*i, pin_first ? pin : nullptr, copts);
        l.cegis_ms += msSince(t0);
        l.cegis_iters += static_cast<uint64_t>(r.iterations);
        out.check(r.status == SynthStatus::Ok,
                  design + "/" + i->name() + ": traced CEGIS " +
                      owl::synth::synthStatusName(r.status));
        if (r.status != SynthStatus::Ok)
            return results;
        results.emplace_back(i->name(), r.holes);
        last = r.holes;
        pin = &last;
    }
    double t0 = nowS();
    owl::synth::applyControlUnion(cs.sketch, cs.spec, cs.alpha, results);
    l.union_ms += msSince(t0);
    return results;
}

/** One completed serve request. */
struct Served
{
    double latency; ///< client-side seconds, submit to result
    owl::serve::JobResult result;
};

/** Serve-layer numbers from a set of completed requests. */
void
serveLayerMetrics(const std::vector<Served> &served, Outcome &out)
{
    double session = 0, wait = 0;
    uint64_t hits = 0, misses = 0, reused = 0, created = 0;
    std::vector<double> hit_lat, miss_lat;
    int n_hit = 0, n_warm = 0, n_cold = 0;
    for (const Served &s : served) {
        const owl::serve::JobResult &r = s.result;
        session += r.seconds;
        wait += s.latency - r.seconds;
        hits += r.cacheHits;
        misses += r.cacheMisses;
        reused += r.sessionsReused;
        created += r.sessionsCreated;
        if (r.cacheMisses == 0) {
            n_hit++;
            hit_lat.push_back(s.latency);
        } else {
            (r.sessionsCreated > 0 ? n_cold : n_warm)++;
            miss_lat.push_back(s.latency);
        }
    }
    double n = std::max<double>(1, static_cast<double>(served.size()));
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.metric("serve.session_ms", session / n * 1000.0, "ms");
    out.metric("serve.queue_wait_ms", wait / n * 1000.0, "ms");
    out.metric("serve.cache_hit_ratio",
               ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses)),
               "ratio");
    out.metric("serve.warm_reuse_ratio",
               ratio(static_cast<double>(reused),
                     static_cast<double>(reused + created)),
               "ratio");
    out.metric("serve.hit_share", n_hit / n, "ratio");
    out.metric("serve.warm_share", n_warm / n, "ratio");
    out.metric("serve.cold_share", n_cold / n, "ratio");
    out.metric("serve.hit_p50_ms", median(hit_lat) * 1000.0, "ms");
    out.metric("serve.miss_p50_s", median(miss_lat), "s");
}

/**
 * Send the probe design to a one-session server `n` times: the first
 * request is cold, the rest are cache hits, or (with a one-byte cache,
 * which keeps only the last instruction's entry) warm-session misses.
 */
void
serveProbe(const Workload &w, const Reference &ref, size_t cache_bytes,
           int n, Outcome &out, std::vector<Served> &served)
{
    owl::serve::ServerOptions so;
    so.sessions = 1;
    so.cacheBytes = cache_bytes;
    owl::serve::Server srv(so);
    for (int rep = 0; rep < n; rep++) {
        owl::serve::JobRequest req;
        req.id = w.probeDesign + "#" + std::to_string(served.size());
        req.design = w.probeDesign;
        double t0 = nowS();
        owl::serve::JobResult r = srv.submit(req).get();
        double lat = nowS() - t0;
        out.check(r.ok(), "serve probe " + req.id + ": " + r.status);
        if (r.ok())
            ref.checkHoles(out, "no_pin", w.probeDesign, r.holes);
        served.push_back({lat, std::move(r)});
    }
    srv.shutdown();
}

} // namespace

void
runTraced(const Workload &w, const Reference &ref, Outcome &out)
{
    // ---- untraced baseline ---------------------------------------
    owl::obs::setEnabled(false);
    std::map<std::string, std::string> untraced_digest;
    const double untraced_synth =
        untracedSynthesis(w, ref, out, untraced_digest);

    // ---- traced: obs stays on from here to the end ---------------
    owl::obs::setEnabled(true);
    Layers l;
    std::map<std::string, PerInstrResults> holes;
    double traced_synth = 0;
    auto c0 = readCounters();
    for (const std::string &d : w.designs) {
        std::vector<double> make_ms;
        for (int rep = 0; rep < 5; rep++) {
            double t0 = nowS();
            make(d);
            make_ms.push_back(msSince(t0));
        }
        l.make_ms += median(make_ms);

        CaseStudy cs = make(d);
        double t0 = nowS();
        owl::serve::designFingerprint(cs.sketch, cs.spec, cs.alpha);
        for (const auto &i : cs.spec.instrs())
            owl::serve::instrFingerprint(cs.spec, *i);
        l.fingerprint_ms += msSince(t0);

        double cegis0 = l.cegis_ms, union0 = l.union_ms;
        holes[d] = tracedSynthesis(w, cs, l, out, d);
        double synth_ms = (l.cegis_ms - cegis0) +
                          (w.path == Path::Monolithic
                               ? 0
                               : l.union_ms - union0);
        traced_synth += synth_ms / 1000.0;
        out.row("core.synth_ms." + d, synth_ms, "ms");
        ref.checkHoles(out, w.referenceSet, d, holes[d]);
        auto u = untraced_digest.find(d);
        out.check(u != untraced_digest.end() &&
                      u->second == runDigest(holes[d]),
                  d + ": traced holes differ from the untraced run");

        t0 = nowS();
        owl::synth::checkMutualExclusion(cs.sketch, cs.spec, cs.alpha);
        l.mutex_ms += msSince(t0);
        std::string failed;
        t0 = nowS();
        SynthStatus v = owl::synth::verifyDesign(cs.sketch, cs.spec,
                                                 cs.alpha, &failed);
        l.verify_design_ms += msSince(t0);
        out.check(v == SynthStatus::Ok,
                  d + ": traced verifyDesign failed at " + failed);

        t0 = nowS();
        owl::netlist::Netlist nl = owl::netlist::compile(cs.sketch);
        l.compile_ms += msSince(t0);
        l.gates_raw += static_cast<uint64_t>(nl.gateCount());
        t0 = nowS();
        owl::netlist::optimize(nl);
        l.optimize_ms += msSince(t0);
    }
    auto c1 = readCounters();

    // ---- query replay ---------------------------------------------
    const owl::synth::CegisOptions copts = cegisOptions(w.path);
    const owl::smt::SolveLimits lim = copts.solveLimits();
    for (const std::string &d : w.designs) {
        const PerInstrResults &h = holes[d];
        CaseStudy cs = make(d);
        owl::synth::InstrSynthesizer isynth(cs.sketch, cs.spec, cs.alpha);
        bool all_valid = true;
        for (const auto &[name, values] : h) {
            const owl::ila::Instr *instr = findInstr(cs.spec, name);
            out.check(instr != nullptr, d + "/" + name + ": no such instr");
            if (!instr)
                continue;
            bool layered = false, checksat = false;
            if (w.path != Path::Monolithic)
                replayInstr(cs, *instr, values, lim, l, layered,
                            checksat);
            double t0 = nowS();
            SynthStatus v =
                isynth.verifyCandidate(*instr, values, nullptr, copts);
            l.verify_candidate_ms += msSince(t0);
            out.check(v == SynthStatus::Ok,
                      d + "/" + name + ": verifyCandidate " +
                          owl::synth::synthStatusName(v));
            all_valid = all_valid && v == SynthStatus::Ok;
            if (w.path != Path::Monolithic) {
                out.check(layered == (v == SynthStatus::Ok) &&
                              checksat == (v == SynthStatus::Ok),
                          d + "/" + name +
                              ": replay verdict differs from "
                              "verifyCandidate");
            }
        }
        if (w.path == Path::Monolithic && !h.empty()) {
            bool layered = false, checksat = false;
            replayJoint(cs, h, lim, l, layered, checksat);
            out.check(layered == all_valid && checksat == all_valid,
                      d + ": joint replay verdict differs from "
                          "verifyCandidate");
        }
    }

    // ---- serve layer -----------------------------------------------
    std::vector<Served> served;
    const size_t default_cache = owl::serve::ServerOptions{}.cacheBytes;
    serveProbe(w, ref, default_cache, 10, out, served); // 1 cold, 9 hits
    serveProbe(w, ref, 1, 5, out, served);              // 1 cold, 4 warm
    serveLayerMetrics(served, out);
    out.metric("obs.trace_overhead_ratio", traced_synth / untraced_synth,
               "ratio");

    auto delta = [&](const std::string &n) {
        return static_cast<double>(c1[n] - c0[n]);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.metric("designs.make_ms", l.make_ms, "ms");
    out.metric("serve.fingerprint_ms", l.fingerprint_ms, "ms");
    out.metric("oyster.symeval_ms", l.symeval_ms, "ms");
    out.metric("oyster.term_nodes", static_cast<double>(l.term_nodes),
               "count");
    out.metric("core.spec_compile_ms", l.spec_compile_ms, "ms");
    out.metric("core.cegis_ms", l.cegis_ms, "ms");
    out.metric("core.cegis_iters", static_cast<double>(l.cegis_iters),
               "count");
    out.metric("core.verify_candidate_ms", l.verify_candidate_ms, "ms");
    out.metric("core.verify_design_ms", l.verify_design_ms, "ms");
    out.metric("core.mutex_ms", l.mutex_ms, "ms");
    out.metric("core.union_ms", l.union_ms, "ms");
    out.metric("smt.bitblast_ms", l.bitblast_ms, "ms");
    out.metric("sat.simplify_ms", l.simplify_ms, "ms");
    out.metric("sat.solve_ms", l.solve_ms, "ms");
    out.metric("smt.checksat_ms", l.checksat_ms, "ms");
    out.metric("sat.conflicts", delta("sat.conflicts"), "count");
    out.metric("sat.propagations", delta("sat.propagations"), "count");
    out.metric("sat.preprocess.vars_eliminated",
               delta("sat.preprocess.vars_eliminated"), "count");
    out.metric("sat.simplify_elim_ratio",
               ratio(delta("sat.preprocess.vars_eliminated"),
                     delta("sat.preprocess.vars_total")),
               "ratio");
    out.metric("smt.checks", delta("smt.checks"), "count");
    out.metric("smt.ackermann.lemmas", delta("smt.ackermann.lemmas"),
               "count");
    out.metric("smt.ackermann.rounds", delta("smt.ackermann.rounds"),
               "count");
    out.metric("smt.ackermann.lemma_ratio",
               ratio(delta("smt.ackermann.lemmas"),
                     delta("smt.ackermann.pair_bound")),
               "ratio");
    out.metric("netlist.compile_ms", l.compile_ms, "ms");
    out.metric("netlist.optimize_ms", l.optimize_ms, "ms");
    out.metric("netlist.gates_raw", static_cast<double>(l.gates_raw),
               "count");
    out.row("untraced_synth_s", untraced_synth, "s");
    out.row("traced_synth_s", traced_synth, "s");
}

} // namespace owlbench
