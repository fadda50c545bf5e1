#include "smt/solver.h"

#include <algorithm>

#include "base/logging.h"
#include "exec/portfolio.h"
#include "lint/diagnostic.h"
#include "obs/obs.h"
#include "sat/drat.h"
#include "smt/ackermann.h"
#include "smt/bitblast.h"
#include "smt/query_tail.h"

namespace owl::smt
{

BitVec
Model::varValue(const TermTable &tt, int var_id) const
{
    TermRef t = tt.varTerm(var_id);
    auto it = leafValues.find(t.idx);
    if (it != leafValues.end())
        return it->second;
    return BitVec(tt.varInfo(var_id).width);
}

Assignment
Model::toAssignment(const TermTable &tt) const
{
    Assignment asg;
    for (const auto &[idx, val] : leafValues) {
        const Node &n = tt.node(TermRef{idx});
        if (n.op == Op::Var) {
            asg.setVar(n.a, val);
        } else if (n.op == Op::BaseRead) {
            // Only concrete-address base reads can be replayed into an
            // Assignment; symbolic-address reads need the containing
            // query's other leaves to resolve, which evalTerm does via
            // the address child.
            if (tt.isConst(n.children[0])) {
                asg.setMemWord(n.a,
                               tt.constValue(n.children[0]).toUint64(),
                               val);
            }
        }
    }
    return asg;
}

sat::Solver::Options
SolverConfig::satOptions(int racer) const
{
    sat::Solver::Options o = exec::diversifiedConfig(racer);
    o.simp.enabled = preprocess;
    o.simp.inprocessConflicts = inprocessConflicts;
    return o;
}

uint64_t
SolverConfig::fingerprint() const
{
    uint64_t fp = static_cast<uint64_t>(satPortfolio);
    for (uint64_t field :
         {uint64_t{checkProofs}, uint64_t{profileSat},
          uint64_t{preprocess}, inprocessConflicts,
          uint64_t{eagerAckermann}})
        fp = fp * 1099511628211ull + field;
    return fp;
}

const char *
detail::resultName(sat::Result r)
{
    switch (r) {
      case sat::Result::Sat: return "sat";
      case sat::Result::Unsat: return "unsat";
      case sat::Result::Unknown: return "unknown";
    }
    return "?";
}

bool
detail::finishQuery(obs::ScopedSpan &span, const SolverConfig &cfg,
                    const QueryTail &q)
{
    bool checked = false;
    if (cfg.checkProofs && q.result == sat::Result::Unsat) {
        if (q.trivial) {
            OWL_COUNTER_INC("drat.unsat_trivial");
        } else if (q.conditional) {
            OWL_COUNTER_INC("drat.unsat_conditional");
        } else {
            obs::ScopedSpan drat_span("smt.checkDrat");
            lint::Report drat_report;
            if (!sat::checkDrat(*q.cnf, *q.proof, &drat_report)) {
                owl_panic("UNSAT verdict failed DRAT proof replay (",
                          q.proof->size(), " steps, ",
                          q.cnf->clauses.size(), " clauses):\n",
                          drat_report.toString());
            }
            checked = true;
            drat_span.attr("steps", q.proof->size());
            OWL_COUNTER_INC("drat.proofs_checked");
            OWL_COUNTER_ADD("drat.proof_steps", q.proof->size());
        }
    }
    span.attr("result", q.trivial ? "unsat-trivial" : resultName(q.result));
    span.attr("sat_vars", q.satVars);
    span.attr("conflicts", q.conflicts);
    if (obs::enabled()) {
        OWL_HISTOGRAM_RECORD("smt.query_ns", obs::nowNs() - q.startNs);
        OWL_HISTOGRAM_RECORD("smt.query_conflicts", q.conflicts);
        OWL_HISTOGRAM_RECORD("smt.query_ackermann", q.ackermann);
        OWL_HISTOGRAM_RECORD("smt.query_ack_rounds", q.ackRounds);
    }
    return checked;
}

CheckResult
checkSat(TermTable &tt, const std::vector<TermRef> &assertions,
         Model *model, const SolveLimits &limits, CheckStats *stats)
{
    obs::ScopedSpan span("smt.checkSat");
    OWL_COUNTER_INC("smt.checks");
    uint64_t q_start = obs::enabled() ? obs::nowNs() : 0;

    // Gather leaves to (a) register the memory base reads for
    // Ackermann congruence and (b) know what to extract into the
    // model.
    std::vector<TermRef> vars, base_reads;
    tt.collectLeaves(assertions, vars, base_reads);

    // Ackermann congruence: reads of the same memory base at equal
    // addresses return equal values. Eager mode instantiates the full
    // pair set here (constant-address pairs fold away inside
    // mkImplies/mkEq); the default lazy mode only registers the reads
    // and instantiates violated instances from model scans below.
    const bool eager = limits.eagerAckermann;
    AckermannManager ack(tt);
    AckermannManager::Registration reg;
    std::vector<TermRef> all = assertions;
    size_t n_ack = 0;
    {
        obs::ScopedSpan ack_span("smt.ackermann");
        reg = ack.registerReads(base_reads, eager);
        for (TermRef cong : reg.congruences) {
            all.push_back(cong);
            n_ack++;
        }
        ack_span.attr("constraints", n_ack);
        ack_span.attr("pair_bound", ack.pairBound());
        ack_span.attr("rounds", 0);
    }
    OWL_COUNTER_ADD("smt.ackermann_constraints", n_ack);
    // With no same-memory pair there is nothing to refine on.
    const bool lazy = !eager && ack.pairBound() > 0;

    // Assumption-free solve with (lazy mode) restart-based
    // refinement: each round re-encodes the assertions plus every
    // lemma learned so far into a FRESH solver, so the CNF of round k
    // is exactly the eager encoding restricted to the instantiated
    // pair subset. Restarting (rather than asserting lemmas into the
    // live solver) keeps pre/inprocessing unrestricted: an in-place
    // lemma can mention the cached encoding of any subterm, and
    // freezing the whole escape set to protect it measurably defeats
    // variable elimination. Re-blasting is cheap next to search, and
    // the converged round's CNF/proof pair is exactly what the DRAT
    // checker and portfolio racers need. Terminates because every
    // round instantiates at least one new pair from the finite pair
    // set (smt/ackermann.h).
    //
    // Portfolio mode races the captured CNF (identical variable
    // numbering) across diversified configs; proof checking captures
    // it too — the DRAT checker replays against exactly these clauses.
    std::vector<sat::Solver::Options> configs;
    if (limits.racers() > 1) {
        for (int i = 0; i < limits.racers(); i++)
            configs.push_back(limits.satOptions(i));
    }
    const bool use_portfolio = !configs.empty();

    std::unique_ptr<sat::Solver> solver;
    std::unique_ptr<BitBlaster> blaster;
    sat::Cnf cnf;
    sat::DratProof proof;
    sat::Result r = sat::Result::Unknown;
    std::vector<bool> portfolio_model;
    sat::Stats run_stats;
    bool trivially_false = false;
    std::vector<TermRef> lazy_lemmas;
    std::vector<bool> phase_hints;
    uint64_t ack_rounds = 0, ack_scans = 0, ack_lemmas = 0;
    // Pre-assert the caller's cached congruence pairs (violated by
    // some earlier, structurally similar query) so round 1 already
    // contains them: repeated verifies of one instruction then
    // converge without re-running the refinement restarts that first
    // discovered the pairs.
    if (lazy && limits.ackermannSeeds) {
        std::vector<TermRef> seeded =
            ack.instantiateSeeds(*limits.ackermannSeeds);
        lazy_lemmas.insert(lazy_lemmas.end(), seeded.begin(),
                           seeded.end());
        n_ack += seeded.size();
        OWL_COUNTER_ADD("smt.ackermann_constraints", seeded.size());
    }
    while (true) {
        solver = std::make_unique<sat::Solver>(limits.satOptions());
        if (limits.timeLimit.count() > 0)
            solver->setTimeLimit(limits.timeLimit);
        if (limits.conflictLimit > 0)
            solver->setConflictLimit(limits.conflictLimit);
        solver->setCancelFlag(limits.cancelFlag);
        solver->setPhaseProfiling(limits.profileSat);
        cnf = sat::Cnf();
        proof = sat::DratProof();
        if (use_portfolio || limits.checkProofs)
            solver->setCaptureCnf(&cnf);
        if (limits.checkProofs && !use_portfolio)
            solver->setProofSink(&proof);
        blaster = std::make_unique<BitBlaster>(tt, *solver);
        {
            obs::ScopedSpan bb_span("smt.bitblast");
            for (TermRef a : all) {
                owl_assert(tt.width(a) == 1,
                           "assertion must be 1-bit");
                if (tt.isFalse(a)) {
                    trivially_false = true;
                    break;
                }
                blaster->assertTrue(a);
            }
            if (!trivially_false) {
                for (TermRef cong : lazy_lemmas)
                    blaster->assertTrue(cong);
                // Lazy mode: the model scan decodes every registered
                // read and its address, so their circuits must exist
                // before the solve.
                if (lazy) {
                    for (size_t i = 0; i < reg.newReads.size(); i++) {
                        blaster->blast(reg.newReads[i]);
                        blaster->blast(reg.addresses[i]);
                    }
                }
            }
            bb_span.attr("sat_vars",
                         static_cast<int64_t>(solver->numVars()));
            bb_span.attr("terms",
                         static_cast<int64_t>(tt.numNodes()));
        }
        if (trivially_false) {
            r = sat::Result::Unsat;
            break;
        }
        // Warm-start refinement rounds from the previous round's
        // model: the shared encoding prefix has identical variable
        // numbering, so search only repairs around the new lemmas.
        if (!use_portfolio && !phase_hints.empty())
            solver->setPhaseHints(phase_hints);

        if (use_portfolio) {
            exec::Portfolio portfolio;
            exec::PortfolioOutcome out = portfolio.solve(
                cnf, configs, limits.timeLimit, limits.conflictLimit,
                limits.cancelFlag, limits.checkProofs,
                limits.profileSat);
            r = out.result;
            portfolio_model = std::move(out.model);
            run_stats = out.winnerStats;
            proof = std::move(out.proof);
            span.attr("portfolio_winner", out.winner);
        } else {
            r = solver->solve();
            run_stats = solver->stats();
        }
        if (r != sat::Result::Sat || !lazy)
            break;
        ack_scans++;
        std::vector<TermRef> lemmas = ack.scanModel([&](TermRef t) {
            return use_portfolio
                       ? blaster->modelValue(t, portfolio_model)
                       : blaster->modelValue(t);
        });
        if (lemmas.empty())
            break; // congruence-clean: genuinely Sat
        if (!use_portfolio) {
            phase_hints.resize(static_cast<size_t>(solver->numVars()));
            for (int v = 0; v < solver->numVars(); v++)
                phase_hints[v] = solver->modelValue(v);
        }
        obs::ScopedSpan ack_span("smt.ackermann");
        lazy_lemmas.insert(lazy_lemmas.end(), lemmas.begin(),
                           lemmas.end());
        n_ack += lemmas.size();
        ack_lemmas += lemmas.size();
        ack_rounds++;
        OWL_COUNTER_ADD("smt.ackermann_constraints", lemmas.size());
        ack_span.attr("constraints", lemmas.size());
        ack_span.attr("rounds", ack_rounds);
    }
    OWL_COUNTER_ADD("smt.sat_vars",
                    static_cast<uint64_t>(solver->numVars()));
    OWL_COUNTER_ADD("smt.term_nodes",
                    static_cast<uint64_t>(tt.numNodes()));
    OWL_COUNTER_ADD("smt.ackermann.scans", ack_scans);
    OWL_COUNTER_ADD("smt.ackermann.rounds", ack_rounds);
    if (lazy && limits.ackermannSeeds)
        ack.exportInstantiated(*limits.ackermannSeeds);

    // A constant-false assertion is refuted in the term DAG before any
    // clause exists; the verdict is by evaluation, not by search, so
    // there is no proof to replay. This path solves without
    // assumptions, so no Unsat is conditional.
    detail::QueryTail tail;
    tail.result = r;
    tail.trivial = trivially_false;
    tail.cnf = &cnf;
    tail.proof = &proof;
    tail.startNs = q_start;
    tail.satVars = solver->numVars();
    tail.conflicts = run_stats.conflicts;
    tail.ackermann = n_ack;
    tail.ackRounds = ack_rounds;
    bool proof_checked = detail::finishQuery(span, limits, tail);
    if (trivially_false)
        return CheckResult::Unsat;
    OWL_TRACE_EVENT("smt", "checkSat result=", detail::resultName(r),
                    " assertions=", assertions.size(),
                    " terms=", tt.numNodes(),
                    " sat_vars=", solver->numVars(),
                    " ackermann=", n_ack,
                    " ack_rounds=", ack_rounds,
                    " conflicts=", run_stats.conflicts,
                    " propagations=", run_stats.propagations);
    if (stats) {
        stats->satVars = solver->numVars();
        stats->ackermannConstraints = n_ack;
        stats->ackermannLemmas = ack_lemmas;
        stats->ackermannRounds = ack_rounds;
        stats->conflicts = run_stats.conflicts;
        stats->propagations = run_stats.propagations;
        stats->termNodes = tt.numNodes();
        stats->proofChecked = proof_checked;
        stats->proofSteps = proof.size();
    }
    switch (r) {
      case sat::Result::Unsat:
        return CheckResult::Unsat;
      case sat::Result::Unknown:
        return CheckResult::Unknown;
      case sat::Result::Sat:
        break;
    }

    if (model) {
        model->leafValues.clear();
        for (TermRef v : vars) {
            model->leafValues.emplace(
                v.idx, use_portfolio
                           ? blaster->modelValue(v, portfolio_model)
                           : blaster->modelValue(v));
        }
        for (TermRef b : base_reads) {
            model->leafValues.emplace(
                b.idx, use_portfolio
                           ? blaster->modelValue(b, portfolio_model)
                           : blaster->modelValue(b));
        }
    }
    return CheckResult::Sat;
}

} // namespace owl::smt
