#include "smt/incremental.h"

#include <algorithm>

#include "base/logging.h"
#include "exec/portfolio.h"
#include "obs/obs.h"
#include "smt/query_tail.h"

namespace owl::smt
{

IncrementalContext::IncrementalContext(TermTable &tt_in,
                                       const SolverConfig &cfg)
    : tt(tt_in), config(cfg), ack(tt_in)
{
    const int k = config.racers();
    // Proof sinks must exist (and stay put) before the first clause:
    // resize once, then never touch the vector again.
    if (config.checkProofs)
        proofs.resize(static_cast<size_t>(k));
    solvers.reserve(static_cast<size_t>(k));
    for (int i = 0; i < k; i++) {
        solvers.push_back(
            std::make_unique<sat::Solver>(config.satOptions(i)));
        if (config.checkProofs)
            solvers.back()->setProofSink(&proofs[static_cast<size_t>(i)]);
    }
    if (k > 1 || config.checkProofs)
        solvers[0]->setCaptureCnf(&cnf);
    blaster = std::make_unique<BitBlaster>(tt, *solvers[0]);
    // The blaster's ctor allocated the shared true literal on the
    // primary; replicate it into the racers right away.
    syncSolvers();
}

IncrementalContext::~IncrementalContext() = default;

const sat::Stats &
IncrementalContext::satStats() const
{
    return solvers[0]->stats();
}

uint64_t
IncrementalContext::reachableTerms(const std::vector<TermRef> &roots) const
{
    std::unordered_set<uint32_t> visited;
    std::vector<uint32_t> stack;
    for (TermRef r : roots) {
        if (r.valid() && visited.insert(r.idx).second)
            stack.push_back(r.idx);
    }
    while (!stack.empty()) {
        uint32_t cur = stack.back();
        stack.pop_back();
        for (TermRef c : tt.node(TermRef{cur}).children) {
            if (visited.insert(c.idx).second)
                stack.push_back(c.idx);
        }
    }
    return visited.size();
}

void
IncrementalContext::registerLeaves(const std::vector<TermRef> &roots)
{
    std::vector<TermRef> vars, reads;
    tt.collectLeaves(roots, vars, reads);
    for (TermRef v : vars) {
        if (leafSeen.insert(v.idx).second)
            modelLeaves.push_back(v);
    }
    // Incremental Ackermann via the shared manager. Eager mode pairs
    // each new read against every read known before it (old and new
    // alike), which yields exactly the pair set a from-scratch encode
    // of the union would produce; congruence is a property of the
    // uninterpreted read function, not of any one query, so the
    // constraints are permanent even when the reads themselves only
    // occur inside activation-guarded groups. Lazy mode (default)
    // only registers the reads — check() instantiates violated
    // congruences from model scans — but must pre-blast the read and
    // address circuits so (a) the scan can decode their model values
    // and (b) their output literals enter the cache-output log and
    // get frozen by the caller's syncSolvers() before simp could
    // eliminate a variable a future lemma clause mentions.
    AckermannManager::Registration reg =
        ack.registerReads(reads, config.eagerAckermann);
    for (TermRef r : reg.newReads) {
        if (leafSeen.insert(r.idx).second)
            modelLeaves.push_back(r);
    }
    if (!config.eagerAckermann) {
        for (size_t i = 0; i < reg.newReads.size(); i++) {
            blaster->blast(reg.newReads[i]);
            blaster->blast(reg.addresses[i]);
        }
    }
    for (TermRef c : reg.congruences) {
        blaster->assertTrue(c);
        istats.ackermannConstraints++;
    }
    OWL_COUNTER_ADD("smt.ackermann_constraints",
                    reg.congruences.size());
}

void
IncrementalContext::mirrorToRacers()
{
    if (solvers.size() <= 1)
        return;
    for (size_t i = 1; i < solvers.size(); i++) {
        sat::Solver &s = *solvers[i];
        while (s.numVars() < cnf.numVars)
            s.newVar();
        for (size_t c = mirroredClauses; c < cnf.clauses.size(); c++)
            s.addClause(cnf.clauses[c]);
    }
    mirroredClauses = cnf.clauses.size();
}

void
IncrementalContext::syncSolvers()
{
    mirrorToRacers();
    // Freeze the literals future clauses/assumptions can mention —
    // the blast cache's output vectors — on every solver, so the
    // pre/inprocessing pass never eliminates them. Racer variables
    // exist only after the mirror above.
    const std::vector<sat::Lit> &log = blaster->cacheOutputLog();
    for (; frozenMark < log.size(); frozenMark++) {
        int v = log[frozenMark].var();
        for (auto &s : solvers)
            s->setFrozen(v);
    }
}

void
IncrementalContext::assertPermanent(TermRef t)
{
    owl_assert(tt.width(t) == 1, "assertion must be 1-bit");
    if (tt.isFalse(t)) {
        // Refuted in the term DAG before any clause exists; the
        // verdict is by evaluation (unsat-trivial), not by search.
        rootUnsat = true;
        return;
    }
    size_t cached_before = blaster->cachedTerms();
    uint64_t reachable = reachableTerms({t});
    blaster->assertTrue(t);
    uint64_t fresh = blaster->cachedTerms() - cached_before;
    istats.cacheHits += reachable - fresh;
    istats.nodesEncoded += fresh;
    registerLeaves({t});
    syncSolvers();
}

std::vector<sat::Lit>
IncrementalContext::literalsOf(TermRef t)
{
    std::vector<sat::Lit> lits = blaster->blast(t);
    syncSolvers();
    return lits;
}

int
IncrementalContext::beginReuse()
{
    gen++;
    istats.reuses++;
    OWL_COUNTER_INC("smt.inc.session_reuses");
    return gen;
}

int
IncrementalContext::addGroup(const std::vector<TermRef> &assertions)
{
    obs::ScopedSpan span("smt.inc.addGroup");
    // Warm-session replays re-derive counterexample constraints the
    // session already carries; hash-consing makes them TermRef-equal,
    // so an exact batch match can be answered with the existing group
    // (its activation literal is already in every check()'s
    // assumptions — semantically a no-op, but it keeps the assumption
    // set and clause database from growing without bound).
    std::vector<uint32_t> key;
    key.reserve(assertions.size());
    for (TermRef t : assertions)
        key.push_back(t.idx);
    auto hit = groupIndex.find(key);
    if (hit != groupIndex.end()) {
        istats.groupsDeduped++;
        OWL_COUNTER_INC("smt.inc.groups_deduped");
        span.attr("group", hit->second);
        span.attr("deduped", 1);
        return hit->second;
    }
    int gid = static_cast<int>(activations.size());
    size_t cached_before = blaster->cachedTerms();
    uint64_t reachable = reachableTerms(assertions);

    int avar = solvers[0]->newVar();
    sat::Lit act(avar, false);
    actVarToGroup.emplace(avar, gid);
    for (TermRef t : assertions) {
        owl_assert(tt.width(t) == 1, "assertion must be 1-bit");
        // A constant-false assertion blasts to the shared false
        // literal; (~act v false) simplifies to the unit ~act, which
        // correctly makes every later check() conditionally Unsat.
        sat::Lit l = blaster->blast(t)[0];
        solvers[0]->addClause(~act, l);
    }
    uint64_t fresh = blaster->cachedTerms() - cached_before;
    istats.cacheHits += reachable - fresh;
    istats.nodesEncoded += fresh;

    registerLeaves(assertions);
    syncSolvers();
    // The activation literal rides in every later check()'s assumption
    // set; freeze it everywhere (the racers just received it via the
    // mirror).
    for (auto &s : solvers)
        s->setFrozen(avar);
    activations.push_back(act);
    groupIndex.emplace(std::move(key), gid);
    istats.groups++;
    // Counter-track sample for --trace-out: cumulative blast-cache
    // hits, one point per group (a natural low-frequency stride).
    if (obs::counterSamplingEnabled())
        obs::sampleCounter("smt.cache_hits", istats.cacheHits);
    span.attr("group", gid);
    span.attr("assertions", assertions.size());
    span.attr("new_nodes", fresh);
    span.attr("sat_vars", static_cast<int64_t>(solvers[0]->numVars()));
    return gid;
}

CheckResult
IncrementalContext::check(Model *model, const SolveBudget &budget,
                          CheckStats *stats,
                          const std::vector<sat::Lit> &extra_assumptions)
{
    obs::ScopedSpan span("smt.checkSat");
    span.attr("incremental", 1);
    OWL_COUNTER_INC("smt.checks");
    uint64_t q_start = obs::enabled() ? obs::nowNs() : 0;

    lastWinner = -1;
    lastConditional = false;
    if (rootUnsat) {
        // Refuted in the term DAG by a permanent assertion.
        detail::QueryTail tail;
        tail.result = sat::Result::Unsat;
        tail.trivial = true;
        tail.startNs = q_start;
        tail.satVars = solvers[0]->numVars();
        tail.ackermann = istats.ackermannConstraints;
        detail::finishQuery(span, config, tail);
        if (stats) {
            *stats = CheckStats{};
            stats->satVars = solvers[0]->numVars();
            stats->termNodes = tt.numNodes();
            stats->ackermannConstraints = istats.ackermannConstraints;
        }
        return CheckResult::Unsat;
    }

    istats.solveCalls++;
    if (istats.solveCalls > 1)
        istats.clausesReused += solvers[0]->liveLearnedClauses();

    std::vector<sat::Stats> pre;
    pre.reserve(solvers.size());
    for (const auto &s : solvers)
        pre.push_back(s->stats());

    std::vector<sat::Lit> assumptions = activations;
    assumptions.insert(assumptions.end(), extra_assumptions.begin(),
                       extra_assumptions.end());

    // Solve, then (lazy mode) refine: scan each Sat model for
    // read-consistency violations and assert the violated congruence
    // instances as permanent session facts — through the blaster and
    // syncSolvers(), so they are captured, mirrored to every racer,
    // and their fresh gate outputs frozen exactly like any other
    // permanent assertion. The loop runs inside every check(),
    // including lexmin canonicalization probes, so every verdict any
    // caller sees is eager-equivalent.
    sat::Result r;
    int winner;
    uint64_t ack_rounds = 0, ack_scans = 0, ack_lemmas = 0;
    const bool lazy = !config.eagerAckermann;
    while (true) {
        if (solvers.size() == 1) {
            sat::Solver &s = *solvers[0];
            s.setTimeLimit(budget.timeLimit);
            s.setConflictLimit(budget.conflictLimit);
            s.setCancelFlag(budget.cancelFlag);
            s.setPhaseProfiling(config.profileSat);
            r = s.solve(assumptions);
            winner = 0;
        } else {
            std::vector<sat::Solver *> racers;
            racers.reserve(solvers.size());
            for (const auto &s : solvers) {
                s->setPhaseProfiling(config.profileSat);
                racers.push_back(s.get());
            }
            exec::SolverRaceOutcome out = exec::raceSolvers(
                racers, assumptions, budget.timeLimit,
                budget.conflictLimit, budget.cancelFlag);
            r = out.result;
            winner = out.winner;
            span.attr("portfolio_winner", winner);
        }
        if (r != sat::Result::Sat || !lazy || ack.pairBound() == 0)
            break;
        ack_scans++;
        istats.ackermannScans++;
        // A rival winner's assignment is lifted into a plain vector
        // and decoded through the shared blast cache, same as model
        // extraction below.
        std::vector<bool> values;
        if (winner != 0) {
            sat::Solver &w = *solvers[static_cast<size_t>(winner)];
            values.resize(static_cast<size_t>(cnf.numVars));
            for (int v = 0; v < cnf.numVars; v++)
                values[static_cast<size_t>(v)] = w.modelValue(v);
        }
        std::vector<TermRef> lemmas = ack.scanModel([&](TermRef t) {
            return winner == 0 ? blaster->modelValue(t)
                               : blaster->modelValue(t, values);
        });
        if (lemmas.empty())
            break; // congruence-clean: genuinely Sat
        obs::ScopedSpan ack_span("smt.ackermann");
        for (TermRef cong : lemmas) {
            blaster->assertTrue(cong);
            istats.ackermannConstraints++;
        }
        syncSolvers();
        ack_lemmas += lemmas.size();
        istats.ackermannLemmas += lemmas.size();
        ack_rounds++;
        istats.ackermannRounds++;
        OWL_COUNTER_ADD("smt.ackermann_constraints", lemmas.size());
        ack_span.attr("constraints", lemmas.size());
        ack_span.attr("rounds", ack_rounds);
    }
    OWL_COUNTER_ADD("smt.ackermann.scans", ack_scans);
    OWL_COUNTER_ADD("smt.ackermann.rounds", ack_rounds);
    lastWinner = winner;
    lastConditional = r == sat::Result::Unsat && winner >= 0 &&
                      solvers[static_cast<size_t>(winner)]
                          ->lastUnsatWasConditional();

    int stat_idx = winner >= 0 ? winner : 0;
    const sat::Stats &post = solvers[static_cast<size_t>(stat_idx)]->stats();
    uint64_t d_conflicts = post.conflicts - pre[stat_idx].conflicts;
    uint64_t d_props = post.propagations - pre[stat_idx].propagations;

    // An unconditional Unsat replays the winner's session-long proof
    // (every lemma and deletion since the context was built) against
    // the captured input clauses.
    const sat::DratProof *proof =
        config.checkProofs && winner >= 0
            ? &proofs[static_cast<size_t>(winner)]
            : nullptr;
    detail::QueryTail tail;
    tail.result = r;
    tail.conditional = lastConditional;
    tail.cnf = &cnf;
    tail.proof = proof;
    tail.startNs = q_start;
    tail.satVars = solvers[0]->numVars();
    tail.conflicts = d_conflicts;
    tail.ackermann = istats.ackermannConstraints;
    tail.ackRounds = ack_rounds;
    bool proof_checked = detail::finishQuery(span, config, tail);
    size_t proof_steps =
        proof && r == sat::Result::Unsat ? proof->size() : 0;
    OWL_TRACE_EVENT("smt", "checkSat(incremental) result=",
                    detail::resultName(r), " groups=", activations.size(),
                    " terms=", tt.numNodes(),
                    " sat_vars=", solvers[0]->numVars(),
                    " ack_rounds=", ack_rounds,
                    " conflicts=", d_conflicts,
                    " propagations=", d_props);
    if (stats) {
        stats->satVars = solvers[0]->numVars();
        stats->ackermannConstraints = istats.ackermannConstraints;
        stats->ackermannLemmas = ack_lemmas;
        stats->ackermannRounds = ack_rounds;
        stats->conflicts = d_conflicts;
        stats->propagations = d_props;
        stats->termNodes = tt.numNodes();
        stats->proofChecked = proof_checked;
        stats->proofSteps = proof_steps;
        stats->unsatConditional = lastConditional;
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
        if (winner == 0) {
            for (TermRef t : modelLeaves)
                model->leafValues.emplace(t.idx,
                                          blaster->modelValue(t));
        } else {
            // A rival won: lift its assignment into a plain vector and
            // decode through the shared blast cache (identical
            // variable numbering by construction of the mirror).
            sat::Solver &w = *solvers[static_cast<size_t>(winner)];
            std::vector<bool> values(
                static_cast<size_t>(cnf.numVars));
            for (int v = 0; v < cnf.numVars; v++)
                values[static_cast<size_t>(v)] = w.modelValue(v);
            for (TermRef t : modelLeaves)
                model->leafValues.emplace(
                    t.idx, blaster->modelValue(t, values));
        }
    }
    return CheckResult::Sat;
}

std::vector<int>
IncrementalContext::failedGroups() const
{
    std::vector<int> groups;
    if (!lastConditional || lastWinner < 0)
        return groups;
    const sat::Solver &w = *solvers[static_cast<size_t>(lastWinner)];
    for (sat::Lit l : w.failedAssumptions()) {
        auto it = actVarToGroup.find(l.var());
        if (it != actVarToGroup.end())
            groups.push_back(it->second);
    }
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()),
                 groups.end());
    return groups;
}

} // namespace owl::smt
