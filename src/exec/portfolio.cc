#include "exec/portfolio.h"

#include <mutex>
#include <string>

#include "obs/obs.h"

namespace owl::exec
{

sat::Solver::Options
diversifiedConfig(int i)
{
    sat::Solver::Options o;
    // Config 0 is the deterministic baseline: it guarantees the race
    // never answers differently from a sequential solve.
    if (i == 0)
        return o;
    o.seed = 1 + static_cast<uint64_t>(i);
    o.initialPhase = (i % 2) == 1;
    // Odd configs lean on decision randomness, even ones on restart
    // pacing, so the portfolio spreads across orthogonal heuristic
    // axes rather than re-rolling one knob.
    o.randomDecisionFreq = (i % 2) == 1 ? 0.02 * ((i + 1) / 2) : 0.0;
    o.restartBase = (i % 3 == 0) ? 50 : (i % 3 == 1 ? 100 : 200);
    return o;
}

std::vector<sat::Solver::Options>
diversifiedConfigs(int k)
{
    std::vector<sat::Solver::Options> configs;
    for (int i = 0; i < k; i++)
        configs.push_back(diversifiedConfig(i));
    return configs;
}

Portfolio::Portfolio(ThreadPool *pool_in)
    : pool(pool_in ? pool_in : &globalPool())
{
}

namespace
{

/** First-definitive-result collector, shared by all racers. */
struct RaceState
{
    std::mutex mu;
    PortfolioOutcome outcome;
};

/**
 * Book one racer's wall-clock time against its per-configuration
 * counter (sat.portfolio.racer_ns.<index>). Dynamic registry lookup
 * is fine here: one call per racer per race, nowhere near the solve
 * hot path.
 */
void
bookRacerNs(int index, uint64_t ns)
{
    if (!obs::enabled())
        return;
    obs::Registry::instance()
        .counter("sat.portfolio.racer_ns." + std::to_string(index))
        .add(ns);
}

void
runConfig(const sat::Cnf &cnf, const sat::Solver::Options &config,
          int index, std::chrono::milliseconds time_limit,
          uint64_t conflict_limit, CancelToken race,
          const std::atomic<bool> *external, bool capture_proofs,
          bool profile_sat, RaceState &state)
{
    if (race.cancelled())
        return;
    obs::ScopedSpan span("sat.portfolio.config");
    span.attr("config", index);
    span.attr("seed", config.seed);

    sat::Solver solver(config);
    solver.setCancelFlag(race.flag(), external);
    if (time_limit.count() > 0)
        solver.setTimeLimit(time_limit);
    if (conflict_limit > 0)
        solver.setConflictLimit(conflict_limit);
    solver.setPhaseProfiling(profile_sat);
    // The sink must be attached before loadCnf: replaying the formula
    // can already refute it (empty-clause step) or learn units.
    sat::DratProof proof;
    if (capture_proofs)
        solver.setProofSink(&proof);
    solver.loadCnf(cnf);

    uint64_t t0 = obs::enabled() ? obs::nowNs() : 0;
    sat::Result r = solver.solve();
    uint64_t ns = obs::enabled() ? obs::nowNs() - t0 : 0;
    span.attr("ns", ns);
    bookRacerNs(index, ns);
    span.attr("result", r == sat::Result::Sat
                            ? "sat"
                            : (r == sat::Result::Unsat ? "unsat"
                                                       : "unknown"));
    if (r == sat::Result::Unknown)
        return; // cancelled or out of budget: not a winner
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.outcome.winner != -1)
        return; // someone already won
    state.outcome.winner = index;
    state.outcome.result = r;
    state.outcome.winnerStats = solver.stats();
    if (r == sat::Result::Unsat && capture_proofs)
        state.outcome.proof = std::move(proof);
    if (r == sat::Result::Sat) {
        state.outcome.model.resize(cnf.numVars);
        for (int v = 0; v < cnf.numVars; v++)
            state.outcome.model[v] = solver.modelValue(v);
    }
    race.cancel(); // losers abort within a few conflicts
}

} // namespace

PortfolioOutcome
Portfolio::solve(const sat::Cnf &cnf,
                 const std::vector<sat::Solver::Options> &configs,
                 std::chrono::milliseconds time_limit,
                 uint64_t conflict_limit,
                 const std::atomic<bool> *external,
                 bool capture_proofs, bool profile_sat)
{
    obs::ScopedSpan span("sat.portfolio");
    span.attr("configs", configs.size());
    span.attr("vars", cnf.numVars);
    span.attr("clauses", cnf.clauses.size());
    OWL_COUNTER_INC("exec.portfolio.races");

    RaceState state;
    if (configs.empty())
        return state.outcome;

    CancelToken race;
    obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();
    std::vector<std::future<void>> rivals;
    rivals.reserve(configs.size() - 1);
    for (size_t i = 1; i < configs.size(); i++) {
        rivals.push_back(pool->submit(
            [&, i, race, ctx] {
                obs::TaskSpanScope scope(ctx);
                runConfig(cnf, configs[i], static_cast<int>(i),
                          time_limit, conflict_limit, race, external,
                          capture_proofs, profile_sat, state);
            }));
    }
    // The caller is racer 0: guaranteed progress even when the pool
    // is saturated (e.g. a race inside a parallel synthesis task).
    runConfig(cnf, configs[0], 0, time_limit, conflict_limit, race,
              external, capture_proofs, profile_sat, state);
    for (auto &f : rivals)
        pool->waitFor(f);

    span.attr("winner", state.outcome.winner);
    if (state.outcome.winner > 0)
        OWL_COUNTER_INC("exec.portfolio.rival_wins");
    return state.outcome;
}

namespace
{

/** First-definitive-result collector for raceSolvers. */
struct SolverRaceState
{
    std::mutex mu;
    SolverRaceOutcome outcome;
};

void
runSolver(sat::Solver &solver, int index,
          const std::vector<sat::Lit> &assumptions,
          std::chrono::milliseconds time_limit,
          uint64_t conflict_limit, CancelToken race,
          const std::atomic<bool> *external, SolverRaceState &state)
{
    if (race.cancelled())
        return;
    obs::ScopedSpan span("sat.portfolio.racer");
    span.attr("racer", index);

    solver.setCancelFlag(race.flag(), external);
    solver.setTimeLimit(time_limit);
    solver.setConflictLimit(conflict_limit);
    uint64_t t0 = obs::enabled() ? obs::nowNs() : 0;
    sat::Result r = solver.solve(assumptions);
    uint64_t ns = obs::enabled() ? obs::nowNs() - t0 : 0;
    span.attr("ns", ns);
    bookRacerNs(index, ns);
    span.attr("result", r == sat::Result::Sat
                            ? "sat"
                            : (r == sat::Result::Unsat ? "unsat"
                                                       : "unknown"));
    if (r == sat::Result::Unknown)
        return; // cancelled or out of budget: not a winner
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.outcome.winner != -1)
        return; // someone already won
    state.outcome.winner = index;
    state.outcome.result = r;
    race.cancel(); // losers abort within a few conflicts/decisions
}

} // namespace

SolverRaceOutcome
raceSolvers(const std::vector<sat::Solver *> &solvers,
            const std::vector<sat::Lit> &assumptions,
            std::chrono::milliseconds time_limit,
            uint64_t conflict_limit,
            const std::atomic<bool> *external, ThreadPool *pool)
{
    obs::ScopedSpan span("sat.portfolio.incremental");
    span.attr("racers", solvers.size());
    OWL_COUNTER_INC("exec.portfolio.incremental_races");

    SolverRaceState state;
    if (solvers.empty())
        return state.outcome;
    if (!pool)
        pool = &globalPool();

    CancelToken race;
    obs::TaskSpanContext ctx = obs::TaskSpanContext::capture();
    std::vector<std::future<void>> rivals;
    rivals.reserve(solvers.size() - 1);
    for (size_t i = 1; i < solvers.size(); i++) {
        rivals.push_back(pool->submit(
            [&, i, race, ctx] {
                obs::TaskSpanScope scope(ctx);
                runSolver(*solvers[i], static_cast<int>(i),
                          assumptions, time_limit, conflict_limit,
                          race, external, state);
            }));
    }
    // The caller is racer 0 (the deterministic baseline config).
    runSolver(*solvers[0], 0, assumptions, time_limit, conflict_limit,
              race, external, state);
    for (auto &f : rivals)
        pool->waitFor(f);

    span.attr("winner", state.outcome.winner);
    if (state.outcome.winner > 0)
        OWL_COUNTER_INC("exec.portfolio.rival_wins");
    return state.outcome;
}

} // namespace owl::exec
