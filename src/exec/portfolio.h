/**
 * @file
 * Portfolio SAT: race K diversified CDCL configurations on one
 * formula and take the first definitive answer, cancelling the
 * losers (the standard trick behind parallel solvers à la
 * plingeling/painless, applied here to the hardest synthesis
 * queries — monolithic Equation (1) checks and late CEGIS
 * iterations).
 *
 * Every configuration is individually deterministic, and config 0 is
 * always the unseeded default solver, so the *answer* (sat/unsat)
 * matches a plain sequential solve; which configuration wins — and
 * therefore which model comes back on satisfiable queries — depends
 * on timing. Callers that need bit-reproducible models (the
 * determinism contract of Strategy::PerInstructionParallel) must not
 * enable the portfolio.
 */

#ifndef OWL_EXEC_PORTFOLIO_H
#define OWL_EXEC_PORTFOLIO_H

#include <chrono>
#include <vector>

#include "exec/thread_pool.h"
#include "sat/drat.h"
#include "sat/solver.h"

namespace owl::exec
{

/** Outcome of one portfolio race. */
struct PortfolioOutcome
{
    sat::Result result = sat::Result::Unknown;
    /** Index of the winning configuration, -1 if none finished. */
    int winner = -1;
    /** Variable assignment (by var index) when result == Sat. */
    std::vector<bool> model;
    /** The winning solver's per-call statistics. */
    sat::Stats winnerStats;
    /**
     * The winning solver's DRAT proof when result == Unsat and proof
     * capture was requested. Each racer records its own independent
     * proof against the shared CNF, so the winner's refutation is
     * checkable no matter which configuration finished first.
     */
    sat::DratProof proof;
};

/**
 * Racer i's solver configuration. Config 0 is the deterministic
 * default; the rest vary the decision RNG seed, default phase, random
 * decision frequency, and restart pacing.
 */
sat::Solver::Options diversifiedConfig(int i);

/** Configs 0..k-1 of diversifiedConfig(). */
std::vector<sat::Solver::Options> diversifiedConfigs(int k);

/**
 * Race the configurations on a captured CNF. The calling thread runs
 * config 0 itself while the others go to the pool, and helps drain
 * the pool during the join — so a race issued from inside a pool task
 * still makes progress when every worker is busy.
 */
class Portfolio
{
  public:
    /** @param pool pool for the rival configs; null = globalPool(). */
    explicit Portfolio(ThreadPool *pool = nullptr);

    /**
     * @param cnf the formula (replayed into each solver).
     * @param configs one solver configuration per racer.
     * @param time_limit per-solver wall-clock limit; 0 = none.
     * @param conflict_limit per-solver conflict cap; 0 = none.
     * @param external cancels the whole race from outside.
     * @param capture_proofs record per-racer DRAT proofs; the winner's
     *        lands in PortfolioOutcome::proof on Unsat.
     * @param profile_sat enable the CDCL phase profiler on every
     *        racer (sat.phase.* counters, `--profile-sat`).
     */
    PortfolioOutcome solve(
        const sat::Cnf &cnf,
        const std::vector<sat::Solver::Options> &configs,
        std::chrono::milliseconds time_limit =
            std::chrono::milliseconds{0},
        uint64_t conflict_limit = 0,
        const std::atomic<bool> *external = nullptr,
        bool capture_proofs = false,
        bool profile_sat = false);

  private:
    ThreadPool *pool;
};

/** Outcome of one raceSolvers() call. */
struct SolverRaceOutcome
{
    sat::Result result = sat::Result::Unknown;
    /** Index into the solver vector of the racer that answered first;
     *  -1 if nobody finished within the limits. */
    int winner = -1;
};

/**
 * Race already-constructed *persistent* solvers on the formula each
 * of them already holds, under one shared assumption set. This is the
 * incremental counterpart of Portfolio::solve: the racers are owned
 * by the caller (an smt::IncrementalContext keeps one per
 * configuration, mirrored clause-for-clause), keep their learned
 * clauses, activities, and proof sinks across races, and are reusable
 * immediately after the call returns — all racers have been joined,
 * so the winner's model/proof/failed-assumption core can be read
 * directly off solvers[outcome.winner].
 *
 * The calling thread runs solvers[0] itself (guaranteed progress on a
 * saturated pool); losers are cancelled cooperatively and come back
 * Unknown, which leaves their clause databases intact. Time, conflict
 * and cancel settings are (re)applied to every racer on each call.
 *
 * @param solvers the racers; at least one, all non-null.
 * @param assumptions literals assumed true, applied to every racer.
 * @param time_limit per-racer wall-clock limit; 0 = none.
 * @param conflict_limit per-racer conflict cap; 0 = none.
 * @param external cancels the whole race from outside; may be null.
 * @param pool pool for the rival racers; null = globalPool().
 */
SolverRaceOutcome raceSolvers(
    const std::vector<sat::Solver *> &solvers,
    const std::vector<sat::Lit> &assumptions,
    std::chrono::milliseconds time_limit = std::chrono::milliseconds{0},
    uint64_t conflict_limit = 0,
    const std::atomic<bool> *external = nullptr,
    ThreadPool *pool = nullptr);

} // namespace owl::exec

#endif // OWL_EXEC_PORTFOLIO_H
