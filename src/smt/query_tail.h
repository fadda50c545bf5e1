/**
 * @file
 * The tail both SMT solve paths share (checkSat and
 * IncrementalContext::check): Unsat certification and per-query
 * accounting. Private to src/smt/.
 */

#ifndef OWL_SMT_QUERY_TAIL_H
#define OWL_SMT_QUERY_TAIL_H

#include "obs/obs.h"
#include "sat/drat.h"
#include "smt/solver.h"

namespace owl::smt::detail
{

/** How one finished query (checkSat or incremental check) ended. */
struct QueryTail
{
    sat::Result result = sat::Result::Unknown;
    /** Refuted in the term DAG before any clause existed. */
    bool trivial = false;
    /** Unsat only under assumptions: no proof obligation. */
    bool conditional = false;
    /** Captured input clauses and proof (SolverConfig::checkProofs). */
    const sat::Cnf *cnf = nullptr;
    const sat::DratProof *proof = nullptr;
    uint64_t startNs = 0; ///< obs::nowNs() at query entry
    int64_t satVars = 0;
    uint64_t conflicts = 0;
    uint64_t ackermann = 0; ///< congruences asserted
    uint64_t ackRounds = 0;
};

/**
 * Finish one query. Under checkProofs an Unsat is booked as
 * drat.unsat_trivial, drat.unsat_conditional, or replayed through
 * sat::checkDrat — CEGIS trusts Unsat twice over (no
 * counterexample ships the candidate), so a proof that does not check
 * panics instead of returning an unsound verdict. Then records the
 * span's result/sat_vars/conflicts and the smt.query_* histograms.
 * Returns true when a proof was replayed.
 */
bool finishQuery(obs::ScopedSpan &span, const SolverConfig &cfg,
                 const QueryTail &q);

const char *resultName(sat::Result r);

} // namespace owl::smt::detail

#endif // OWL_SMT_QUERY_TAIL_H
