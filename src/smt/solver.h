/**
 * @file
 * The QF_BV satisfiability interface used by the synthesis engine.
 *
 * A Query is a conjunction of 1-bit terms. checkSat() bit-blasts the
 * query into a fresh CDCL instance and enforces Ackermann congruence
 * for the uninterpreted memory base reads (the paper models memories
 * as an uninterpreted read function plus a write association list;
 * Ackermann expansion removes the UF). By default congruences are
 * instantiated lazily — solve, scan the model for read-consistency
 * violations, assert only the violated instances, re-solve
 * (smt/ackermann.h, DESIGN.md §14); SolverConfig::eagerAckermann
 * restores the up-front quadratic expansion.
 */

#ifndef OWL_SMT_SOLVER_H
#define OWL_SMT_SOLVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sat/solver.h"
#include "smt/term.h"

namespace owl::smt
{

struct AckermannSeeds; // smt/ackermann.h

/** Outcome of a checkSat call. */
enum class CheckResult : uint8_t { Sat, Unsat, Unknown };

/**
 * A model for a satisfiable query: values for every Var and BaseRead
 * leaf that appeared in the query.
 */
class Model
{
  public:
    /** Value of a variable (by var id); zero if absent. */
    BitVec varValue(const TermTable &tt, int var_id) const;

    /** Convert to an Assignment usable with evalTerm. */
    Assignment toAssignment(const TermTable &tt) const;

    /** Raw leaf values keyed by term index. */
    std::unordered_map<uint32_t, BitVec> leafValues;
};

/**
 * The satisfiability oracle's policy: how every SAT solver behind a
 * checkSat() call or an IncrementalContext session is configured.
 * Declared once, here, and inherited by every options struct that
 * carries it (SolveLimits, synth::CegisOptions,
 * synth::SynthesisOptions, serve::JobRequest), so each layer hands it
 * down with one slice assignment.
 * DESIGN.md §7.1 tabulates each knob's CLI flag, serve key, default
 * and consumer.
 */
struct SolverConfig
{
    /**
     * >1 races that many diversified CDCL configurations per query
     * (owl::exec::Portfolio; `owl synth --portfolio K`) and takes the
     * first definitive answer. Verdicts match a sequential solve, but
     * the *model* of a Sat query depends on which config wins.
     */
    int satPortfolio = 0;
    /**
     * Record a DRAT proof during CDCL search and replay it through the
     * independent forward checker (sat::checkDrat) whenever the
     * verdict is an unconditional Unsat — the winning racer's proof
     * under portfolio mode. A proof that fails to check is a solver
     * bug and panics rather than returning an unsound Unsat
     * (`owl synth --check-proofs`).
     */
    bool checkProofs = false;
    /**
     * Enable the CDCL phase profiler on every solver
     * (sat::Solver::setPhaseProfiling), exported as sat.phase.*
     * counters (`owl synth --profile-sat`).
     */
    bool profileSat = false;
    /**
     * SatELite-style pre/inprocessing (sat::SimpOptions) on every
     * solver (`owl synth --no-preprocess` opts out). Incremental
     * sessions keep the freeze discipline it needs; holes are
     * bit-identical either way (lexmin canonicalization).
     */
    bool preprocess = true;
    /**
     * Conflicts between inprocessing rounds at restart boundaries;
     * 0 keeps solve-entry preprocessing only (`owl synth --inprocess
     * N`). Only meaningful with preprocess on.
     */
    uint64_t inprocessConflicts = sat::SimpOptions{}.inprocessConflicts;
    /**
     * Instantiate the full quadratic set of Ackermann congruences for
     * memory base reads up front instead of the default
     * lemmas-on-demand refinement (DESIGN.md §14;
     * `owl synth --eager-ackermann`). Verdicts and lexmin holes are
     * identical either way.
     */
    bool eagerAckermann = false;

    /** Solvers per query: satPortfolio when racing, else one. */
    int racers() const { return satPortfolio > 1 ? satPortfolio : 1; }
    /**
     * The sat::Solver::Options of racer i: exec::diversifiedConfig(i)
     * (racer 0 is the deterministic default search) with this
     * config's pre/inprocessing settings.
     */
    sat::Solver::Options satOptions(int racer = 0) const;
    /**
     * Hash of every field. Sessions are built under one config and
     * keep it (IncrementalContext), so serve's warm pool only hands a
     * parked session to a request with the same fingerprint.
     */
    uint64_t fingerprint() const;
};

/** How long one solve may run. */
struct SolveBudget
{
    std::chrono::milliseconds timeLimit{0}; ///< 0 = unlimited
    uint64_t conflictLimit = 0;             ///< 0 = unlimited
    /** Cooperative cancellation (polled by the SAT loop); may be null. */
    const std::atomic<bool> *cancelFlag = nullptr;
};

/** Policy, budget and lemma cache of one checkSat() call. */
struct SolveLimits : SolverConfig, SolveBudget
{
    /**
     * Optional cross-query lemma cache for the lazy refinement loop
     * (smt/ackermann.h). When set, previously violated congruence
     * pairs are pre-asserted in round 1 (booked under
     * `smt.ackermann.seeded`) and pairs this call instantiates are
     * recorded back, so a caller re-solving structurally similar
     * queries (CEGIS verifying one instruction across iterations)
     * pays each pair's refinement restart once, not once per query.
     * Ignored in eager mode. Non-owning; may be null.
     */
    AckermannSeeds *ackermannSeeds = nullptr;
};

/** Statistics from the most recent checkSat call. */
struct CheckStats
{
    size_t satVars = 0;
    /** Congruences asserted (eager pairs or lazy lemmas alike). */
    size_t ackermannConstraints = 0;
    /** Lazy congruence lemmas instantiated from model scans. */
    uint64_t ackermannLemmas = 0;
    /** Lemma-triggered re-solves (0 = first model was clean/eager). */
    uint64_t ackermannRounds = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    /** Term-DAG nodes in the table after bit-blasting. */
    size_t termNodes = 0;
    /** True if an Unsat verdict was certified by the DRAT checker. */
    bool proofChecked = false;
    /** Steps in the checked proof (adds + deletes). */
    size_t proofSteps = 0;
    /**
     * True when an Unsat verdict held only under the call's
     * assumptions (incremental activation literals): the formula was
     * not refuted, so the verdict carries no DRAT proof obligation
     * and proof-coverage accounting books it as `drat.unsat_conditional`
     * rather than `drat.proofs_checked`.
     */
    bool unsatConditional = false;
};

/**
 * Check satisfiability of the conjunction of the given 1-bit terms.
 *
 * @param tt the term table the assertions live in.
 * @param assertions 1-bit terms, all required true.
 * @param model filled in on Sat if non-null.
 * @param limits optional resource limits (Unknown on exhaustion).
 * @param stats optional output statistics.
 */
CheckResult checkSat(TermTable &tt,
                     const std::vector<TermRef> &assertions,
                     Model *model = nullptr,
                     const SolveLimits &limits = {},
                     CheckStats *stats = nullptr);

} // namespace owl::smt

#endif // OWL_SMT_SOLVER_H
