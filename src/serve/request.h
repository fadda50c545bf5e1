/**
 * @file
 * The serve request/result model and its JSON wire format.
 *
 * One JobRequest = one design synthesis. Batch mode reads a jobs file
 * ({"jobs": [...]} or a bare array); socket mode reads one request
 * object per line (NDJSON) and writes one result object per line.
 * Both front ends feed the identical queue/cache/session path.
 *
 * Request fields: {"id": str?, "design": str, "budget_ms": int?,
 * "max_iterations": int?, "verify": bool?, "check_proofs": bool?,
 * "preprocess": bool?, "eager_ackermann": bool?, "stats_json": str?}.
 * Unknown fields are rejected loudly — a typoed budget knob silently
 * ignored would be a debugging trap.
 */

#ifndef OWL_SERVE_REQUEST_H
#define OWL_SERVE_REQUEST_H

#include <string>
#include <vector>

#include "core/control_union.h"
#include "obs/json.h"
#include "smt/solver.h"

namespace owl::serve
{

/**
 * One synthesis job. The solver policy is inherited so the server
 * hands it to CEGIS in one slice assignment, but only three of its
 * fields are part of the serve contract: the wire keys check_proofs,
 * preprocess and eager_ackermann. satPortfolio, profileSat and
 * inprocessConflicts have no wire key and no caller sets them; they
 * keep their defaults. Every field is part of the warm-pool
 * fingerprint (SolverConfig::fingerprint), so sessions are never
 * shared across configs — a warm session's lazily learned lemmas, for
 * one, are permanent facts of its Ackermann mode.
 */
struct JobRequest : smt::SolverConfig
{
    std::string id;          ///< echoed in the result; may be empty
    std::string design;      ///< registry name (see `owl list`)
    int64_t budgetMs = 0;    ///< per-request deadline; 0 = unlimited
    int maxIterations = 64;  ///< CEGIS iteration cap per instruction
    bool verify = false;     ///< re-verify the completed design
    std::string statsJson;   ///< per-request obs export path
};

/** Outcome of one job. */
struct JobResult
{
    std::string id;
    std::string design;
    /** ok | unsat | timeout | iteration-limit | verify-failed |
     *  bad-request | error */
    std::string status = "ok";
    std::string error;       ///< for bad-request / error
    std::string failedInstr; ///< instruction that broke the run
    double seconds = 0;      ///< wall time inside the session
    int iterations = 0;      ///< CEGIS iterations (fresh subproblems)
    /** Per-request accounting (deltas, not process totals). */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t sessionsReused = 0;
    uint64_t sessionsCreated = 0;
    uint64_t spansAbandoned = 0;
    synth::PerInstrResults holes; ///< per-instruction assignments

    bool ok() const { return status == "ok"; }
};

/**
 * Parse one request object. False (with *err set) on malformed
 * input; the request is then unusable.
 */
bool parseJobRequest(const obs::json::Value &v, JobRequest &out,
                     std::string &err);

/**
 * Parse a jobs file: {"jobs": [...]} or a bare array of request
 * objects. False (with *err set) on the first malformed job.
 */
bool parseJobsFile(const std::string &text,
                   std::vector<JobRequest> &out, std::string &err);

/**
 * Serialize a result. Hole values use BitVec::toString ("8'h3f") so
 * bit-identity across runs is literal string equality.
 */
obs::json::Value resultToJson(const JobResult &r);

} // namespace owl::serve

#endif // OWL_SERVE_REQUEST_H
