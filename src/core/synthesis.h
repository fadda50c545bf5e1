/**
 * @file
 * Top-level control logic synthesis (paper §3, Figure 4).
 *
 * synthesizeControl() is the public entry point of the library: given
 * a datapath sketch with holes, an ILA specification and an
 * abstraction function, it fills the holes with correct-by-
 * construction control logic, mutating the sketch into a complete,
 * simulatable design.
 *
 * Two strategies are provided:
 *  - per-instruction (the §3.3.1 optimization, default): solve each
 *    instruction's holes independently with CEGIS, optionally pinning
 *    earlier instructions' values first, then join with the control
 *    union ⊔;
 *  - monolithic (Equation (1), the † rows of Table 1): one joint
 *    CEGIS query over all instructions at once, with per-instruction
 *    constant vectors selected by the decode preconditions. This is
 *    dramatically slower and exists to reproduce the paper's
 *    scalability comparison.
 *
 * Both run the same loop, cegisLoop() (cegis.h); they differ only in
 * the verify and synth steps they hand it.
 *
 * verifyDesign() checks a completed (hole-free) design against the
 * specification — used for the handwritten references and as the
 * final assurance on synthesized designs.
 */

#ifndef OWL_CORE_SYNTHESIS_H
#define OWL_CORE_SYNTHESIS_H

#include <chrono>
#include <cstdint>
#include <string>

#include "core/absfunc.h"
#include "core/cegis.h"
#include "core/control_union.h"
#include "ila/ila.h"
#include "oyster/ir.h"

namespace owl::synth
{

/** How synthesizeControl() decomposes and schedules the CEGIS work. */
enum class Strategy : uint8_t
{
    /** Equation (1): one joint query (the † rows of Table 1). */
    Monolithic,
    /** §3.3.1 decomposition, sequential, pin-and-relax (default). */
    PerInstruction,
    /**
     * §3.3.1 decomposition with every instruction's CEGIS dispatched
     * as an independent task on an owl::exec::ThreadPool. Results are
     * merged in instruction order, and each task runs without pinning
     * with its own solver state, so hole values and the control union
     * are bit-identical to a sequential pinFirst=false run.
     */
    PerInstructionParallel,
};

const char *strategyName(Strategy s);

/** Options for synthesizeControl(). */
struct SynthesisOptions : CegisConfig
{
    Strategy strategy = Strategy::PerInstruction;
    /**
     * Try earlier instructions' hole values first (DESIGN.md §3).
     * Sequential per-instruction only; the parallel strategy has no
     * "earlier instruction" to pin from.
     */
    bool pinFirst = true;
    /**
     * Worker threads for PerInstructionParallel; 0 = OWL_JOBS env or
     * hardware concurrency (exec::defaultJobs()).
     */
    int jobs = 0;
    /** Whole-run wall-clock budget; zero = unlimited. */
    std::chrono::milliseconds timeLimit{0};
    /** Print progress to stderr. */
    bool verbose = false;
};

/** Outcome of a synthesizeControl() run. */
struct SynthesisResult
{
    SynthStatus status = SynthStatus::Ok;
    /** Wall-clock synthesis time in seconds (the Table 1 metric). */
    double seconds = 0;
    /** Total CEGIS iterations across instructions. */
    int cegisIterations = 0;
    /** Name of the instruction that failed, when status != Ok. */
    std::string failedInstr;
    /** Per-instruction hole solutions (inputs to the control union). */
    PerInstrResults perInstr;
};

/**
 * Fill the sketch's holes with synthesized control logic. On success
 * (status Ok) the sketch is completed in place and validated. A spec
 * with no instructions is a FatalError.
 */
SynthesisResult synthesizeControl(oyster::Design &sketch,
                                  const ila::Ila &spec,
                                  const AbsFunc &alpha,
                                  const SynthesisOptions &opts = {});

/**
 * Check condition 1 of instruction independence (§3.3.1): decode
 * conditions are pairwise disjoint. Returns Ok, or Unsat with the
 * offending pair named "A/B" in *failed_pair, or Timeout once opts'
 * budget runs out.
 */
SynthStatus checkMutualExclusion(const oyster::Design &design,
                                 const ila::Ila &spec,
                                 const AbsFunc &alpha,
                                 std::string *failed_pair = nullptr,
                                 const CegisOptions &opts = {});

/**
 * Verify a completed design against the specification: for every
 * instruction, Pre ∧ assumes ∧ ¬Post must be unsatisfiable.
 *
 * When the specification's decode conditions are pairwise disjoint
 * (checked first — the paper's instruction-independence condition 1),
 * each instruction's query additionally assumes the other decode
 * conditions false, which lets the solver resolve the generated
 * control union's selection chains by unit propagation.
 *
 * @return Ok when every instruction verifies; Unsat with the
 *         offending instruction in *failed_instr otherwise; Timeout
 *         (naming the instruction not yet proved) once opts' deadline
 *         passes or its cancel flag fires — polled between queries.
 */
SynthStatus verifyDesign(const oyster::Design &design,
                         const ila::Ila &spec, const AbsFunc &alpha,
                         std::string *failed_instr = nullptr,
                         const CegisOptions &opts = {});

} // namespace owl::synth

#endif // OWL_CORE_SYNTHESIS_H
