/**
 * @file
 * Lazy Ackermann benchmark: lemmas-on-demand memory congruence (the
 * default) vs the eager full pair set (--eager-ackermann), per
 * shipped design.
 *
 * Each (design, mode) measurement is an `ackermann.row` obs span
 * carrying wall-clock, CEGIS iterations, SAT conflicts, and the
 * congruence accounting (pair bound, lemmas instantiated, refinement
 * rounds, model scans); the registry is exported to
 * BENCH_ackermann.json (override with OWL_STATS_JSON) in the
 * owl.obs.v2 schema.
 *
 * The bench doubles as the acceptance gate for DESIGN.md §14:
 *  - holes must be bit-identical between the two modes (lexmin runs
 *    only on congruence-clean models, so the refinement trajectory
 *    must not leak into the solutions), and
 *  - on every memory-bearing design the lazy mode must instantiate
 *    STRICTLY fewer congruences than the eager pair set — otherwise
 *    lemmas-on-demand is pure overhead and the PR has no story.
 *  - rv32i-2stage (the headline design) must not regress wall-clock
 *    or conflicts by more than the allowed slack.
 *
 * OWL_BENCH_QUICK=1 restricts to alu-machine for fast CI runs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/alu_machine.h"
#include "designs/crypto_core.h"
#include "designs/riscv_single_cycle.h"
#include "designs/riscv_two_stage.h"
#include "obs/obs.h"

using namespace owl;
using namespace owl::designs;
using namespace owl::synth;

namespace
{

CaseStudy
makeDesign(const std::string &name)
{
    if (name == "accumulator")
        return makeAccumulator();
    if (name == "alu-machine")
        return makeAluMachine();
    if (name == "rv32i-2stage")
        return makeRiscvTwoStage(RiscvVariant::RV32I);
    if (name == "crypto-core")
        return makeCryptoCore();
    return makeRiscvSingleCycle(RiscvVariant::RV32I);
}

struct RowResult
{
    SynthesisResult synth;
    uint64_t conflicts = 0;
    uint64_t pairBound = 0;
    uint64_t congruences = 0;  ///< asserted: eager pairs or lazy lemmas
    uint64_t rounds = 0;
    uint64_t scans = 0;
};

RowResult
row(const std::string &design, bool eager)
{
    obs::ScopedSpan span("ackermann.row");
    span.attr("design", design);
    span.attr("mode", eager ? "eager" : "lazy");

    obs::Registry &reg = obs::Registry::instance();
    uint64_t conflicts0 = reg.counterValue("sat.conflicts");
    uint64_t pairs0 = reg.counterValue("smt.ackermann.pair_bound");
    uint64_t cong0 = reg.counterValue("smt.ackermann_constraints");
    uint64_t rounds0 = reg.counterValue("smt.ackermann.rounds");
    uint64_t scans0 = reg.counterValue("smt.ackermann.scans");

    CaseStudy cs = makeDesign(design);
    SynthesisOptions opts;
    opts.eagerAckermann = eager;
    RowResult out;
    out.synth = synthesizeControl(cs.sketch, cs.spec, cs.alpha, opts);
    out.conflicts = reg.counterValue("sat.conflicts") - conflicts0;
    out.pairBound =
        reg.counterValue("smt.ackermann.pair_bound") - pairs0;
    out.congruences =
        reg.counterValue("smt.ackermann_constraints") - cong0;
    out.rounds = reg.counterValue("smt.ackermann.rounds") - rounds0;
    out.scans = reg.counterValue("smt.ackermann.scans") - scans0;

    span.attr("status", synthStatusName(out.synth.status));
    span.attr("millis",
              static_cast<int64_t>(out.synth.seconds * 1000));
    span.attr("cegis_iterations", out.synth.cegisIterations);
    span.attr("conflicts", static_cast<int64_t>(out.conflicts));
    span.attr("pair_bound", static_cast<int64_t>(out.pairBound));
    span.attr("congruences", static_cast<int64_t>(out.congruences));
    span.attr("rounds", static_cast<int64_t>(out.rounds));
    span.attr("scans", static_cast<int64_t>(out.scans));
    printf("%-14s %-6s %10.3f %8d %10llu %8llu %8llu %7llu %6llu\n",
           design.c_str(), eager ? "eager" : "lazy",
           out.synth.seconds, out.synth.cegisIterations,
           static_cast<unsigned long long>(out.conflicts),
           static_cast<unsigned long long>(out.pairBound),
           static_cast<unsigned long long>(out.congruences),
           static_cast<unsigned long long>(out.rounds),
           static_cast<unsigned long long>(out.scans));
    fflush(stdout);
    return out;
}

/** Per-instruction hole values must match across the two modes. */
bool
bitIdentical(const SynthesisResult &a, const SynthesisResult &b)
{
    if (a.perInstr.size() != b.perInstr.size())
        return false;
    for (size_t i = 0; i < a.perInstr.size(); i++) {
        if (a.perInstr[i].first != b.perInstr[i].first)
            return false;
        const auto &ha = a.perInstr[i].second;
        const auto &hb = b.perInstr[i].second;
        if (ha.size() != hb.size())
            return false;
        for (const auto &[name, v] : ha) {
            auto it = hb.find(name);
            if (it == hb.end() || !(it->second == v))
                return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    std::vector<std::string> designs = {"accumulator", "alu-machine",
                                        "rv32i", "rv32i-2stage",
                                        "crypto-core"};
    if (const char *quick = std::getenv("OWL_BENCH_QUICK");
        quick && *quick == '1')
        designs = {"alu-machine"};

    printf("Ackermann congruence: lazy lemmas-on-demand vs eager "
           "pair set\n");
    printf("%-14s %-6s %10s %8s %10s %8s %8s %7s %6s\n", "design",
           "mode", "time(s)", "iters", "conflicts", "pairs", "cong",
           "rounds", "scans");

    int failures = 0;
    for (const std::string &d : designs) {
        RowResult eager = row(d, true);
        RowResult lazy = row(d, false);
        if (eager.synth.status != SynthStatus::Ok ||
            lazy.synth.status != SynthStatus::Ok) {
            fprintf(stderr,
                    "[bench_ackermann] %s: synthesis failed\n",
                    d.c_str());
            failures++;
            continue;
        }
        if (!bitIdentical(eager.synth, lazy.synth)) {
            fprintf(stderr, "[bench_ackermann] %s: hole values "
                            "DIVERGED between modes\n",
                    d.c_str());
            failures++;
        }
        // The point of lemmas-on-demand: on every design with any
        // same-memory pair at all, the lazy mode must assert strictly
        // fewer congruences than the eager full pair set.
        if (eager.pairBound > 0 &&
            lazy.congruences >= eager.congruences) {
            fprintf(stderr, "[bench_ackermann] %s: lazy congruences "
                            "(%llu) not strictly below eager (%llu)\n",
                    d.c_str(),
                    static_cast<unsigned long long>(lazy.congruences),
                    static_cast<unsigned long long>(eager.congruences));
            failures++;
        }
        // Headline design: lazy must not cost meaningful extra search.
        // Conflicts get 10% slack (refinement rounds re-derive a few),
        // wall-clock 25% (timing noise on CI boxes).
        if (d == "rv32i-2stage") {
            if (lazy.conflicts > eager.conflicts +
                                     eager.conflicts / 10) {
                fprintf(stderr,
                        "[bench_ackermann] %s: lazy conflicts (%llu) "
                        "regress vs eager (%llu)\n",
                        d.c_str(),
                        static_cast<unsigned long long>(lazy.conflicts),
                        static_cast<unsigned long long>(
                            eager.conflicts));
                failures++;
            }
            if (lazy.synth.seconds >
                eager.synth.seconds * 1.25 + 0.05) {
                fprintf(stderr,
                        "[bench_ackermann] %s: lazy wall-clock "
                        "(%.3fs) regresses vs eager (%.3fs)\n",
                        d.c_str(), lazy.synth.seconds,
                        eager.synth.seconds);
                failures++;
            }
        }
    }

    const char *stats_path = std::getenv("OWL_STATS_JSON");
    if (!stats_path)
        stats_path = "BENCH_ackermann.json";
    if (obs::Registry::instance().writeJsonFile(
            stats_path, {{"tool", "bench_ackermann"}})) {
        fprintf(stderr, "[bench_ackermann] wrote stats to %s\n",
                stats_path);
    } else {
        fprintf(stderr, "[bench_ackermann] failed to write %s\n",
                stats_path);
        failures++;
    }
    return failures == 0 ? 0 : 1;
}
