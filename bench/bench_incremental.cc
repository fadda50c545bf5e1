/**
 * @file
 * Incremental-CEGIS benchmark: fresh solver-per-iteration vs the
 * persistent owl::smt::IncrementalContext session, per shipped design.
 *
 * Each (design, mode) measurement is an `incremental.row` obs span
 * carrying wall-clock, CEGIS iterations, the total SAT conflicts spent
 * during synthesis, and the incremental-reuse counters; the registry
 * is exported to BENCH_incremental.json (override with
 * OWL_STATS_JSON) in the owl.obs.v2 schema.
 *
 * The two modes are bit-identical by construction (both pin every
 * synth query to its lexmin hole model), so the bench also
 * cross-checks the per-instruction hole values and fails loudly on
 * drift — a benchmark run doubles as the reproducibility gate.
 *
 * OWL_BENCH_QUICK=1 restricts to the accumulator for fast CI runs.
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
    uint64_t clausesReused = 0;
};

RowResult
row(const std::string &design, bool incremental)
{
    obs::ScopedSpan span("incremental.row");
    span.attr("design", design);
    span.attr("mode", incremental ? "incremental" : "fresh");

    obs::Registry &reg = obs::Registry::instance();
    uint64_t conflicts0 = reg.counterValue("sat.conflicts");
    uint64_t reused0 =
        reg.counterValue("cegis.incremental.clauses_reused");

    CaseStudy cs = makeDesign(design);
    SynthesisOptions opts;
    opts.incremental = incremental;
    RowResult out;
    out.synth = synthesizeControl(cs.sketch, cs.spec, cs.alpha, opts);
    out.conflicts = reg.counterValue("sat.conflicts") - conflicts0;
    out.clausesReused =
        reg.counterValue("cegis.incremental.clauses_reused") - reused0;

    span.attr("status", synthStatusName(out.synth.status));
    span.attr("millis",
              static_cast<int64_t>(out.synth.seconds * 1000));
    span.attr("cegis_iterations", out.synth.cegisIterations);
    span.attr("conflicts", static_cast<int64_t>(out.conflicts));
    span.attr("clauses_reused",
              static_cast<int64_t>(out.clausesReused));
    printf("%-14s %-12s %10.3f %8d %10llu %10llu\n", design.c_str(),
           incremental ? "incremental" : "fresh", out.synth.seconds,
           out.synth.cegisIterations,
           static_cast<unsigned long long>(out.conflicts),
           static_cast<unsigned long long>(out.clausesReused));
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
        designs = {"accumulator"};

    printf("Incremental CEGIS: fresh per-iteration vs persistent "
           "session\n");
    printf("%-14s %-12s %10s %8s %10s %10s\n", "design", "mode",
           "time(s)", "iters", "conflicts", "reused");

    int failures = 0;
    for (const std::string &d : designs) {
        RowResult fresh = row(d, false);
        RowResult inc = row(d, true);
        if (fresh.synth.status != SynthStatus::Ok ||
            inc.synth.status != SynthStatus::Ok) {
            fprintf(stderr, "[bench_incremental] %s: synthesis "
                            "failed\n",
                    d.c_str());
            failures++;
            continue;
        }
        if (!bitIdentical(fresh.synth, inc.synth)) {
            fprintf(stderr, "[bench_incremental] %s: hole values "
                            "DIVERGED between modes\n",
                    d.c_str());
            failures++;
        }
        // rv32i-2stage is the headline row: the session must strictly
        // beat the fresh path on total SAT conflicts.
        if (d == "rv32i-2stage" && inc.conflicts >= fresh.conflicts) {
            fprintf(stderr, "[bench_incremental] %s: incremental "
                            "conflicts (%llu) not below fresh "
                            "(%llu)\n",
                    d.c_str(),
                    static_cast<unsigned long long>(inc.conflicts),
                    static_cast<unsigned long long>(fresh.conflicts));
            failures++;
        }
    }

    const char *stats_path = std::getenv("OWL_STATS_JSON");
    if (!stats_path)
        stats_path = "BENCH_incremental.json";
    if (obs::Registry::instance().writeJsonFile(
            stats_path, {{"tool", "bench_incremental"}})) {
        fprintf(stderr, "[bench_incremental] wrote stats to %s\n",
                stats_path);
    } else {
        fprintf(stderr, "[bench_incremental] failed to write %s\n",
                stats_path);
        failures++;
    }
    return failures == 0 ? 0 : 1;
}
