/**
 * @file
 * Regenerates Table 1: control logic synthesis time and sketch size
 * for every case-study design, with and without the per-instruction
 * optimization (§3.3.1).
 *
 * Rows (matching the paper):
 *   AES Accelerator            — per-instruction
 *   AES Accelerator †          — monolithic (Equation 1)
 *   Single-Cycle Core RV32I / +Zbkb / +Zbkc
 *   Single-Cycle Core RV32I †  — monolithic, expected to time out
 *   Two-Stage Core RV32I / +Zbkb / +Zbkc
 *   Crypto Core CMOV ISA
 *
 * The † RV32I row gets a wall-clock budget (default 60 s, set
 * OWL_MONO_BUDGET_S to change it) standing in for the paper's 3 h
 * timeout; the paper's qualitative result is that it exhausts any
 * reasonable budget while the optimized path takes seconds.
 *
 * Besides the human-readable table on stdout, every row's measurement
 * is recorded as a `table1.row` obs span (with per-row CEGIS/SMT/SAT
 * children underneath) and the whole registry is exported to
 * BENCH_table1.json (override with OWL_STATS_JSON) in the owl.obs.v2
 * schema, so the perf trajectory is a machine-readable artifact of
 * every run.
 */

#include <cstdio>
#include <cstdlib>

#include "core/synthesis.h"
#include "obs/obs.h"
#include "designs/aes_accelerator.h"
#include "designs/crypto_core.h"
#include "designs/riscv_single_cycle.h"
#include "designs/riscv_two_stage.h"
#include "oyster/printer.h"

using namespace owl;
using namespace owl::designs;
using namespace owl::synth;

namespace
{

void
row(const char *design, const char *variant, designs::CaseStudy cs,
    bool per_instruction, std::chrono::milliseconds budget)
{
    obs::ScopedSpan span("table1.row");
    span.attr("design", design);
    span.attr("variant", variant);
    span.attr("per_instruction", per_instruction ? 1 : 0);

    int loc = oyster::sketchSizeLoc(cs.sketch);
    SynthesisOptions opts;
    opts.strategy = per_instruction ? Strategy::PerInstruction
                                 : Strategy::Monolithic;
    opts.timeLimit = budget;
    if (!per_instruction) {
        // The wall-clock budget, not the CEGIS iteration cap, should
        // bound the monolithic rows (the paper's 3 h timeout).
        opts.maxIterations = 1 << 20;
    }
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha,
                                          opts);
    span.attr("sketch_loc", loc);
    span.attr("status", synthStatusName(r.status));
    span.attr("millis", static_cast<int64_t>(r.seconds * 1000));
    span.attr("cegis_iterations", r.cegisIterations);

    const char *status = "";
    char time_buf[64];
    if (r.status == SynthStatus::Ok) {
        snprintf(time_buf, sizeof(time_buf), "%.1f", r.seconds);
    } else if (r.status == SynthStatus::Timeout) {
        snprintf(time_buf, sizeof(time_buf), "Timeout");
    } else {
        snprintf(time_buf, sizeof(time_buf), "%s",
                 synthStatusName(r.status));
    }
    printf("%-18s %-14s %8d %14s %s%s\n", design, variant, loc,
           time_buf, per_instruction ? "" : "(monolithic)", status);
    fflush(stdout);
}

} // namespace

int
main()
{
    long mono_budget_s = 60;
    if (const char *env = std::getenv("OWL_MONO_BUDGET_S"))
        mono_budget_s = std::atol(env);
    auto budget = std::chrono::milliseconds(mono_budget_s * 1000);

    printf("Table 1: control logic synthesis results\n");
    printf("%-18s %-14s %8s %14s\n", "Design", "Variant", "SketchLoC",
           "SynthTime(s)");

    row("AES Accelerator", "-", makeAesAccelerator(), true, {});
    row("AES Accelerator", "- (dagger)", makeAesAccelerator(), false,
        budget);

    row("Single-Cycle", "RV32I",
        makeRiscvSingleCycle(RiscvVariant::RV32I), true, {});
    row("Single-Cycle", "RV32I+Zbkb",
        makeRiscvSingleCycle(RiscvVariant::RV32I_Zbkb), true, {});
    row("Single-Cycle", "RV32I+Zbkc",
        makeRiscvSingleCycle(RiscvVariant::RV32I_Zbkc), true, {});
    row("Single-Cycle", "RV32I (dagger)",
        makeRiscvSingleCycle(RiscvVariant::RV32I), false, budget);

    row("Two-Stage", "RV32I", makeRiscvTwoStage(RiscvVariant::RV32I),
        true, {});
    row("Two-Stage", "RV32I+Zbkb",
        makeRiscvTwoStage(RiscvVariant::RV32I_Zbkb), true, {});
    row("Two-Stage", "RV32I+Zbkc",
        makeRiscvTwoStage(RiscvVariant::RV32I_Zbkc), true, {});

    row("Crypto Core", "CMOV ISA", makeCryptoCore(), true, {});

    const char *stats_path = std::getenv("OWL_STATS_JSON");
    if (!stats_path)
        stats_path = "BENCH_table1.json";
    if (obs::Registry::instance().writeJsonFile(
            stats_path, {{"tool", "bench_table1"}})) {
        fprintf(stderr, "[bench_table1] wrote stats to %s\n",
                stats_path);
    } else {
        fprintf(stderr, "[bench_table1] failed to write %s\n",
                stats_path);
    }
    return 0;
}
