/**
 * @file
 * Parallel-execution benchmark: wall-clock for per-instruction control
 * synthesis sequentially (pinned and unpinned) and on the owl::exec
 * thread pool at 2/4/8 workers, plus a portfolio-SAT section racing
 * diversified solver configurations on a hard UNSAT instance.
 *
 * Every measurement is a `parallel.row` obs span and the registry is
 * exported to BENCH_parallel.json (override with OWL_STATS_JSON) in
 * the owl.obs.v2 schema; tools/check_stats_schema.py validates it.
 *
 * Speedup is reported against the sequential *unpinned* run — the
 * configuration the parallel strategy is bit-identical to. The pinned
 * sequential row is included because pin-and-relax does less total
 * work; on few cores it can beat the pool (see DESIGN.md §7).
 *
 * OWL_BENCH_DESIGN selects the case study (default rv32i);
 * OWL_BENCH_QUICK=1 switches to the accumulator for fast CI runs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/riscv_single_cycle.h"
#include "exec/portfolio.h"
#include "exec/thread_pool.h"
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
    if (name == "rv32i-zbkb")
        return makeRiscvSingleCycle(RiscvVariant::RV32I_Zbkb);
    return makeRiscvSingleCycle(RiscvVariant::RV32I);
}

double
row(const char *design, const char *mode, int jobs, CaseStudy cs,
    double baseline_s)
{
    obs::ScopedSpan span("parallel.row");
    span.attr("design", design);
    span.attr("mode", mode);
    span.attr("jobs", jobs);

    SynthesisOptions opts;
    if (jobs > 0) {
        opts.strategy = Strategy::PerInstructionParallel;
        opts.jobs = jobs;
    } else {
        opts.strategy = Strategy::PerInstruction;
        opts.pinFirst = std::string(mode) == "seq-pinned";
    }
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha,
                                          opts);
    double speedup =
        baseline_s > 0 && r.seconds > 0 ? baseline_s / r.seconds : 0;
    span.attr("status", synthStatusName(r.status));
    span.attr("millis", static_cast<int64_t>(r.seconds * 1000));
    span.attr("cegis_iterations", r.cegisIterations);
    span.attr("speedup_milli",
              static_cast<int64_t>(speedup * 1000));

    char speed_buf[32] = "-";
    if (speedup > 0)
        snprintf(speed_buf, sizeof(speed_buf), "%.2fx", speedup);
    printf("%-12s %-12s %5d %10.3f %10s %8d\n", design, mode, jobs,
           r.seconds, speed_buf, r.cegisIterations);
    fflush(stdout);
    return r.seconds;
}

/** PHP(p, h) as a raw Cnf; UNSAT when p > h. */
sat::Cnf
pigeonholeCnf(int p, int h)
{
    sat::Cnf cnf;
    cnf.numVars = p * h;
    auto var = [h](int i, int j) { return i * h + j; };
    for (int i = 0; i < p; i++) {
        std::vector<sat::Lit> cl;
        for (int j = 0; j < h; j++)
            cl.push_back(sat::Lit(var(i, j), false));
        cnf.clauses.push_back(cl);
    }
    for (int j = 0; j < h; j++)
        for (int i1 = 0; i1 < p; i1++)
            for (int i2 = i1 + 1; i2 < p; i2++)
                cnf.clauses.push_back({sat::Lit(var(i1, j), true),
                                       sat::Lit(var(i2, j), true)});
    return cnf;
}

void
portfolioRow(int configs, const sat::Cnf &cnf)
{
    obs::ScopedSpan span("parallel.row");
    span.attr("mode", "portfolio");
    span.attr("jobs", configs);

    auto start = std::chrono::steady_clock::now();
    exec::Portfolio race;
    exec::PortfolioOutcome out = race.solve(
        cnf, exec::diversifiedConfigs(configs));
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    span.attr("millis", static_cast<int64_t>(seconds * 1000));
    span.attr("winner", out.winner);
    span.attr("conflicts",
              static_cast<int64_t>(out.winnerStats.conflicts));
    printf("%-12s %-12s %5d %10.3f %10s %8llu\n", "php(9,8)",
           "portfolio", configs, seconds,
           out.result == sat::Result::Unsat ? "unsat" : "?",
           static_cast<unsigned long long>(out.winnerStats.conflicts));
    fflush(stdout);
}

} // namespace

int
main()
{
    std::string design = "rv32i";
    if (const char *env = std::getenv("OWL_BENCH_DESIGN"))
        design = env;
    if (const char *quick = std::getenv("OWL_BENCH_QUICK");
        quick && *quick == '1')
        design = "accumulator";

    printf("Parallel synthesis: %s (host has %d hardware job(s))\n",
           design.c_str(), exec::defaultJobs());
    printf("%-12s %-12s %5s %10s %10s %8s\n", "design", "mode", "jobs",
           "time(s)", "speedup", "iters");

    const char *d = design.c_str();
    row(d, "seq-pinned", 0, makeDesign(design), 0);
    double base =
        row(d, "seq-nopin", 0, makeDesign(design), 0);
    for (int jobs : {2, 4, 8})
        row(d, "parallel", jobs, makeDesign(design), base);

    // Portfolio section: one hard UNSAT formula, 1 (sequential
    // baseline) vs diversified races.
    sat::Cnf hard = pigeonholeCnf(9, 8);
    for (int k : {1, 4})
        portfolioRow(k, hard);

    const char *stats_path = std::getenv("OWL_STATS_JSON");
    if (!stats_path)
        stats_path = "BENCH_parallel.json";
    if (obs::Registry::instance().writeJsonFile(
            stats_path,
            {{"tool", "bench_parallel"},
             {"design", design},
             {"host_jobs", std::to_string(exec::defaultJobs())}})) {
        fprintf(stderr, "[bench_parallel] wrote stats to %s\n",
                stats_path);
    } else {
        fprintf(stderr, "[bench_parallel] failed to write %s\n",
                stats_path);
    }
    return 0;
}
