/**
 * @file
 * owl_bench: the OWL benchmark program.
 *
 *   owl_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--reference FILE] [--min-passes N]
 *   owl_bench --write-reference FILE
 *
 * Prints one JSON document on stdout: run metadata, extra report rows,
 * the correctness tally and the metrics (end-to-end with --trace 0,
 * per-layer with --trace 1). Exit 0 when every check passed, 1 when
 * one failed, 2 on a usage error, 3 when the build may not report
 * numbers (Debug or sanitizer). owlbench/run.py builds this binary
 * and turns the document into the benchmark's result line.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/obs.h"

#ifndef OWL_BENCH_BUILD_TYPE
#define OWL_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef OWL_BENCH_COMPILER
#define OWL_BENCH_COMPILER "unknown"
#endif
#ifndef OWL_BENCH_SANITIZE
#define OWL_BENCH_SANITIZE 0
#endif

using owl::obs::json::Value;
using namespace owlbench;

namespace
{

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return OWL_BENCH_SANITIZE != 0;
#endif
#else
    return OWL_BENCH_SANITIZE != 0;
#endif
}

/** Why this build may not report numbers; empty when it may. */
std::string
refusal()
{
    std::string type = OWL_BENCH_BUILD_TYPE;
    if (type == "Debug")
        return "Debug build";
#ifndef NDEBUG
    return "assertions enabled (NDEBUG unset)";
#endif
    if (sanitizedBuild())
        return "sanitizer build";
    return "";
}

Value
metadata(const RunConfig &cfg, const Workload &w)
{
    Value m = Value::object();
    m.set("workload", w.name);
    m.set("seed", static_cast<int64_t>(cfg.seed));
    m.set("seconds", cfg.seconds);
    m.set("trace", cfg.trace);
    m.set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    m.set("compiler", OWL_BENCH_COMPILER);
    m.set("build_type", OWL_BENCH_BUILD_TYPE);
    m.set("owl_obs_enabled", static_cast<int64_t>(OWL_OBS_ENABLED));
    Value designs = Value::array();
    for (const std::string &d : w.designs)
        designs.push(d);
    m.set("designs", std::move(designs));
    m.set("probe_design", w.probeDesign);
    m.set("min_passes", cfg.minPasses > 0 ? cfg.minPasses : w.minPasses);
    return m;
}

int
usage()
{
    fprintf(stderr,
            "usage: owl_bench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--reference FILE] [--min-passes N]\n"
            "       owl_bench --write-reference FILE\n"
            "workloads:");
    for (const Workload &w : workloads())
        fprintf(stderr, " %s", w.name.c_str());
    fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string write_ref;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[++i] : nullptr;
        if (!v)
            return usage();
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(v);
        else if (a == "--trace")
            cfg.trace = std::strcmp(v, "0") != 0;
        else if (a == "--reference")
            cfg.referencePath = v;
        else if (a == "--min-passes")
            cfg.minPasses = std::atoi(v);
        else if (a == "--write-reference")
            write_ref = v;
        else
            return usage();
    }

    std::string why = refusal();
    if (!why.empty()) {
        fprintf(stderr, "[owl-bench] refusing to report numbers: %s\n",
                why.c_str());
        return 3;
    }
    if (!write_ref.empty())
        return writeReference(write_ref) ? 0 : 1;

    const Workload *w = findWorkload(cfg.workload);
    if (!w || cfg.seconds <= 0 || cfg.minPasses < 0)
        return usage();

    Reference ref;
    std::string err;
    if (!ref.load(cfg.referencePath, err)) {
        fprintf(stderr, "[owl-bench] %s\n", err.c_str());
        return 2;
    }

    Outcome out;
    if (cfg.trace)
        runTraced(*w, ref, out);
    else
        runEndToEnd(*w, cfg, ref, out);

    Value doc = Value::object();
    doc.set("meta", metadata(cfg, *w));
    out.row("fail_ratio",
            out.attempted() > 0
                ? static_cast<double>(out.failed()) /
                      static_cast<double>(out.attempted())
                : 0.0,
            "ratio");
    Value report = out.rowsJson();
    Value errors = Value::array();
    for (const std::string &e : out.errors())
        errors.push(e);
    doc.set("rows", std::move(report));
    doc.set("errors", std::move(errors));
    doc.set("correct", out.failed() == 0);
    doc.set("attempted", static_cast<int64_t>(out.attempted()));
    doc.set("failed", static_cast<int64_t>(out.failed()));
    doc.set("metrics", out.metricsJson());
    printf("%s\n", doc.dump().c_str());
    return out.failed() == 0 ? 0 : 1;
}
