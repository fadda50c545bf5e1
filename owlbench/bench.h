/**
 * @file
 * Shared pieces of the OWL benchmark program (owl_bench): workload
 * definitions, the run outcome every workload fills in, timing and
 * statistics helpers, and the committed reference hole digests.
 *
 * owl_bench runs one workload per process. End-to-end runs keep the
 * obs layer off; a traced run (--trace 1) turns it on for its whole
 * length and times calls into each module from this directory's code.
 * See README.md for the workloads and the metric table.
 */

#ifndef OWL_BENCH_BENCH_H
#define OWL_BENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/synthesis.h"
#include "obs/json.h"

namespace owlbench
{

/** How a workload turns a design into completed control logic. */
enum class Path : uint8_t
{
    /** synthesizeControl defaults: sequential, pin-first. */
    PerInstruction,
    /** Strategy::Monolithic with the iteration cap lifted (†). */
    Monolithic,
};

/** One benchmark workload (see README.md for why each exists). */
struct Workload
{
    std::string name;
    Path path;
    /** Distinct designs the workload completes, in run order. */
    std::vector<std::string> designs;
    /** Reference digest set its holes are checked against. */
    std::string referenceSet;
    /**
     * Design the traced run sends to one-session servers (cold, as
     * cache hits and as warm-session misses) for the serve-layer
     * numbers; the cheapest of the workload's designs.
     */
    std::string probeDesign;
    /**
     * Passes over the designs every run makes, however short its
     * seconds; more follow while they fit.
     */
    int minPasses;
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string referencePath;
    /** Overrides the workload's minPasses when positive. */
    int minPasses = 0;
};

/** Correctness tally plus named metrics of one run. */
class Outcome
{
  public:
    /** Count one checked operation; a false `ok` is a failure. */
    void check(bool ok, const std::string &what);
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Extra rows for the report line (per-design times, shares). */
    void row(const std::string &name, double value,
             const std::string &unit);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &errors() const { return errors_; }
    owl::obs::json::Value metricsJson() const;
    owl::obs::json::Value rowsJson() const;

  private:
    struct Named
    {
        std::string name;
        double value;
        std::string unit;
    };
    static owl::obs::json::Value toJson(const std::vector<Named> &v);
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
    std::vector<Named> metrics_;
    std::vector<Named> rows_;
};

/** Committed per-instruction hole digests, by set and design. */
class Reference
{
  public:
    bool load(const std::string &path, std::string &err);
    /**
     * Check every instruction's holes against the set's digests,
     * counting one operation per instruction.
     */
    void checkHoles(Outcome &out, const std::string &set,
                    const std::string &design,
                    const owl::synth::PerInstrResults &holes) const;

  private:
    /** set -> design -> instruction -> digest */
    std::map<std::string,
             std::map<std::string, std::map<std::string, std::string>>>
        digests;
};

/** FNV-1a over "hole=value;" in hole-name order, as 16 hex digits. */
std::string holesDigest(const owl::synth::HoleValues &holes);

/** Digest of every instruction's holes, in instruction order. */
std::string runDigest(const owl::synth::PerInstrResults &holes);

/** Steady-clock seconds. */
double nowS();

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Synthesis options of a workload path (defaults for per-instruction). */
owl::synth::SynthesisOptions synthesisOptions(Path path);

/**
 * The CEGIS options synthesizeControl derives from the same
 * SynthesisOptions, for the traced per-instruction replay.
 */
owl::synth::CegisOptions cegisOptions(Path path);

/** Run the workload's end-to-end measurement (obs off). */
void runEndToEnd(const Workload &w, const RunConfig &cfg,
                 const Reference &ref, Outcome &out);

/** Run the traced, layer-by-layer measurement (obs on). */
void runTraced(const Workload &w, const Reference &ref, Outcome &out);

/** Write digests of a fresh run of every workload's path and design. */
bool writeReference(const std::string &path);

} // namespace owlbench

#endif // OWL_BENCH_BENCH_H
