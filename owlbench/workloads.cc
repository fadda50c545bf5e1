/**
 * @file
 * End-to-end runs of the workloads, with the obs layer off.
 *
 * A run makes passes over the workload's designs, each design
 * synthesized (synthesizeControl), verified (verifyDesign) and
 * compiled (netlist::compile, optimize); past the minimum number of
 * passes, a pass starts only if it fits in the run's seconds.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"
#include "designs/registry.h"
#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "obs/obs.h"

namespace owlbench
{

using owl::synth::SynthStatus;

namespace
{

/**
 * Repetitions of the run's set-up: build every case study of the
 * workload. A few run before the measurement and the rest are spread
 * over it, so the median of a millisecond-scale time samples more
 * than one moment of the host.
 */
class SetupSampler
{
  public:
    SetupSampler(const Workload &w, Outcome &out) : w(w), out(out) {}

    void sample(int times = 1)
    {
        for (int i = 0; i < times; i++) {
            double t0 = nowS();
            bool ok = true;
            for (const std::string &d : w.designs)
                ok = owl::designs::makeCaseStudy(d).has_value() && ok;
            reps.push_back(nowS() - t0);
            out.check(ok, "set-up could not build the case studies");
        }
    }

    void report() { out.metric("setup_s", median(reps), "s"); }

  private:
    const Workload &w;
    Outcome &out;
    std::vector<double> reps;
};

/** Verify and compile one completed design; returns its gate count. */
int
verifyAndCompile(const std::string &design,
                 owl::designs::CaseStudy &cs, Outcome &out,
                 double &verify_s)
{
    std::string failed;
    double t0 = nowS();
    SynthStatus v = owl::synth::verifyDesign(cs.sketch, cs.spec,
                                             cs.alpha, &failed);
    verify_s += nowS() - t0;
    out.check(v == SynthStatus::Ok,
              design + ": verifyDesign " +
                  owl::synth::synthStatusName(v) + " at " + failed);
    owl::netlist::Netlist nl = owl::netlist::compile(cs.sketch);
    owl::netlist::optimize(nl);
    return nl.gateCount();
}

void
runDirect(const Workload &w, const RunConfig &cfg, const Reference &ref,
          Outcome &out, SetupSampler &setup)
{
    const owl::synth::SynthesisOptions opts = synthesisOptions(w.path);
    // Fastest synthesis and verification of each design over the
    // passes: noise on a shared host only ever slows a run down.
    std::map<std::string, double> best_synth, best_verify;
    const int min_passes = cfg.minPasses > 0 ? cfg.minPasses : w.minPasses;
    long gates = -1;
    int passes = 0;
    double start = nowS();
    while (true) {
        double p0 = nowS();
        long pass_gates = 0;
        for (const std::string &d : w.designs) {
            setup.sample(2);
            auto cs = owl::designs::makeCaseStudy(d);
            out.check(cs.has_value(), d + ": unknown design");
            if (!cs)
                continue;
            double t0 = nowS();
            owl::synth::SynthesisResult r =
                owl::synth::synthesizeControl(cs->sketch, cs->spec,
                                              cs->alpha, opts);
            double synth = nowS() - t0;
            out.check(r.status == SynthStatus::Ok,
                      d + ": synthesis " +
                          owl::synth::synthStatusName(r.status));
            if (r.status != SynthStatus::Ok)
                continue;
            ref.checkHoles(out, w.referenceSet, d, r.perInstr);
            double verify = 0;
            pass_gates += verifyAndCompile(d, *cs, out, verify);
            best_synth[d] = passes == 0 ? synth
                                        : std::min(best_synth[d], synth);
            best_verify[d] = passes == 0
                                 ? verify
                                 : std::min(best_verify[d], verify);
        }
        if (gates >= 0)
            out.check(pass_gates == gates,
                      "optimized gate count changed between passes");
        gates = pass_gates;
        passes++;
        // Past the minimum, start another pass only if it fits in the
        // run's seconds.
        double pass_s = nowS() - p0;
        if (passes >= min_passes && nowS() - start + pass_s > cfg.seconds)
            break;
    }
    auto total = [](const std::map<std::string, double> &m) {
        double s = 0;
        for (const auto &[d, t] : m)
            s += t;
        return s;
    };
    out.metric("synth_s", total(best_synth), "s");
    out.metric("verify_s", total(best_verify), "s");
    out.metric("gates_opt", static_cast<double>(gates), "count");
    out.row("passes", passes, "count");
}

} // namespace

void
runEndToEnd(const Workload &w, const RunConfig &cfg, const Reference &ref,
            Outcome &out)
{
    owl::obs::setEnabled(false);
    SetupSampler setup(w, out);
    setup.sample(10);
    runDirect(w, cfg, ref, out, setup);
    setup.report();
    out.metric("peak_rss_mb", peakRssMb(), "MiB");
}

bool
writeReference(const std::string &path)
{
    owl::obs::setEnabled(false);
    using owl::obs::json::Value;
    // Each workload's own path (pin_first, monolithic), plus no_pin:
    // synthesizeControl without pinning, which the serve path must
    // reproduce bit for bit (DESIGN.md §11), for the probe designs.
    struct Set
    {
        std::string name;
        Path path;
        bool pinFirst;
        std::vector<std::string> designs;
    };
    std::vector<Set> sets;
    Set no_pin{"no_pin", Path::PerInstruction, false, {}};
    for (const Workload &w : workloads()) {
        sets.push_back({w.referenceSet, w.path, true, w.designs});
        no_pin.designs.push_back(w.probeDesign);
    }
    sets.push_back(no_pin);
    Value doc = Value::object();
    Value by_set = Value::object();
    for (const auto &[set, path, pin_first, designs] : sets) {
        owl::synth::SynthesisOptions opts = synthesisOptions(path);
        opts.pinFirst = pin_first;
        Value by_design = Value::object();
        for (const std::string &d : designs) {
            auto cs = owl::designs::makeCaseStudy(d);
            owl::synth::SynthesisResult r = owl::synth::synthesizeControl(
                cs->sketch, cs->spec, cs->alpha, opts);
            if (r.status != SynthStatus::Ok) {
                fprintf(stderr, "[owl-bench] %s/%s: synthesis %s\n",
                        set.c_str(), d.c_str(),
                        owl::synth::synthStatusName(r.status));
                return false;
            }
            Value instrs = Value::object();
            for (const auto &[instr, holes] : r.perInstr)
                instrs.set(instr, holesDigest(holes));
            by_design.set(d, std::move(instrs));
            fprintf(stderr, "[owl-bench] %s/%s: %zu instructions\n",
                    set.c_str(), d.c_str(), r.perInstr.size());
        }
        by_set.set(set, std::move(by_design));
    }
    doc.set("schema", "owl-bench.reference.v1");
    doc.set("digest",
            "FNV-1a 64 of 'hole=value;' in hole-name order, value as "
            "BitVec::toString");
    doc.set("sets", std::move(by_set));
    std::ofstream out(path);
    out << doc.dump(2) << "\n";
    return static_cast<bool>(out);
}

} // namespace owlbench
