/**
 * @file
 * Workload table, reference digests, statistics and option helpers of
 * the OWL benchmark program (owl_bench).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace owlbench
{

using owl::obs::json::Value;

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"pi-flagship",
         Path::PerInstruction,
         {"aes", "rv32i", "rv32i-2stage", "crypto-core"},
         "pin_first",
         "rv32i",
         3},
        {"mono-dagger",
         Path::Monolithic,
         {"aes", "alu-machine"},
         "monolithic",
         "alu-machine",
         3},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

// ---- outcome ---------------------------------------------------------

void
Outcome::check(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failed_++;
        errors_.push_back(what);
        fprintf(stderr, "[owl-bench] FAILED: %s\n", what.c_str());
    }
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Outcome::row(const std::string &name, double value,
             const std::string &unit)
{
    rows_.push_back({name, value, unit});
}

Value
Outcome::toJson(const std::vector<Named> &v)
{
    Value obj = Value::object();
    for (const Named &m : v) {
        Value entry = Value::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        obj.set(m.name, std::move(entry));
    }
    return obj;
}

Value
Outcome::metricsJson() const
{
    return toJson(metrics_);
}

Value
Outcome::rowsJson() const
{
    return toJson(rows_);
}

// ---- reference digests -------------------------------------------------

namespace
{

/** 64-bit FNV-1a of a string, as 16 hex digits. */
std::string
fnvHex(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    snprintf(buf, sizeof buf, "%016llx",
             static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

std::string
holesDigest(const owl::synth::HoleValues &holes)
{
    std::string text;
    for (const auto &[name, value] : holes)
        text += name + "=" + value.toString() + ";";
    return fnvHex(text);
}

std::string
runDigest(const owl::synth::PerInstrResults &holes)
{
    std::string text;
    for (const auto &[instr, values] : holes)
        text += instr + ":" + holesDigest(values) + ";";
    return fnvHex(text);
}

bool
Reference::load(const std::string &path, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read reference digests " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    Value doc;
    if (!Value::parse(text.str(), doc, &err))
        return false;
    const Value *sets = doc.find("sets");
    if (!sets || !sets->isObject()) {
        err = "reference digests have no \"sets\" object";
        return false;
    }
    for (const auto &[set, designs] : sets->members()) {
        for (const auto &[design, instrs] : designs.members()) {
            for (const auto &[instr, digest] : instrs.members())
                digests[set][design][instr] = digest.asString();
        }
    }
    return true;
}

void
Reference::checkHoles(Outcome &out, const std::string &set,
                      const std::string &design,
                      const owl::synth::PerInstrResults &holes) const
{
    const std::map<std::string, std::string> *expected = nullptr;
    if (auto s = digests.find(set); s != digests.end()) {
        if (auto d = s->second.find(design); d != s->second.end())
            expected = &d->second;
    }
    if (!expected) {
        out.check(false, "no reference digests for " + set + "/" +
                             design);
        return;
    }
    out.check(holes.size() == expected->size(),
              set + "/" + design + ": " + std::to_string(holes.size()) +
                  " instructions, reference has " +
                  std::to_string(expected->size()));
    for (const auto &[instr, values] : holes) {
        auto it = expected->find(instr);
        std::string got = holesDigest(values);
        out.check(it != expected->end() && it->second == got,
                  set + "/" + design + "/" + instr + ": holes " + got +
                      " differ from the reference");
    }
}

// ---- time and statistics ---------------------------------------------

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- options -----------------------------------------------------------

owl::synth::SynthesisOptions
synthesisOptions(Path path)
{
    owl::synth::SynthesisOptions o;
    if (path == Path::Monolithic) {
        o.strategy = owl::synth::Strategy::Monolithic;
        // The † rows run to completion; bench_table1 lifts the cap
        // the same way and bounds the run by a budget instead.
        o.maxIterations = 1 << 20;
    }
    return o;
}

owl::synth::CegisOptions
cegisOptions(Path path)
{
    // Mirrors synthesizeControl's mapping from SynthesisOptions.
    owl::synth::SynthesisOptions s = synthesisOptions(path);
    owl::synth::CegisOptions c;
    c.maxIterations = s.maxIterations;
    c.conflictLimit = s.conflictLimit;
    c.satPortfolio = s.satPortfolio;
    c.checkProofs = s.checkProofs;
    c.incremental = s.incremental;
    c.profileSat = s.profileSat;
    c.preprocess = s.preprocess;
    c.inprocessConflicts = s.inprocessConflicts;
    c.eagerAckermann = s.eagerAckermann;
    return c;
}

} // namespace owlbench
