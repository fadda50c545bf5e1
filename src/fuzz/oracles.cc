#include "fuzz/oracles.h"

#include <sstream>

#include "base/logging.h"
#include "core/synthesis.h"
#include "fuzz/generate.h"
#include "netlist/compile.h"
#include "netlist/optimize.h"
#include "netlist/sim.h"
#include "obs/obs.h"
#include "oyster/interp.h"
#include "oyster/symeval.h"
#include "smt/term.h"

namespace owl::fuzz
{

namespace
{

using oyster::Design;

/** First line where two strings differ, 1-based (0 = equal). */
int
firstDiffLine(const std::string &a, const std::string &b)
{
    std::istringstream ia(a), ib(b);
    std::string la, lb;
    int line = 0;
    while (true) {
        bool ga = static_cast<bool>(std::getline(ia, la));
        bool gb = static_cast<bool>(std::getline(ib, lb));
        line++;
        if (!ga && !gb)
            return 0;
        if (ga != gb || la != lb)
            return line;
    }
}

std::string
statusName(synth::SynthStatus s)
{
    switch (s) {
      case synth::SynthStatus::Ok: return "ok";
      case synth::SynthStatus::Unsat: return "unsat";
      case synth::SynthStatus::Timeout: return "timeout";
      default: return "iter-limit";
    }
}

/**
 * Compare two per-instruction solution sets bit-for-bit. Returns an
 * empty string when identical, else a human-readable first mismatch.
 */
std::string
diffPerInstr(const synth::PerInstrResults &a,
             const synth::PerInstrResults &b)
{
    if (a.size() != b.size()) {
        return "instruction count " + std::to_string(a.size()) +
               " vs " + std::to_string(b.size());
    }
    for (size_t i = 0; i < a.size(); i++) {
        if (a[i].first != b[i].first)
            return "instruction order '" + a[i].first + "' vs '" +
                   b[i].first + "'";
        if (a[i].second == b[i].second)
            continue;
        for (const auto &[hole, va] : a[i].second) {
            auto it = b[i].second.find(hole);
            if (it == b[i].second.end())
                return a[i].first + ": hole '" + hole +
                       "' missing on one side";
            if (!(va == it->second))
                return a[i].first + ": hole '" + hole + "' = " +
                       va.toString() + " vs " + it->second.toString();
        }
        return a[i].first + ": extra holes on one side";
    }
    return "";
}

/**
 * Run synthesis on a copy of the bundle's design. The sketch is
 * copied so repeated runs start from the same holes.
 */
synth::SynthesisResult
runSynth(const text::Bundle &b, Design &completed,
         const synth::SynthesisOptions &sopt)
{
    completed = *b.design;  // value copy; holes still open
    return synth::synthesizeControl(completed, *b.spec, *b.alpha,
                                    sopt);
}

/**
 * Oracles 3-5: one solver knob flipped away from the baseline
 * configuration must leave the synthesized holes bit-identical (every
 * path converges to the lexmin model of the same feasible set).
 */
struct KnobOracle
{
    const char *oracle; ///< also names its fuzz.oracle.* counter
    const char *baseLabel;    ///< how the baseline run is described
    const char *variantLabel; ///< how the flipped run is described
    void (*flip)(synth::SynthesisOptions &);
};

const KnobOracle kKnobOracles[] = {
    {"preprocess", "with preprocess", "without",
     [](synth::SynthesisOptions &o) { o.preprocess = false; }},
    {"incremental", "incremental", "fresh",
     [](synth::SynthesisOptions &o) { o.incremental = false; }},
    // Lazy lemmas-on-demand vs the eager full pair set: trajectories
    // (and iteration counts) may differ, holes may not.
    {"ackermann", "lazy", "eager",
     [](synth::SynthesisOptions &o) { o.eagerAckermann = true; }},
};

/**
 * Drive the completed design through all four execution engines on
 * one random input sequence and compare everything visible.
 */
void
cosimOneVector(const Design &d, Rng &rng, int cycles,
               std::vector<Divergence> &out)
{
    namespace nl = owl::netlist;
    nl::Netlist raw = nl::compile(d);
    nl::Netlist opt = nl::compile(d);
    nl::optimize(opt);

    oyster::Interpreter interp(d);
    nl::NetlistSim sim_raw(raw);
    nl::NetlistSim sim_opt(opt);
    interp.reset();
    sim_raw.reset();
    sim_opt.reset();

    // NetlistSim models ROMs as ordinary memories: reset() clears
    // them, so contents must be preloaded afterwards. The interpreter
    // and the symbolic evaluator read ROM contents from the design.
    for (const oyster::Decl &dc : d.decls()) {
        if (dc.kind != oyster::DeclKind::Rom)
            continue;
        for (size_t a = 0; a < dc.romContents.size(); a++) {
            sim_raw.setMemWord(dc.name, a, dc.romContents[a]);
            sim_opt.setMemWord(dc.name, a, dc.romContents[a]);
        }
    }

    // Pre-draw the input sequence (cycle-major, name-minor).
    std::vector<oyster::InputMap> seq(cycles);
    for (int t = 0; t < cycles; t++) {
        for (const oyster::Decl &dc : d.decls()) {
            if (dc.kind != oyster::DeclKind::Input)
                continue;
            BitVec v(dc.width);
            for (int i = 0; i < dc.width; i++)
                v.setBit(i, (rng.next() & 1) != 0);
            seq[t][dc.name] = v;
        }
    }

    // Symbolic evaluator with every pin concrete: terms must
    // constant-fold, making it a fourth concrete engine.
    smt::TermTable tt;
    oyster::SymbolicEvaluator se(d, tt);
    for (const oyster::Decl &dc : d.decls()) {
        if (dc.kind == oyster::DeclKind::Register)
            se.setInitialReg(dc.name, tt.constant(dc.resetValue));
        else if (dc.kind == oyster::DeclKind::Memory)
            se.setConcreteMem(dc.name, {});
    }
    for (int t = 0; t < cycles; t++) {
        for (const auto &[name, v] : seq[t])
            se.setInput(name, t + 1, tt.constant(v));
    }
    oyster::SymRun run = se.run(cycles);

    auto mismatch = [&](int t, const std::string &what,
                        const std::string &who, const BitVec &ref,
                        const BitVec &got) {
        std::ostringstream os;
        os << "cycle " << t << " " << what << ": interpreter "
           << ref.toString() << " vs " << who << " " << got.toString();
        out.push_back({"cosim", os.str()});
    };

    auto symConst = [&](smt::TermRef r, int t,
                        const std::string &what) -> const BitVec * {
        if (!tt.isConst(r)) {
            out.push_back(
                {"cosim", "cycle " + std::to_string(t) + " " + what +
                              ": symbolic evaluator term did not "
                              "fold to a constant"});
            return nullptr;
        }
        return &tt.constValue(r);
    };

    for (int t = 1; t <= cycles; t++) {
        interp.step(seq[t - 1]);
        std::map<std::string, BitVec> m(seq[t - 1].begin(),
                                        seq[t - 1].end());
        sim_raw.step(m);
        sim_opt.step(m);

        for (const oyster::Decl &dc : d.decls()) {
            switch (dc.kind) {
              case oyster::DeclKind::Output: {
                const BitVec &ref = interp.lastValue(dc.name);
                BitVec vr = sim_raw.output(dc.name);
                if (!(ref == vr))
                    mismatch(t, "output " + dc.name, "netlist", ref,
                             vr);
                BitVec vo = sim_opt.output(dc.name);
                if (!(ref == vo))
                    mismatch(t, "output " + dc.name,
                             "optimized netlist", ref, vo);
                if (const BitVec *sv = symConst(
                        run.wireAt(dc.name, t), t,
                        "output " + dc.name)) {
                    if (!(ref == *sv))
                        mismatch(t, "output " + dc.name, "symeval",
                                 ref, *sv);
                }
                break;
              }
              case oyster::DeclKind::Register: {
                const BitVec &ref = interp.reg(dc.name);
                BitVec vr = sim_raw.reg(dc.name);
                if (!(ref == vr))
                    mismatch(t, "register " + dc.name, "netlist", ref,
                             vr);
                BitVec vo = sim_opt.reg(dc.name);
                if (!(ref == vo))
                    mismatch(t, "register " + dc.name,
                             "optimized netlist", ref, vo);
                if (const BitVec *sv = symConst(
                        run.regAt(dc.name, t), t,
                        "register " + dc.name)) {
                    if (!(ref == *sv))
                        mismatch(t, "register " + dc.name, "symeval",
                                 ref, *sv);
                }
                break;
              }
              case oyster::DeclKind::Memory: {
                // Spot-check every address of small memories.
                uint64_t words = 1ULL << dc.addrWidth;
                if (words > 16)
                    words = 16;
                for (uint64_t a = 0; a < words; a++) {
                    BitVec ref = interp.memWord(dc.name, a);
                    BitVec vr =
                        sim_raw.memWord(dc.name, a, dc.width);
                    if (!(ref == vr))
                        mismatch(t,
                                 "mem " + dc.name + "[" +
                                     std::to_string(a) + "]",
                                 "netlist", ref, vr);
                    BitVec vo =
                        sim_opt.memWord(dc.name, a, dc.width);
                    if (!(ref == vo))
                        mismatch(t,
                                 "mem " + dc.name + "[" +
                                     std::to_string(a) + "]",
                                 "optimized netlist", ref, vo);
                    smt::TermRef mr = run.readMemAt(
                        tt, dc.name, t,
                        tt.constant(BitVec(dc.addrWidth, a)));
                    if (const BitVec *sv = symConst(
                            mr, t,
                            "mem " + dc.name + "[" +
                                std::to_string(a) + "]")) {
                        if (!(ref == *sv))
                            mismatch(t,
                                     "mem " + dc.name + "[" +
                                         std::to_string(a) + "]",
                                     "symeval", ref, *sv);
                    }
                }
                break;
              }
              default:
                break;
            }
        }
        if (!out.empty())
            return;  // first differing cycle is the useful one
    }
}

} // namespace

std::vector<Divergence>
checkRoundTrip(const text::Bundle &b)
{
    OWL_COUNTER_INC("fuzz.oracle.roundtrip");
    std::vector<Divergence> out;
    std::string s1 = text::printBundle(b);
    text::Bundle b2;
    try {
        b2 = text::parseBundle(s1);
    } catch (const FatalError &e) {
        out.push_back({"roundtrip",
                       std::string("printed bundle failed to "
                                   "reparse: ") +
                           e.what()});
        return out;
    }
    std::string s2 = text::printBundle(b2);
    if (s1 != s2) {
        out.push_back(
            {"roundtrip",
             "reprint differs from print at line " +
                 std::to_string(firstDiffLine(s1, s2))});
    }
    return out;
}

std::vector<Divergence>
checkBundle(const text::Bundle &b, const OracleOptions &opt)
{
    std::vector<Divergence> out = checkRoundTrip(b);
    if (!b.complete())
        return out;

    // Baseline synthesis run (the default configuration). DRAT
    // proofs are checked inside when enabled.
    synth::SynthesisOptions sopt;
    sopt.checkProofs = opt.checkProofs;
    Design base(""), variant("");
    synth::SynthesisResult res = runSynth(b, base, sopt);
    if (res.status != synth::SynthStatus::Ok) {
        out.push_back({"synth",
                       "baseline synthesis failed (" +
                           statusName(res.status) +
                           (res.failedInstr.empty()
                                ? std::string()
                                : ", instr " + res.failedInstr) +
                           ") on a solvable-by-construction "
                           "problem"});
        return out;
    }

    for (const KnobOracle &k : kKnobOracles) {
        obs::Counter &runs = obs::Registry::instance().counter(
            std::string("fuzz.oracle.") + k.oracle);
        if (obs::enabled())
            runs.add(1);
        synth::SynthesisOptions vopt = sopt;
        k.flip(vopt);
        synth::SynthesisResult vres = runSynth(b, variant, vopt);
        if (vres.status != res.status) {
            out.push_back({k.oracle, "status " + statusName(res.status) +
                                         " " + k.baseLabel + " vs " +
                                         statusName(vres.status) + " " +
                                         k.variantLabel});
        } else if (std::string diff =
                       diffPerInstr(res.perInstr, vres.perInstr);
                   !diff.empty()) {
            out.push_back({k.oracle, "hole mismatch: " + diff});
        }
    }

    // Oracle 2: co-simulate the completed design across engines.
    OWL_COUNTER_INC("fuzz.oracle.cosim");
    Rng rng(opt.seed ^ 0xc05137ULL);
    for (int v = 0; v < opt.cosimVectors; v++) {
        std::vector<Divergence> cosim;
        cosimOneVector(base, rng, opt.cosimCycles, cosim);
        if (!cosim.empty()) {
            out.push_back(cosim.front());  // first mismatch suffices
            break;
        }
    }
    return out;
}

std::string
describeDivergences(const std::vector<Divergence> &ds)
{
    std::ostringstream os;
    for (const Divergence &d : ds)
        os << "[" << d.oracle << "] " << d.detail << "\n";
    return os.str();
}

} // namespace owl::fuzz
