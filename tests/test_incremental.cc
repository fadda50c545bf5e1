/**
 * @file
 * Tests for owl::smt::IncrementalContext (persistent bit-blast cache,
 * activation-literal groups, assumption probing, portfolio racers)
 * and for the incremental CEGIS path built on it: bit-identical hole
 * values against the fresh per-iteration path, and back-to-back
 * in-process synthesis sessions (the ASan double-session check).
 */

#include <gtest/gtest.h>

#include "core/synthesis.h"
#include "designs/accumulator.h"
#include "designs/case_study.h"
#include "designs/riscv_single_cycle.h"
#include "smt/incremental.h"
#include "smt/term.h"

using namespace owl;
using namespace owl::smt;
using owl::synth::SynthesisOptions;
using owl::synth::SynthesisResult;
using owl::synth::SynthStatus;

TEST(Incremental, PermanentAssertionsAndModel)
{
    TermTable tt;
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    IncrementalContext ctx(tt);
    ctx.assertPermanent(tt.mkEq(tt.mkAdd(a, b), tt.constant(8, 10)));
    ctx.assertPermanent(tt.mkEq(a, tt.constant(8, 3)));
    Model model;
    ASSERT_EQ(ctx.check(&model), CheckResult::Sat);
    EXPECT_EQ(model.leafValues.at(a.idx).toUint64(), 3u);
    EXPECT_EQ(model.leafValues.at(b.idx).toUint64(), 7u);
    // Conflicting permanent assertion: unconditional Unsat.
    ctx.assertPermanent(tt.mkEq(b, tt.constant(8, 9)));
    EXPECT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_FALSE(ctx.lastUnsatWasConditional());
}

TEST(Incremental, GroupsMakeUnsatConditional)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    IncrementalContext ctx(tt);
    int g0 = ctx.addGroup({tt.mkEq(x, tt.constant(4, 5))});
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    int g1 = ctx.addGroup({tt.mkEq(x, tt.constant(4, 9))});
    // Both groups assumed at once: conflicting, but only under the
    // activation literals — the formula itself is not refuted.
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_TRUE(ctx.lastUnsatWasConditional());
    std::vector<int> failed = ctx.failedGroups();
    ASSERT_FALSE(failed.empty());
    for (int g : failed)
        EXPECT_TRUE(g == g0 || g == g1);
    EXPECT_EQ(ctx.numGroups(), 2);
    EXPECT_GE(ctx.stats().solveCalls, 2u);
}

TEST(Incremental, ExtraAssumptionProbesDoNotStick)
{
    // The CEGIS lexmin canonicalization pattern: probe individual
    // bits of a variable with per-call assumptions. Failed probes
    // must not pollute later calls on the same context (regression:
    // analyzeFinal used to leave solver-internal state behind that
    // corrupted subsequent learning).
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    TermRef y = tt.freshVar("y", 4);
    IncrementalContext ctx(tt);
    ctx.addGroup({tt.mkEq(tt.mkAdd(x, y), tt.constant(4, 12))});
    ctx.addGroup({tt.mkUlt(tt.constant(4, 9), x)});
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    std::vector<sat::Lit> bits = ctx.literalsOf(x);
    ASSERT_EQ(bits.size(), 4u);
    // Lexmin probe, msb to lsb: x must come out 10 (minimum > 9).
    std::vector<sat::Lit> fixed;
    uint64_t value = 0;
    for (int b = 3; b >= 0; b--) {
        fixed.push_back(~bits[b]);
        CheckResult r = ctx.check(nullptr, {}, nullptr, fixed);
        ASSERT_NE(r, CheckResult::Unknown);
        if (r == CheckResult::Unsat) {
            EXPECT_TRUE(ctx.lastUnsatWasConditional());
            fixed.back() = bits[b];
            value |= 1ull << b;
        }
    }
    EXPECT_EQ(value, 10u);
    // The probes were per-call: the context still solves, and a full
    // model agrees with the probed minimum under the same pins.
    Model model;
    ASSERT_EQ(ctx.check(&model, {}, nullptr, fixed), CheckResult::Sat);
    EXPECT_EQ(model.leafValues.at(x.idx).toUint64(), 10u);
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
}

TEST(Incremental, StatsTrackEncodingReuse)
{
    TermTable tt;
    TermRef a = tt.freshVar("a", 8);
    TermRef b = tt.freshVar("b", 8);
    TermRef shared = tt.mkMul(a, b);
    IncrementalContext ctx(tt);
    ctx.addGroup({tt.mkEq(shared, tt.constant(8, 12))});
    uint64_t first_encoded = ctx.stats().nodesEncoded;
    EXPECT_GT(first_encoded, 0u);
    EXPECT_EQ(ctx.stats().cacheHits, 0u);
    // Second group reuses the multiplier encoding wholesale.
    ctx.addGroup({tt.mkUlt(shared, tt.constant(8, 100))});
    EXPECT_GT(ctx.stats().cacheHits, 0u);
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    EXPECT_EQ(ctx.stats().solveCalls, 2u);
}

TEST(Incremental, PortfolioRacersAgree)
{
    for (int jobs : {2, 3}) {
        TermTable tt;
        TermRef x = tt.freshVar("x", 6);
        SolverConfig o;
        o.satPortfolio = jobs;
        IncrementalContext ctx(tt, o);
        ctx.addGroup({tt.mkEq(tt.mkMul(x, x), tt.constant(6, 25))});
        Model model;
        ASSERT_EQ(ctx.check(&model), CheckResult::Sat);
        uint64_t v = model.leafValues.at(x.idx).toUint64();
        EXPECT_EQ((v * v) & 63, 25u);
        ctx.addGroup({tt.mkEq(x, tt.constant(6, 2))});
        ASSERT_EQ(ctx.check(), CheckResult::Unsat);
        EXPECT_TRUE(ctx.lastUnsatWasConditional());
    }
}

TEST(Incremental, SessionProofCheckOnUnconditionalUnsat)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 3);
    SolverConfig o;
    o.checkProofs = true;
    IncrementalContext ctx(tt, o);
    ctx.assertPermanent(tt.mkUlt(x, tt.constant(3, 4)));
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    // A contradiction spread across two assertPermanent calls and two
    // solves: the session-long DRAT proof must replay cleanly (a
    // failure panics inside check()).
    ctx.assertPermanent(tt.mkUlt(tt.constant(3, 5), x));
    CheckStats stats;
    ASSERT_EQ(ctx.check(nullptr, {}, &stats), CheckResult::Unsat);
    EXPECT_FALSE(stats.unsatConditional);
}

TEST(Incremental, CegisBitIdenticalToFreshPath)
{
    // The acceptance gate in miniature: the incremental CEGIS session
    // must land on exactly the hole values of the fresh
    // solver-per-iteration path (both are pinned to the lexmin model
    // of each synth query, which is a property of the formula alone).
    designs::CaseStudy inc =
        designs::makeRiscvSingleCycle(designs::RiscvVariant::RV32I);
    designs::CaseStudy fresh =
        designs::makeRiscvSingleCycle(designs::RiscvVariant::RV32I);
    SynthesisOptions io;
    io.incremental = true;
    SynthesisOptions fo;
    fo.incremental = false;
    SynthesisResult ri =
        synthesizeControl(inc.sketch, inc.spec, inc.alpha, io);
    SynthesisResult rf =
        synthesizeControl(fresh.sketch, fresh.spec, fresh.alpha, fo);
    ASSERT_EQ(ri.status, SynthStatus::Ok) << ri.failedInstr;
    ASSERT_EQ(rf.status, SynthStatus::Ok) << rf.failedInstr;
    EXPECT_EQ(ri.cegisIterations, rf.cegisIterations);
    ASSERT_EQ(ri.perInstr.size(), rf.perInstr.size());
    for (size_t i = 0; i < ri.perInstr.size(); i++) {
        const auto &[instr, holes] = ri.perInstr[i];
        const auto &[finstr, fholes] = rf.perInstr[i];
        ASSERT_EQ(instr, finstr);
        ASSERT_EQ(holes.size(), fholes.size()) << instr;
        for (const auto &[name, v] : holes)
            EXPECT_TRUE(v == fholes.at(name))
                << instr << "." << name;
    }
}

TEST(Incremental, BackToBackSynthSessionsInProcess)
{
    // Two full synthesis runs in one process (each instruction runs
    // its own incremental session; this additionally checks teardown
    // and re-construction across whole designs — the ASan entry runs
    // this file, so leaks or use-after-free in session lifetime show
    // up here).
    for (int round = 0; round < 2; round++) {
        designs::CaseStudy cs = designs::makeAccumulator();
        SynthesisResult r =
            synthesizeControl(cs.sketch, cs.spec, cs.alpha);
        ASSERT_EQ(r.status, SynthStatus::Ok) << "round " << round;
        EXPECT_FALSE(cs.sketch.hasHoles());
    }
}
