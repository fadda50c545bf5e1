/**
 * @file
 * Tests for lazy Ackermann lemmas-on-demand (smt/ackermann.h,
 * DESIGN.md §14): randomized differential lazy-vs-eager on one-shot
 * queries (verdicts match, Sat models are congruence-clean, Unsat
 * verdicts replay under DRAT), lemma accounting in CheckStats and
 * IncrementalStats, lemma permanence across incremental checks, the
 * cross-query AckermannSeeds cache, and synthesis-level hole
 * bit-identity across all four mode corners (lazy/eager x
 * fresh/incremental).
 */

#include <gtest/gtest.h>

#include <random>

#include "core/synthesis.h"
#include "designs/alu_machine.h"
#include "designs/case_study.h"
#include "smt/incremental.h"
#include "smt/solver.h"
#include "smt/term.h"

using namespace owl;
using namespace owl::smt;
using owl::synth::SynthesisOptions;
using owl::synth::SynthesisResult;
using owl::synth::SynthStatus;

namespace
{

/**
 * Check that a Sat model respects read congruence: for every
 * same-memory pair of reads whose addresses evaluate equal under the
 * model's variable assignment, the read values in the model agree.
 * This is the property the lazy refinement loop promises of any model
 * it lets escape.
 */
void
expectCongruenceClean(const TermTable &tt, const Model &model,
                      const std::vector<TermRef> &reads)
{
    Assignment asg;
    for (const auto &[idx, val] : model.leafValues) {
        const Node &n = tt.node(TermRef{idx});
        if (n.op == Op::Var)
            asg.setVar(n.a, val);
    }
    // Only reads that reached the formula appear in the model; a read
    // no assertion mentions was never the solver's to constrain.
    std::vector<TermRef> present;
    for (TermRef r : reads)
        if (model.leafValues.count(r.idx))
            present.push_back(r);
    for (size_t i = 0; i < present.size(); i++) {
        for (size_t j = i + 1; j < present.size(); j++) {
            const Node &ni = tt.node(present[i]);
            const Node &nj = tt.node(present[j]);
            if (ni.a != nj.a)
                continue; // different memories
            BitVec ai = evalTerm(tt, ni.children[0], asg);
            BitVec aj = evalTerm(tt, nj.children[0], asg);
            if (!(ai == aj))
                continue;
            EXPECT_TRUE(model.leafValues.at(present[i].idx) ==
                        model.leafValues.at(present[j].idx))
                << "reads " << i << " and " << j
                << " disagree at equal address";
        }
    }
}

} // namespace

TEST(Ackermann, LazyRefinesForcedViolation)
{
    // x == y forces read(m,x) == read(m,y); asserting the reads
    // unequal is Unsat, but only via a congruence instance the lazy
    // path must discover from a model scan.
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    std::vector<TermRef> q = {tt.mkEq(x, y),
                              tt.mkNot(tt.mkEq(r1, r2))};

    SolveLimits lazy;
    lazy.checkProofs = true; // the refinement Unsat must replay
    CheckStats ls;
    EXPECT_EQ(checkSat(tt, q, nullptr, lazy, &ls), CheckResult::Unsat);
    EXPECT_GE(ls.ackermannLemmas, 1u);
    EXPECT_GE(ls.ackermannRounds, 1u);
    EXPECT_EQ(ls.ackermannConstraints, ls.ackermannLemmas);
    EXPECT_TRUE(ls.proofChecked);

    SolveLimits eager;
    eager.eagerAckermann = true;
    eager.checkProofs = true;
    CheckStats es;
    EXPECT_EQ(checkSat(tt, q, nullptr, eager, &es),
              CheckResult::Unsat);
    EXPECT_EQ(es.ackermannLemmas, 0u);
    EXPECT_EQ(es.ackermannRounds, 0u);
    EXPECT_GE(es.ackermannConstraints, 1u);
    EXPECT_TRUE(es.proofChecked);
}

TEST(Ackermann, SeedsCollapseRepeatedRefinement)
{
    // A caller re-solving structurally similar queries (CEGIS
    // verifying one instruction) passes an AckermannSeeds cache: the
    // first solve discovers the violated pair via a refinement round
    // and records it; an equivalent rebuilt query seeded with it must
    // converge with ZERO refinement rounds — the pair is pre-asserted
    // into round 1. The seeded instance is booked as a constraint but
    // not as a scan-demanded lemma.
    AckermannSeeds seeds;
    auto solveOnce = [&seeds](CheckStats &st) {
        TermTable tt;
        TermRef x = tt.freshVar("x", 8);
        TermRef y = tt.freshVar("y", 8);
        TermRef r1 = tt.baseRead(0, x, 16);
        TermRef r2 = tt.baseRead(0, y, 16);
        std::vector<TermRef> q = {tt.mkEq(x, y),
                                  tt.mkNot(tt.mkEq(r1, r2))};
        SolveLimits lims;
        lims.checkProofs = true;
        lims.ackermannSeeds = &seeds;
        return checkSat(tt, q, nullptr, lims, &st);
    };

    CheckStats first;
    EXPECT_EQ(solveOnce(first), CheckResult::Unsat);
    EXPECT_GE(first.ackermannRounds, 1u);
    EXPECT_GE(first.ackermannLemmas, 1u);
    EXPECT_TRUE(first.proofChecked);
    EXPECT_FALSE(seeds.pairs.empty());

    CheckStats second;
    EXPECT_EQ(solveOnce(second), CheckResult::Unsat);
    EXPECT_EQ(second.ackermannRounds, 0u);
    EXPECT_EQ(second.ackermannLemmas, 0u);
    EXPECT_GE(second.ackermannConstraints, 1u); // the seeded instance
    EXPECT_TRUE(second.proofChecked);
}

TEST(Ackermann, SatModelsAreCongruenceClean)
{
    // Unconstrained same-memory reads at free addresses: Sat either
    // way, and the lazy model must not leave a violated pair behind.
    TermTable tt;
    TermRef x = tt.freshVar("x", 4);
    TermRef y = tt.freshVar("y", 4);
    std::vector<TermRef> reads = {tt.baseRead(0, x, 8),
                                  tt.baseRead(0, y, 8),
                                  tt.baseRead(0, tt.mkAdd(x, y), 8)};
    // Force the first two reads apart so the scan has something to
    // separate (the solver must move the addresses apart instead).
    std::vector<TermRef> q = {
        tt.mkNot(tt.mkEq(reads[0], reads[1])),
        tt.mkEq(reads[2], tt.constant(8, 7)),
    };
    Model model;
    ASSERT_EQ(checkSat(tt, q, &model), CheckResult::Sat);
    expectCongruenceClean(tt, model, reads);
}

TEST(Ackermann, RandomizedLazyMatchesEager)
{
    std::mt19937 rng(20240810);
    int sat_seen = 0, unsat_seen = 0, lemma_rounds_seen = 0;
    for (int iter = 0; iter < 40; iter++) {
        TermTable tt;
        TermRef a = tt.freshVar("a", 4);
        TermRef b = tt.freshVar("b", 4);
        TermRef c = tt.freshVar("c", 4);
        std::vector<TermRef> vars = {a, b, c};
        // Reads over two memories at overlapping symbolic addresses:
        // plenty of same-memory pairs for the scan to consider.
        std::vector<TermRef> addrs = {a, b, c, tt.mkAdd(a, b),
                                      tt.mkXor(b, c),
                                      tt.constant(4, rng() % 16)};
        std::vector<TermRef> reads;
        for (int mem = 0; mem < 2; mem++)
            for (size_t k = 0; k < addrs.size(); k += 1 + rng() % 2)
                reads.push_back(tt.baseRead(mem, addrs[k], 8));
        std::vector<TermRef> q;
        size_t n_constraints = 2 + rng() % 4;
        for (size_t k = 0; k < n_constraints; k++) {
            TermRef r1 = reads[rng() % reads.size()];
            TermRef r2 = reads[rng() % reads.size()];
            switch (rng() % 4) {
              case 0:
                q.push_back(tt.mkEq(tt.mkXor(r1, r2),
                                    tt.constant(8, rng() % 256)));
                break;
              case 1:
                q.push_back(tt.mkNot(tt.mkEq(r1, r2)));
                break;
              case 2:
                q.push_back(tt.mkEq(vars[rng() % 3],
                                    vars[rng() % 3]));
                break;
              default:
                q.push_back(tt.mkUlt(r1, tt.constant(8, 1 + rng() % 255)));
                break;
            }
        }

        SolveLimits lazy;
        lazy.checkProofs = true;
        SolveLimits eager;
        eager.eagerAckermann = true;
        eager.checkProofs = true;
        Model lm, em;
        CheckStats ls, es;
        CheckResult lr = checkSat(tt, q, &lm, lazy, &ls);
        CheckResult er = checkSat(tt, q, &em, eager, &es);
        ASSERT_EQ(lr, er) << "iter " << iter;
        if (lr == CheckResult::Sat) {
            sat_seen++;
            expectCongruenceClean(tt, lm, reads);
        } else {
            unsat_seen++;
            // A query the simplifier folds to constant false carries
            // no proof obligation (verdict by evaluation, not search).
            bool trivial = false;
            for (TermRef t : q)
                trivial = trivial || tt.isFalse(t);
            if (!trivial)
                EXPECT_TRUE(ls.proofChecked) << "iter " << iter;
        }
        lemma_rounds_seen += ls.ackermannRounds > 0;
        // Lazy never instantiates more than eager's full pair set.
        EXPECT_LE(ls.ackermannConstraints, es.ackermannConstraints)
            << "iter " << iter;
    }
    // The generator must actually exercise both verdicts and the
    // refinement loop, or the differential is vacuous.
    EXPECT_GT(sat_seen, 0);
    EXPECT_GT(unsat_seen, 0);
    EXPECT_GT(lemma_rounds_seen, 0);
}

TEST(Ackermann, IncrementalLemmasArePermanent)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    IncrementalContext ctx(tt);
    ctx.assertPermanent(tt.mkEq(x, y));
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    // The contradiction is only reachable through a congruence
    // instance; the lazy incremental path must refine to Unsat, and
    // unconditionally (no activation literal involved).
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_FALSE(ctx.lastUnsatWasConditional());
    EXPECT_GE(ctx.stats().ackermannLemmas, 1u);
    uint64_t lemmas_after_first = ctx.stats().ackermannLemmas;
    // Lemmas are permanent session facts: re-checking needs no new
    // instantiation and stays Unsat.
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    EXPECT_EQ(ctx.stats().ackermannLemmas, lemmas_after_first);
}

TEST(Ackermann, IncrementalLemmasSurviveGroupRetraction)
{
    // A lemma learned while a group was active must keep holding
    // after that group stops being assumed: lemmas are facts about
    // the memory semantics, not about any particular group.
    TermTable tt;
    TermRef x = tt.freshVar("x", 8);
    TermRef y = tt.freshVar("y", 8);
    TermRef r1 = tt.baseRead(0, x, 16);
    TermRef r2 = tt.baseRead(0, y, 16);
    IncrementalContext ctx(tt);
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    ctx.addGroup({tt.mkEq(x, y)});
    ASSERT_EQ(ctx.check(), CheckResult::Unsat);
    uint64_t lemmas = ctx.stats().ackermannLemmas;
    EXPECT_GE(lemmas, 1u);
    // With a fresh contradiction-free group set the context must
    // still respect the learned congruences: x != y makes the query
    // satisfiable again, and the Sat model is congruence-clean.
    ctx.addGroup({tt.mkNot(tt.mkEq(x, y))});
    Model model;
    CheckResult r = ctx.check(&model);
    if (r == CheckResult::Sat)
        expectCongruenceClean(tt, model, {r1, r2});
    EXPECT_EQ(ctx.stats().ackermannLemmas, lemmas);
}

TEST(Ackermann, IncrementalProofReplayOnRefinementUnsat)
{
    TermTable tt;
    TermRef x = tt.freshVar("x", 6);
    TermRef y = tt.freshVar("y", 6);
    TermRef r1 = tt.baseRead(0, x, 12);
    TermRef r2 = tt.baseRead(0, y, 12);
    SolverConfig o;
    o.checkProofs = true;
    IncrementalContext ctx(tt, o);
    ctx.assertPermanent(tt.mkEq(x, y));
    ASSERT_EQ(ctx.check(), CheckResult::Sat);
    // Spread across two permanents and two solves; a failed DRAT
    // replay panics inside check().
    ctx.assertPermanent(tt.mkNot(tt.mkEq(r1, r2)));
    CheckStats stats;
    ASSERT_EQ(ctx.check(nullptr, {}, &stats), CheckResult::Unsat);
    EXPECT_FALSE(stats.unsatConditional);
}

TEST(Ackermann, SynthesisHolesBitIdenticalAcrossModes)
{
    // The acceptance gate in miniature on a memory-bearing design:
    // lazy/eager x fresh/incremental must all land on the same hole
    // values (every mode converges to the lexmin model of the same
    // final feasible set; the counterexample trajectory may differ).
    struct ModeResult
    {
        const char *name;
        SynthesisResult r;
    };
    std::vector<ModeResult> runs;
    for (bool eager : {false, true}) {
        for (bool incremental : {true, false}) {
            designs::CaseStudy cs = designs::makeAluMachine();
            SynthesisOptions o;
            o.eagerAckermann = eager;
            o.incremental = incremental;
            SynthesisResult r =
                synthesizeControl(cs.sketch, cs.spec, cs.alpha, o);
            ASSERT_EQ(r.status, SynthStatus::Ok)
                << (eager ? "eager" : "lazy") << "/"
                << (incremental ? "incremental" : "fresh") << ": "
                << r.failedInstr;
            runs.push_back({eager ? "eager" : "lazy", std::move(r)});
        }
    }
    const SynthesisResult &base = runs[0].r;
    for (size_t m = 1; m < runs.size(); m++) {
        const SynthesisResult &other = runs[m].r;
        ASSERT_EQ(base.perInstr.size(), other.perInstr.size());
        for (size_t i = 0; i < base.perInstr.size(); i++) {
            const auto &[instr, holes] = base.perInstr[i];
            const auto &[oinstr, oholes] = other.perInstr[i];
            ASSERT_EQ(instr, oinstr);
            ASSERT_EQ(holes.size(), oholes.size()) << instr;
            for (const auto &[name, v] : holes)
                EXPECT_TRUE(v == oholes.at(name))
                    << "mode " << m << " " << instr << "." << name;
        }
    }
}
