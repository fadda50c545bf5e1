/**
 * @file
 * Tests for the owl::lint static-analysis subsystem (DESIGN.md §8):
 * corrupted fixtures for each IR asserting the exact rule ids, the
 * solver's watched-literal audit, DRAT proof recording + forward
 * checking (positive end-to-end and negative hand-built proofs), and
 * the whole-sketch runner on a shipped design.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "designs/accumulator.h"
#include "lint/lint.h"
#include "netlist/compile.h"
#include "netlist/netlist.h"
#include "oyster/ir.h"
#include "smt/solver.h"
#include "smt/term.h"

using namespace owl;

// ---------------------------------------------------------------------------
// Oyster design lint
// ---------------------------------------------------------------------------

TEST(DesignLint, UnassignedWireExactRule)
{
    oyster::Design d("bad");
    d.addWire("w", 8);
    lint::Report r;
    lint::lintDesign(d, {}, r);
    EXPECT_TRUE(r.hasRule("oyster.unassigned"));
    EXPECT_EQ(r.errorCount(), 1u);
}

TEST(DesignLint, FullWalkReportsEveryFinding)
{
    // The old validate() panicked at the first error; the lint walk
    // must surface all of them in one report.
    oyster::Design d("multi");
    d.addWire("w", 8);
    d.addWire("u", 4);
    d.assign("w", d.lit(8, 1));
    d.assign("w", d.lit(8, 2)); // second assignment
    lint::Report r;
    lint::lintDesign(d, {}, r);
    EXPECT_TRUE(r.hasRule("oyster.multiple-assign"));
    EXPECT_TRUE(r.hasRule("oyster.unassigned")); // 'u'
    EXPECT_GE(r.errorCount(), 2u);
}

TEST(DesignLint, HolesRemainOnlyWhenDisallowed)
{
    oyster::Design d("holes");
    d.addInput("x", 8);
    d.addHole("h", 8, {"x"});
    d.addOutput("o", 8);
    d.assign("o", d.var("h"));

    lint::DesignLintOptions allow;
    lint::Report r1;
    lint::lintDesign(d, allow, r1);
    EXPECT_FALSE(r1.hasRule("oyster.holes-remain"));
    EXPECT_FALSE(r1.hasErrors());

    lint::DesignLintOptions strict;
    strict.allowHoles = false;
    lint::Report r2;
    lint::lintDesign(d, strict, r2);
    EXPECT_TRUE(r2.hasRule("oyster.holes-remain"));
}

TEST(DesignLint, UnreachableHoleIsAWarning)
{
    oyster::Design d("stranded");
    d.addInput("x", 8);
    d.addHole("h", 1, {"x"}); // never read by any expression
    d.addOutput("o", 8);
    d.assign("o", d.var("x"));
    lint::Report r;
    lint::DesignLintOptions opts; // holeReachability defaults on
    lint::lintDesign(d, opts, r);
    EXPECT_TRUE(r.hasRule("oyster.hole-unreachable"));
    EXPECT_EQ(r.errorCount(), 0u);
    EXPECT_GE(r.warningCount(), 1u);
}

TEST(DesignLint, CheckDesignStillThrowsThroughCompile)
{
    // Every legacy validate() call site now routes through
    // lint::checkDesign; a broken design must still abort compilation
    // with FatalError, message now carrying the full report.
    oyster::Design d("bad");
    d.addWire("w", 8);
    EXPECT_THROW(lint::checkDesign(d, false), FatalError);
    EXPECT_THROW(netlist::compile(d), FatalError);
}

// ---------------------------------------------------------------------------
// SMT term-DAG lint
// ---------------------------------------------------------------------------

TEST(SmtLint, CleanTableHasNoFindings)
{
    smt::TermTable tt;
    smt::TermRef a = tt.freshVar("a", 8);
    smt::TermRef b = tt.freshVar("b", 8);
    tt.mkEq(tt.mkAdd(a, b), tt.mkIte(tt.mkUlt(a, b), a, b));
    lint::Report r = lint::lintTerms(tt);
    EXPECT_FALSE(r.hasErrors());
    EXPECT_EQ(r.warningCount(), 0u);
}

TEST(SmtLint, WidthMismatchedTerm)
{
    smt::TermTable tt;
    smt::TermRef a = tt.freshVar("a", 8);
    smt::TermRef b = tt.freshVar("b", 8);
    smt::Node n;
    n.op = smt::Op::Add;
    n.width = 9; // must equal its operands' 8
    n.children = {a, b};
    tt.unsafeIntern(std::move(n));
    lint::Report r = lint::lintTerms(tt);
    EXPECT_TRUE(r.hasRule("smt.width-mismatch"));
}

TEST(SmtLint, HashConsingViolation)
{
    smt::TermTable tt;
    smt::TermRef a = tt.freshVar("a", 8);
    smt::TermRef b = tt.freshVar("b", 8);
    tt.mkAdd(a, b);
    smt::Node dup;
    dup.op = smt::Op::Add;
    dup.width = 8;
    dup.children = {a, b}; // structurally identical to the interned add
    tt.unsafeIntern(std::move(dup));
    lint::Report r = lint::lintTerms(tt);
    EXPECT_TRUE(r.hasRule("smt.hash-consing"));
}

TEST(SmtLint, DanglingChildRef)
{
    smt::TermTable tt;
    smt::Node n;
    n.op = smt::Op::Not;
    n.width = 8;
    n.children = {smt::TermRef{9999}};
    tt.unsafeIntern(std::move(n));
    lint::Report r = lint::lintTerms(tt);
    EXPECT_TRUE(r.hasRule("smt.child-ref"));
}

// ---------------------------------------------------------------------------
// CNF lint + watched-literal audit
// ---------------------------------------------------------------------------

TEST(CnfLint, CorruptedClauses)
{
    sat::Cnf cnf;
    cnf.numVars = 2;
    cnf.clauses.push_back({});                                  // empty
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(5, false)});
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(0, false)});
    cnf.clauses.push_back({sat::Lit(1, false), sat::Lit(1, true)});
    lint::Report r = lint::lintCnf(cnf);
    EXPECT_TRUE(r.hasRule("cnf.empty-clause"));
    EXPECT_TRUE(r.hasRule("cnf.var-bounds"));
    EXPECT_TRUE(r.hasRule("cnf.duplicate-literal"));
    EXPECT_TRUE(r.hasRule("cnf.tautology"));
    // Duplicates and tautologies are warnings (raw Tseitin output may
    // contain them); structural corruption is an error.
    EXPECT_EQ(r.errorCount(), 2u);
    EXPECT_EQ(r.warningCount(), 2u);
}

TEST(CnfLint, CleanCnf)
{
    sat::Cnf cnf;
    cnf.numVars = 2;
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(1, true)});
    lint::Report r = lint::lintCnf(cnf);
    EXPECT_FALSE(r.hasErrors());
    EXPECT_EQ(r.warningCount(), 0u);
}

TEST(CnfLint, DuplicateClauseExactRule)
{
    sat::Cnf cnf;
    cnf.numVars = 3;
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(1, true)});
    cnf.clauses.push_back({sat::Lit(2, false), sat::Lit(1, false)});
    // Same literal set as clause #0 in a different order: still a
    // duplicate (the rule keys on the sorted literal set).
    cnf.clauses.push_back({sat::Lit(1, true), sat::Lit(0, false)});
    lint::Report r = lint::lintCnf(cnf);
    EXPECT_TRUE(r.hasRule("cnf.duplicate-clause"));
    // One duplicate pair -> exactly one warning for it.
    EXPECT_EQ(r.warningCount(), 1u);
    // A permuted complement is NOT a duplicate.
    sat::Cnf clean;
    clean.numVars = 2;
    clean.clauses.push_back({sat::Lit(0, false), sat::Lit(1, true)});
    clean.clauses.push_back({sat::Lit(0, true), sat::Lit(1, false)});
    EXPECT_FALSE(lint::lintCnf(clean).hasRule("cnf.duplicate-clause"));
}

TEST(CnfLint, PureLiteralReportOnly)
{
    sat::Cnf cnf;
    cnf.numVars = 3;
    // Variable 0 appears both ways, variable 1 only negatively,
    // variable 2 only positively.
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(1, true)});
    cnf.clauses.push_back({sat::Lit(0, true), sat::Lit(2, false)});
    lint::Report r = lint::lintCnf(cnf);
    EXPECT_TRUE(r.hasRule("cnf.pure-literal"));
    // Report-only: pures are not errors or warnings.
    EXPECT_FALSE(r.hasErrors());
    EXPECT_EQ(r.warningCount(), 0u);
}

TEST(CnfLint, WatchAuditCleanAfterSolve)
{
    sat::Solver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addClause(sat::Lit(a, false), sat::Lit(b, false));
    s.addClause(sat::Lit(a, true), sat::Lit(c, false));
    s.addClause(sat::Lit(b, true), sat::Lit(c, true));
    EXPECT_EQ(s.solve(), sat::Result::Sat);
    lint::Report r;
    EXPECT_EQ(s.auditWatchInvariants(&r), 0);
    EXPECT_FALSE(r.hasErrors());
}

// ---------------------------------------------------------------------------
// Netlist lint
// ---------------------------------------------------------------------------

namespace
{

/** Fresh netlist with the two constant sources compile() always emits. */
netlist::Netlist
emptyNetlist()
{
    netlist::Netlist nl;
    nl.addGate(netlist::GateOp::Const0);
    nl.addGate(netlist::GateOp::Const1);
    return nl;
}

} // namespace

TEST(NetlistLint, CombinationalCycle)
{
    netlist::Netlist nl = emptyNetlist();
    int32_t g = nl.addGate(netlist::GateOp::And, 0, 0);
    int32_t h = nl.addGate(netlist::GateOp::Not, g);
    nl.gates[g].a = h; // g -> h -> g, no flip-flop in between
    nl.outputs["o"] = {g};
    lint::Report r = lint::lintNetlist(nl);
    EXPECT_TRUE(r.hasRule("netlist.comb-cycle"));
}

TEST(NetlistLint, CycleThroughDffIsLegal)
{
    netlist::Netlist nl = emptyNetlist();
    int32_t q = nl.addGate(netlist::GateOp::Dff, -1);
    int32_t n = nl.addGate(netlist::GateOp::Not, q);
    nl.gates[q].a = n; // q -> n -> q, but q is sequential
    nl.registers["r"] = {q};
    lint::Report r = lint::lintNetlist(nl);
    EXPECT_FALSE(r.hasRule("netlist.comb-cycle"));
    EXPECT_FALSE(r.hasErrors());
}

TEST(NetlistLint, UndrivenAndOutOfRangeFanin)
{
    netlist::Netlist nl = emptyNetlist();
    int32_t g = nl.addGate(netlist::GateOp::And, 0, -1);
    nl.addGate(netlist::GateOp::Not, 999);
    nl.outputs["o"] = {g};
    lint::Report r = lint::lintNetlist(nl);
    EXPECT_TRUE(r.hasRule("netlist.undriven"));
    EXPECT_TRUE(r.hasRule("netlist.fanin-range"));
}

TEST(NetlistLint, RegisterBusMustBeDff)
{
    netlist::Netlist nl = emptyNetlist();
    int32_t g = nl.addGate(netlist::GateOp::And, 0, 1);
    nl.registers["r"] = {g};
    lint::Report r = lint::lintNetlist(nl);
    EXPECT_TRUE(r.hasRule("netlist.port-kind"));
}

TEST(NetlistLint, DeadGateReportMatchesOptimizerRoots)
{
    netlist::Netlist nl = emptyNetlist();
    int32_t live = nl.addGate(netlist::GateOp::And, 0, 1);
    int32_t dead = nl.addGate(netlist::GateOp::Xor, 0, 1);
    nl.outputs["o"] = {live};
    std::vector<int32_t> d = lint::deadGates(nl);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0], dead);
    lint::Report r = lint::lintNetlist(nl);
    EXPECT_TRUE(r.hasRule("netlist.dead-gate"));
    EXPECT_FALSE(r.hasErrors()); // dead code is Info, not an error
}

// ---------------------------------------------------------------------------
// DRAT proof recording + forward checking
// ---------------------------------------------------------------------------

TEST(Drat, EndToEndUnsatProofChecks)
{
    sat::Solver s;
    sat::Cnf cnf;
    sat::DratProof proof;
    s.setCaptureCnf(&cnf);
    s.setProofSink(&proof);
    int a = s.newVar(), b = s.newVar();
    // XOR-style contradiction: forces real search, not input
    // simplification.
    s.addClause(sat::Lit(a, false), sat::Lit(b, false));
    s.addClause(sat::Lit(a, false), sat::Lit(b, true));
    s.addClause(sat::Lit(a, true), sat::Lit(b, false));
    s.addClause(sat::Lit(a, true), sat::Lit(b, true));
    EXPECT_EQ(s.solve(), sat::Result::Unsat);
    EXPECT_TRUE(proof.hasEmptyClause());
    lint::Report r;
    EXPECT_TRUE(sat::checkDrat(cnf, proof, &r));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Drat, BogusLemmaIsNotRup)
{
    sat::Cnf cnf;
    cnf.numVars = 2;
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(1, false)});
    sat::DratProof proof;
    proof.addClause({sat::Lit(0, false)}); // {a} does not follow
    proof.addClause({});
    lint::Report r;
    EXPECT_FALSE(sat::checkDrat(cnf, proof, &r));
    EXPECT_TRUE(r.hasRule("drat.step-not-rup"));
}

TEST(Drat, TruncatedProofNeverRefutes)
{
    sat::Cnf cnf;
    cnf.numVars = 2;
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(1, false)});
    sat::DratProof proof; // empty: satisfiable formula, no refutation
    lint::Report r;
    EXPECT_FALSE(sat::checkDrat(cnf, proof, &r));
    EXPECT_TRUE(r.hasRule("drat.no-empty-clause"));
}

TEST(Drat, DeleteOfUnknownClauseIsReported)
{
    sat::Cnf cnf;
    cnf.numVars = 2;
    cnf.clauses.push_back({sat::Lit(0, false), sat::Lit(1, false)});
    sat::DratProof proof;
    proof.deleteClause({sat::Lit(0, true), sat::Lit(1, true)});
    lint::Report r;
    EXPECT_FALSE(sat::checkDrat(cnf, proof, &r));
    EXPECT_TRUE(r.hasRule("drat.delete-unknown"));
}

TEST(Drat, CheckSatReplaysProofOnUnsat)
{
    smt::TermTable tt;
    smt::TermRef a = tt.freshVar("a", 8);
    smt::TermRef b = tt.freshVar("b", 8);
    // a < b && b < a: unsat but not constant-foldable, so the verdict
    // comes from CDCL search and must carry a checkable proof.
    smt::SolveLimits limits;
    limits.checkProofs = true;
    smt::CheckStats stats;
    smt::CheckResult r =
        smt::checkSat(tt, {tt.mkUlt(a, b), tt.mkUlt(b, a)}, nullptr,
                      limits, &stats);
    EXPECT_EQ(r, smt::CheckResult::Unsat);
    EXPECT_TRUE(stats.proofChecked);
    EXPECT_GT(stats.proofSteps, 0u);
}

TEST(Drat, CheckSatReplaysWinningRacersProofUnderPortfolio)
{
    smt::TermTable tt;
    smt::TermRef a = tt.freshVar("a", 8);
    smt::TermRef b = tt.freshVar("b", 8);
    smt::SolveLimits limits;
    limits.checkProofs = true;
    limits.satPortfolio = 2;
    smt::CheckStats stats;
    smt::CheckResult r =
        smt::checkSat(tt, {tt.mkUlt(a, b), tt.mkUlt(b, a)}, nullptr,
                      limits, &stats);
    EXPECT_EQ(r, smt::CheckResult::Unsat);
    EXPECT_TRUE(stats.proofChecked);
}

TEST(Drat, SatVerdictNeedsNoProof)
{
    smt::TermTable tt;
    smt::TermRef a = tt.freshVar("a", 8);
    smt::SolveLimits limits;
    limits.checkProofs = true;
    smt::Model model;
    smt::CheckStats stats;
    smt::CheckResult r = smt::checkSat(
        tt, {tt.mkEq(a, tt.constant(8, 42))}, &model, limits, &stats);
    EXPECT_EQ(r, smt::CheckResult::Sat);
    EXPECT_FALSE(stats.proofChecked);
}

// ---------------------------------------------------------------------------
// Whole-sketch runner
// ---------------------------------------------------------------------------

TEST(LintRunner, AccumulatorSketchIsClean)
{
    designs::CaseStudy cs = designs::makeAccumulator();
    lint::LintRunStats stats;
    lint::Report r;
    lint::lintAll(cs.sketch, {}, r, &stats);
    EXPECT_FALSE(r.hasErrors()) << r.toString();
    EXPECT_GT(stats.termNodes, 0u);
    EXPECT_GT(stats.cnfClauses, 0u);
    EXPECT_GT(stats.netlistGates, 0u);
}

TEST(LintRunner, BrokenDesignStopsAfterStageOne)
{
    oyster::Design d("bad");
    d.addWire("w", 8); // unassigned: stage 1 error
    lint::LintRunStats stats;
    lint::Report r;
    lint::lintAll(d, {}, r, &stats);
    EXPECT_TRUE(r.hasRule("oyster.unassigned"));
    EXPECT_EQ(stats.termNodes, 0u); // stages 2-4 skipped
}
