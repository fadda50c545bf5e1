/**
 * @file
 * End-to-end tests for the control logic synthesis engine on the
 * paper's §2 examples: the FSM-style accumulator and the
 * instruction-decoder-style three-stage ALU machine.
 *
 * Each test synthesizes control, formally re-verifies the completed
 * design against the spec, and then simulates it concretely against
 * an independent architectural model.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "designs/accumulator.h"
#include "designs/alu_machine.h"
#include "base/logging.h"
#include "core/synthesis.h"
#include "oyster/interp.h"
#include "oyster/printer.h"

using namespace owl;
using namespace owl::designs;
using namespace owl::synth;
using oyster::Interpreter;

TEST(CoreAccumulator, SynthesizesAndVerifies)
{
    CaseStudy cs = makeAccumulator();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok)
        << "failed at " << r.failedInstr;
    EXPECT_EQ(r.perInstr.size(), 3u);
    EXPECT_FALSE(cs.sketch.hasHoles());
    // Independent formal check of the completed design.
    std::string failed;
    EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed),
              SynthStatus::Ok)
        << "verification failed at " << failed;
}

TEST(CoreAccumulator, VerifyHonorsExpiredDeadline)
{
    // Each verify query is far below the CDCL deadline-poll stride, so
    // only the checks between queries can see a deadline in the past.
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    CegisOptions opts;
    opts.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    std::string failed;
    EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed, opts),
              SynthStatus::Timeout);
    EXPECT_EQ(failed, cs.spec.instrs().front()->name());
    EXPECT_EQ(checkMutualExclusion(cs.sketch, cs.spec, cs.alpha, nullptr,
                                   opts),
              SynthStatus::Timeout);
}

TEST(CoreAccumulator, TransitionTargetsMatchSpec)
{
    CaseStudy cs = makeAccumulator();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    // The synthesized st_next per instruction must be the spec's
    // state encoding, since st maps to the architectural state.
    for (const auto &[name, holes] : r.perInstr) {
        uint64_t target = holes.at("st_next").toUint64();
        if (name == "reset_instr")
            EXPECT_EQ(target, accRESET);
        else if (name == "go_instr")
            EXPECT_EQ(target, accGO);
        else
            EXPECT_EQ(target, accSTOP);
    }
}

TEST(CoreAccumulator, SimulationFollowsFsm)
{
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    Interpreter sim(cs.sketch);
    // Start in STOP, reset, then accumulate 5 and 7, then stop.
    sim.setReg("st", BitVec(2, accSTOP));
    sim.setReg("acc", BitVec(8, 99));
    auto in = [&](uint64_t rst, uint64_t go, uint64_t stop,
                  uint64_t val) {
        return oyster::InputMap{{"reset", BitVec(1, rst)},
                                {"go", BitVec(1, go)},
                                {"stop", BitVec(1, stop)},
                                {"val", BitVec(8, val)}};
    };
    sim.step(in(1, 0, 0, 0)); // reset_instr
    EXPECT_EQ(sim.reg("acc").toUint64(), 0u);
    EXPECT_EQ(sim.reg("st").toUint64(), accRESET);
    sim.step(in(0, 1, 0, 5)); // go_instr (from RESET)
    EXPECT_EQ(sim.reg("acc").toUint64(), 5u);
    EXPECT_EQ(sim.reg("st").toUint64(), accGO);
    sim.step(in(0, 0, 0, 7)); // go_instr (stay in GO)
    EXPECT_EQ(sim.reg("acc").toUint64(), 12u);
    sim.step(in(0, 0, 1, 3)); // stop_instr
    EXPECT_EQ(sim.reg("acc").toUint64(), 12u);
    EXPECT_EQ(sim.reg("st").toUint64(), accSTOP);
}

TEST(CoreAccumulator, GeneratedControlPrints)
{
    CaseStudy cs = makeAccumulator();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    std::string ctrl = oyster::printGeneratedControl(cs.sketch);
    EXPECT_NE(ctrl.find("pre_go_instr"), std::string::npos);
    EXPECT_NE(ctrl.find("st_next"), std::string::npos);
    EXPECT_GT(oyster::countLines(ctrl), 5);
}

TEST(CoreAccumulator, MonolithicMatchesPerInstruction)
{
    // Equation (1) vs the §3.3.1 optimization: both complete on this
    // small design and both produce verifying control.
    CaseStudy a = makeAccumulator();
    SynthesisOptions mono;
    mono.strategy = Strategy::Monolithic;
    SynthesisResult r = synthesizeControl(a.sketch, a.spec, a.alpha,
                                          mono);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    EXPECT_EQ(verifyDesign(a.sketch, a.spec, a.alpha), SynthStatus::Ok);
}

TEST(CoreAccumulator, UnsatSketchReportsFailure)
{
    // Break the sketch (accumulate with XOR instead of ADD): go_instr
    // becomes unsynthesizable and the engine must say so.
    CaseStudy cs = makeAccumulator();
    oyster::Design d("acc_broken");
    d.addInput("reset", 1);
    d.addInput("go", 1);
    d.addInput("stop", 1);
    d.addInput("val", 8);
    d.addRegister("acc", 8);
    d.addRegister("st", 2);
    d.addOutput("out", 8);
    d.addHole("fsm", 2, {});
    d.addHole("enc_reset", 2, {});
    d.addHole("enc_go", 2, {});
    d.addHole("enc_stop", 2, {});
    d.addHole("st_next", 2, {});
    auto acc = d.var("acc");
    auto upd = d.opIte(
        d.opEq(d.var("fsm"), d.var("enc_reset")), d.lit(8, 0),
        d.opIte(d.opEq(d.var("fsm"), d.var("enc_go")),
                d.opXor(acc, d.var("val")), acc));
    d.assign("acc", upd);
    d.assign("st", d.var("st_next"));
    d.assign("out", acc);

    SynthesisResult r = synthesizeControl(d, cs.spec, cs.alpha);
    EXPECT_EQ(r.status, SynthStatus::Unsat);
    EXPECT_EQ(r.failedInstr, "go_instr");

    // Equation (1) over the same sketch: the joint query has no
    // single instruction to blame.
    SynthesisOptions mono;
    mono.strategy = Strategy::Monolithic;
    r = synthesizeControl(d, cs.spec, cs.alpha, mono);
    EXPECT_EQ(r.status, SynthStatus::Unsat);
    EXPECT_EQ(r.failedInstr, "");
}

TEST(CoreAccumulator, MonolithicStopsAtIterationLimit)
{
    // The joint query needs 5 CEGIS iterations on this design.
    CaseStudy cs = makeAccumulator();
    SynthesisOptions mono;
    mono.strategy = Strategy::Monolithic;
    mono.maxIterations = 1;
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha,
                                          mono);
    EXPECT_EQ(r.status, SynthStatus::IterLimit);
    EXPECT_EQ(r.cegisIterations, 1);
    EXPECT_TRUE(cs.sketch.hasHoles());
}

TEST(CoreAluMachine, MonolithicHonorsTimeLimit)
{
    // A 1 ms budget on a run that takes about 70 ms: the budget is
    // gone after the first iteration at the latest.
    CaseStudy cs = makeAluMachine();
    SynthesisOptions mono;
    mono.strategy = Strategy::Monolithic;
    mono.timeLimit = std::chrono::milliseconds(1);
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha,
                                          mono);
    EXPECT_EQ(r.status, SynthStatus::Timeout);
    EXPECT_TRUE(cs.sketch.hasHoles());
}

namespace
{

/** "instr: hole=value ..." per instruction, in result order. */
std::string
printHoles(const PerInstrResults &results)
{
    std::ostringstream os;
    for (const auto &[instr, holes] : results) {
        os << instr << ":";
        for (const auto &[hole, value] : holes)
            os << " " << hole << "=" << value.toString();
        os << "\n";
    }
    return os.str();
}

} // namespace

TEST(CoreMonolithic, HolesMatchRecordedValues)
{
    // Equation (1) takes its holes from the raw model of the joint
    // synth query (no lexmin canonicalization), so these values pin
    // every term of the monolithic verify and synth queries: building
    // either one differently moves the model.
    SynthesisOptions mono;
    mono.strategy = Strategy::Monolithic;

    CaseStudy acc = makeAccumulator();
    SynthesisResult r = synthesizeControl(acc.sketch, acc.spec,
                                          acc.alpha, mono);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    EXPECT_EQ(r.cegisIterations, 5);
    EXPECT_EQ(printHoles(r.perInstr),
              "reset_instr: enc_go=2'h0 enc_reset=2'h0 enc_stop=2'h0 "
              "fsm=2'h0 st_next=2'h0\n"
              "go_instr: enc_go=2'h1 enc_reset=2'h0 enc_stop=2'h0 "
              "fsm=2'h1 st_next=2'h1\n"
              "stop_instr: enc_go=2'h0 enc_reset=2'h0 enc_stop=2'h0 "
              "fsm=2'h1 st_next=2'h2\n");

    CaseStudy alu = makeAluMachine();
    r = synthesizeControl(alu.sketch, alu.spec, alu.alpha, mono);
    ASSERT_EQ(r.status, SynthStatus::Ok);
    EXPECT_EQ(r.cegisIterations, 5);
    EXPECT_EQ(printHoles(r.perInstr), "NOP: alu_op=2'h0 reg_write=1'h0\n"
                                      "ADD: alu_op=2'h0 reg_write=1'h1\n"
                                      "XOR: alu_op=2'h1 reg_write=1'h1\n"
                                      "SUB: alu_op=2'h3 reg_write=1'h1\n");
}

TEST(CoreSynthesis, EmptySpecIsFatalForEveryStrategy)
{
    // A spec with no instructions leaves nothing to synthesize: a user
    // error, not a control union over no results or an empty chain.
    for (Strategy s : {Strategy::PerInstruction,
                       Strategy::PerInstructionParallel,
                       Strategy::Monolithic}) {
        SCOPED_TRACE(strategyName(s));
        CaseStudy cs = makeAccumulator();
        ila::Ila empty("empty");
        SynthesisOptions opts;
        opts.strategy = s;
        EXPECT_THROW(synthesizeControl(cs.sketch, empty, cs.alpha, opts),
                     FatalError);
        EXPECT_TRUE(cs.sketch.hasHoles());
    }
}

TEST(CoreAluMachine, SynthesizesAndVerifies)
{
    CaseStudy cs = makeAluMachine();
    SynthesisResult r = synthesizeControl(cs.sketch, cs.spec, cs.alpha);
    ASSERT_EQ(r.status, SynthStatus::Ok)
        << "failed at " << r.failedInstr;
    std::string failed;
    EXPECT_EQ(verifyDesign(cs.sketch, cs.spec, cs.alpha, &failed),
              SynthStatus::Ok)
        << "verification failed at " << failed;

    // The synthesized decoder must pick the right ALU ops and only
    // write the register file for real operations.
    for (const auto &[name, holes] : r.perInstr) {
        if (name == "NOP") {
            EXPECT_EQ(holes.at("reg_write").toUint64(), 0u);
        } else {
            EXPECT_EQ(holes.at("reg_write").toUint64(), 1u);
            uint64_t op = holes.at("alu_op").toUint64();
            if (name == "ADD")
                EXPECT_EQ(op, aluADD);
            else if (name == "XOR")
                EXPECT_EQ(op, aluXOR);
            else if (name == "SUB")
                EXPECT_EQ(op, aluSUB);
        }
    }
}

TEST(CoreAluMachine, PipelinedSimulationMatchesSpec)
{
    // Run a random instruction stream through the completed pipeline
    // and compare the architectural register file with a direct model.
    CaseStudy cs = makeAluMachine();
    ASSERT_EQ(synthesizeControl(cs.sketch, cs.spec, cs.alpha).status,
              SynthStatus::Ok);
    Interpreter sim(cs.sketch);

    uint8_t model[4] = {0, 0, 0, 0};
    struct Op
    {
        uint64_t op, dest, src1, src2;
    };
    std::mt19937 rng(7);
    std::vector<Op> program;
    for (int i = 0; i < 40; i++)
        program.push_back(
            {rng() % 4, rng() % 4, rng() % 4, rng() % 4});
    // Issue one instruction per cycle with two NOP bubbles after each
    // (the sketch has no forwarding; the spec is per-instruction).
    for (const Op &o : program) {
        sim.step({{"op", BitVec(2, o.op)},
                  {"dest", BitVec(2, o.dest)},
                  {"src1", BitVec(2, o.src1)},
                  {"src2", BitVec(2, o.src2)}});
        sim.step({{"op", BitVec(2, 0)}});
        sim.step({{"op", BitVec(2, 0)}});
        uint8_t a = model[o.src1], b = model[o.src2];
        switch (o.op) {
          case 0: break;
          case 1: model[o.dest] = a + b; break;
          case 2: model[o.dest] = a ^ b; break;
          case 3: model[o.dest] = a - b; break;
        }
        for (int rj = 0; rj < 4; rj++) {
            ASSERT_EQ(sim.memWord("regfile", rj).toUint64(),
                      model[rj])
                << "reg " << rj << " after op " << o.op;
        }
    }
}

TEST(CoreAluMachine, SketchSizeIsReported)
{
    CaseStudy cs = makeAluMachine();
    EXPECT_GT(oyster::sketchSizeLoc(cs.sketch), 20);
}
