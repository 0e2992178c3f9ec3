/**
 * @file
 * Timing-pipeline tests: in-order and out-of-order models on crafted
 * microbenchmarks with known cycle behaviour.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "asmkit/assembler.hh"
#include "common/artifact_cache.hh"
#include "pipeline/inorder.hh"
#include "pipeline/ooo.hh"
#include "sim/machine.hh"

namespace cps
{
namespace
{

/** Wires a program to a pipeline over a native fetch path. */
struct TimedEnv
{
    Program prog;
    MainMemory mem;
    DecodedText text;
    Executor exec;
    StatSet stats;
    NativeFetchPath fetch;
    DataPath data;

    explicit TimedEnv(const std::string &src,
                      CacheConfig icache = CacheConfig{16 * 1024, 32, 2})
        : prog(assembleOrDie(src)), text(prog), exec(text, mem),
          fetch(icache, mem, stats),
          data(CacheConfig{16 * 1024, 16, 2}, mem, stats)
    {
        mem.loadSegment(prog.text);
        mem.loadSegment(prog.data);
        exec.reset(prog);
    }

    RunResult
    runInOrder(u64 max = 1000000)
    {
        PipelineConfig cfg = baseline1Issue().pipeline;
        InOrderPipeline pipe(cfg, exec, fetch, data, stats);
        return pipe.run(max);
    }

    RunResult
    runOoO(u64 max = 1000000, unsigned width = 4)
    {
        PipelineConfig cfg = width == 8 ? baseline8Issue().pipeline
                                        : baseline4Issue().pipeline;
        OoOPipeline pipe(cfg, exec, fetch, data, stats);
        return pipe.run(max);
    }
};

std::string
unrolledDependentAdds(int n)
{
    std::string src = "main:\n li $t0, 0\n";
    for (int i = 0; i < n; ++i)
        src += " addiu $t0, $t0, 1\n";
    src += " li $v0, 10\n syscall\n";
    return src;
}

/** A loop whose warm body is @p body dependent adds (IPC cap: 1). */
std::string
loopedDependentAdds(int body, int iters)
{
    std::string src = strfmt("main:\n li $t9, %d\nloop:\n", iters);
    for (int i = 0; i < body; ++i)
        src += " addiu $t0, $t0, 1\n";
    src += " addiu $t9, $t9, -1\n bgtz $t9, loop\n";
    src += " li $v0, 10\n syscall\n";
    return src;
}

/** A loop whose warm body is @p body independent adds (high ILP). */
std::string
loopedIndependentAdds(int body, int iters)
{
    std::string src = strfmt("main:\n li $t8, %d\nloop:\n", iters);
    for (int i = 0; i < body; ++i)
        src += strfmt(" addiu $t%d, $zero, 1\n", i % 8);
    src += " addiu $t8, $t8, -1\n bgtz $t8, loop\n";
    src += " li $v0, 10\n syscall\n";
    return src;
}

TEST(InOrder, RunsToCompletion)
{
    TimedEnv env("main:\n li $v0, 10\n syscall\n");
    RunResult r = env.runInOrder();
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(r.instructions, 2u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(InOrder, DependentChainIpcApproachesOne)
{
    // A warm loop: after the first iteration the I-cache hits, so the
    // 1-wide pipe approaches IPC 1.
    TimedEnv env(loopedDependentAdds(100, 100));
    RunResult r = env.runInOrder();
    EXPECT_LE(r.ipc(), 1.0);
    EXPECT_GT(r.ipc(), 0.85);
}

TEST(InOrder, IndependentStreamAlsoCapsAtOne)
{
    TimedEnv env(loopedIndependentAdds(100, 100));
    RunResult r = env.runInOrder();
    EXPECT_LE(r.ipc(), 1.0);
    EXPECT_GT(r.ipc(), 0.85);
}

TEST(InOrder, ColdStraightLineCodeIsFetchBound)
{
    // The same instruction count with no reuse pays a compulsory miss
    // on every line: IPC collapses well below 1.
    TimedEnv env(unrolledDependentAdds(400));
    RunResult r = env.runInOrder();
    EXPECT_LT(r.ipc(), 0.7);
}

TEST(InOrder, LoadUseBubbleCosts)
{
    // Load feeding its consumer vs. load with independent work after --
    // inside a warm loop, so fetch does not mask the bubble.
    std::string head = "main:\n la $t9, buf\n li $t8, 50\nloop:\n";
    std::string dep = head, indep = head;
    for (int i = 0; i < 50; ++i) {
        dep += " lw $t0, 0($t9)\n addu $t1, $t0, $t0\n";
        indep += " lw $t0, 0($t9)\n addu $t1, $t2, $t2\n";
    }
    std::string tail = " addiu $t8, $t8, -1\n bgtz $t8, loop\n"
                       " li $v0, 10\n syscall\n.data\nbuf: .word 1\n";
    TimedEnv a(dep + tail), b(indep + tail);
    RunResult ra = a.runInOrder();
    RunResult rb = b.runInOrder();
    EXPECT_GT(ra.cycles, rb.cycles);
}

TEST(InOrder, MultiCycleOpsBlockThePipe)
{
    std::string divs = "main:\n li $t0, 100\n li $t1, 3\n";
    for (int i = 0; i < 50; ++i)
        divs += " div $t2, $t0, $t1\n";
    divs += " li $v0, 10\n syscall\n";
    TimedEnv env(divs);
    RunResult r = env.runInOrder();
    // Each div occupies EX for 20 cycles.
    EXPECT_GT(r.cycles, 50u * 20u);
}

TEST(InOrder, MispredictsCostCycles)
{
    // A data-dependent alternating branch the bimodal predictor cannot
    // learn, vs. an always-taken loop branch it can.
    std::string noisy = R"(
main:
    li $t0, 400
    li $t1, 0
loop:
    andi $t2, $t0, 1
    beqz $t2, skip
    addiu $t1, $t1, 1
skip:
    addiu $t0, $t0, -1
    bgtz $t0, loop
    li $v0, 10
    syscall
)";
    TimedEnv env(noisy);
    RunResult r = env.runInOrder();
    EXPECT_TRUE(r.programExited);
    EXPECT_GT(env.stats.value("bpred.cond_branches"), 700u);
    // The alternating beqz mispredicts roughly half the time.
    EXPECT_GT(env.stats.value("bpred.dir_mispredicts"), 100u);
}

TEST(InOrder, RespectsMaxInsns)
{
    TimedEnv env(R"(
main:
loop:
    addiu $t0, $t0, 1
    b loop
)");
    RunResult r = env.runInOrder(1000);
    EXPECT_EQ(r.instructions, 1000u);
    EXPECT_FALSE(r.programExited);
}

// ------------------------------------------------------------------ OoO

TEST(OoO, RunsToCompletion)
{
    TimedEnv env("main:\n li $v0, 10\n syscall\n");
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(r.instructions, 2u);
}

TEST(OoO, IndependentStreamExceedsScalarIpc)
{
    TimedEnv env(loopedIndependentAdds(200, 100));
    RunResult r = env.runOoO();
    EXPECT_GT(r.ipc(), 1.8);
    EXPECT_LE(r.ipc(), 4.0);
}

TEST(OoO, DependentChainIsSerialized)
{
    TimedEnv env(loopedDependentAdds(200, 100));
    RunResult r = env.runOoO();
    EXPECT_LE(r.ipc(), 1.1);
    EXPECT_GT(r.ipc(), 0.8);
}

TEST(OoO, EightWideBeatsFourWideOnParallelWork)
{
    TimedEnv a(loopedIndependentAdds(200, 100));
    TimedEnv b(loopedIndependentAdds(200, 100));
    RunResult r4 = a.runOoO(1000000, 4);
    RunResult r8 = b.runOoO(1000000, 8);
    EXPECT_LT(r8.cycles, r4.cycles);
}

TEST(OoO, DivsSerializeOnTheSingleUnit)
{
    std::string divs = "main:\n li $t0, 100\n li $t1, 3\n";
    for (int i = 0; i < 50; ++i)
        divs += strfmt(" div $t%d, $t0, $t1\n", 2 + (i % 6));
    divs += " li $v0, 10\n syscall\n";
    TimedEnv env(divs);
    RunResult r = env.runOoO();
    // 50 divides through one non-pipelined unit: >= 50 * 20 cycles.
    EXPECT_GT(r.cycles, 1000u);
}

TEST(OoO, IndependentMulsArePipelined)
{
    // Pipelined multiplies: much better than non-pipelined divides.
    std::string muls = "main:\n li $t0, 7\n li $t1, 3\n";
    for (int i = 0; i < 50; ++i)
        muls += strfmt(" mul $t%d, $t0, $t1\n", 2 + (i % 6));
    muls += " li $v0, 10\n syscall\n";
    TimedEnv env(muls);
    RunResult r = env.runOoO();
    EXPECT_LT(r.cycles, 300u);
}

TEST(OoO, StoreLoadSameWordObeysOrder)
{
    std::string src = R"(
main:
    la $t9, buf
    li $t0, 123
    sw $t0, 0($t9)
    lw $t1, 0($t9)
    addu $t2, $t1, $t1
    li $v0, 10
    syscall
.data
buf: .word 0
)";
    TimedEnv env(src);
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    // Functional result is exact (oracle), timing just has to finish.
    EXPECT_EQ(env.exec.state().readGpr(10), 246u);
}

TEST(OoO, SyscallSerializesButCompletes)
{
    std::string src = "main:\n";
    for (int i = 0; i < 5; ++i)
        src += " li $v0, 11\n li $a0, 65\n syscall\n";
    src += " li $v0, 10\n syscall\n";
    TimedEnv env(src);
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(env.exec.output(), "AAAAA");
}

TEST(OoO, ColdIcacheCostsMoreThanWarm)
{
    // Same code, tiny vs large I-cache.
    std::string body = loopedIndependentAdds(200, 20);
    TimedEnv small(body, CacheConfig{1024, 32, 2});
    TimedEnv big(body, CacheConfig{64 * 1024, 32, 2});
    RunResult rs = small.runOoO();
    RunResult rb = big.runOoO();
    // A pure sweep misses either way (compulsory); sizes equal here, so
    // compare against a loop that refetches instead.
    EXPECT_GE(rs.cycles, rb.cycles);
}

TEST(OoO, LoopRefetchHitsInBigCacheOnly)
{
    std::string loop = R"(
main:
    li $t0, 50
outer:
)";
    for (int i = 0; i < 600; ++i)
        loop += " addu $t1, $t2, $t3\n";
    loop += R"(
    addiu $t0, $t0, -1
    bgtz $t0, outer
    li $v0, 10
    syscall
)";
    TimedEnv small(loop, CacheConfig{1024, 32, 2});  // 600 insns > 1KB
    TimedEnv big(loop, CacheConfig{16 * 1024, 32, 2});
    RunResult rs = small.runOoO();
    RunResult rb = big.runOoO();
    EXPECT_GT(rs.cycles, rb.cycles * 3 / 2);
    EXPECT_GT(small.stats.value("icache.misses"),
              big.stats.value("icache.misses") * 10);
}

TEST(OoO, RespectsMaxInsns)
{
    TimedEnv env("main:\nloop:\n addiu $t0, $t0, 1\n b loop\n");
    RunResult r = env.runOoO(5000);
    EXPECT_GE(r.instructions, 5000u);
    EXPECT_LE(r.instructions, 5003u); // may finish the commit group
    EXPECT_FALSE(r.programExited);
}


TEST(OoO, SmallerRuuHurtsMemoryLevelParallelism)
{
    // Independent loads from distinct cold D-cache lines: a large RUU
    // overlaps the misses, a tiny one serializes them.
    std::string src = "main:\n la $t9, buf\n li $t8, 20\nloop:\n";
    for (int i = 0; i < 16; ++i)
        src += strfmt(" lw $t%d, %d($t9)\n", i % 8, i * 1024);
    src += " addiu $t8, $t8, -1\n bgtz $t8, loop\n"
           " li $v0, 10\n syscall\n.data\nbuf: .space 32768\n";

    TimedEnv big(src), small(src);
    PipelineConfig big_cfg = baseline4Issue().pipeline;
    PipelineConfig small_cfg = big_cfg;
    small_cfg.ruuSize = 4;
    small_cfg.lsqSize = 2;
    OoOPipeline pb(big_cfg, big.exec, big.fetch, big.data, big.stats);
    OoOPipeline ps(small_cfg, small.exec, small.fetch, small.data,
                   small.stats);
    RunResult rb = pb.run(100000);
    RunResult rs = ps.run(100000);
    EXPECT_LT(rb.cycles, rs.cycles);
}

TEST(OoO, LsqLimitCapsOutstandingMemOps)
{
    // A burst of stores beyond the LSQ size must still complete.
    std::string src = "main:\n la $t9, buf\n";
    for (int i = 0; i < 64; ++i)
        src += strfmt(" sw $t0, %d($t9)\n", i * 4);
    src += " li $v0, 10\n syscall\n.data\nbuf: .space 512\n";
    TimedEnv env(src);
    PipelineConfig cfg = baseline4Issue().pipeline;
    cfg.lsqSize = 4;
    OoOPipeline pipe(cfg, env.exec, env.fetch, env.data, env.stats);
    RunResult r = pipe.run(100000);
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(r.instructions, 64u + 4u);
}

TEST(OoO, FpWorkUsesFpUnits)
{
    std::string src = R"(
main:
    li $t0, 3
    mtc1 $t0, $f1
    cvt.s.w $f1, $f1
    li $t8, 50
loop:
)";
    for (int i = 0; i < 20; ++i)
        src += strfmt(" mul.s $f%d, $f1, $f1\n", 2 + (i % 6));
    src += R"(
    addiu $t8, $t8, -1
    bgtz $t8, loop
    li $v0, 10
    syscall
)";
    TimedEnv env(src);
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    // 1000 pipelined 4-cycle FP muls on one unit: >= ~1000 cycles.
    EXPECT_GT(r.cycles, 900u);
}


TEST(InOrder, TraceSinkRecordsTimeline)
{
    TimedEnv env(R"(
main:
    li $t0, 1
    addu $t1, $t0, $t0
    li $v0, 10
    syscall
)");
    std::vector<PipeTraceEntry> trace;
    PipelineConfig cfg = baseline1Issue().pipeline;
    InOrderPipeline pipe(cfg, env.exec, env.fetch, env.data, env.stats);
    pipe.setTraceSink(&trace);
    pipe.run(100);
    ASSERT_EQ(trace.size(), 4u);
    // Chronology: fetch before execute before result; program order in
    // fetch times on a 1-wide in-order machine.
    for (const PipeTraceEntry &e : trace) {
        EXPECT_LE(e.fetchDone, e.execute);
        EXPECT_LE(e.execute, e.resultAt);
    }
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GT(trace[i].fetchDone, trace[i - 1].fetchDone);
    EXPECT_EQ(trace[1].inst.op, Op::Addu);
}


TEST(OoO, TraceSinkShowsOverlap)
{
    // Two independent adds dispatch together and issue in the same
    // cycle on a 4-wide machine; the trace must show the overlap.
    TimedEnv env(R"(
main:
    addiu $t0, $zero, 1
    addiu $t1, $zero, 2
    addu $t2, $t0, $t1
    li $v0, 10
    syscall
)");
    std::vector<OooTraceEntry> trace;
    PipelineConfig cfg = baseline4Issue().pipeline;
    OoOPipeline pipe(cfg, env.exec, env.fetch, env.data, env.stats);
    pipe.setTraceSink(&trace);
    pipe.run(100);
    ASSERT_EQ(trace.size(), 5u);
    // Commit order is program order.
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].committedAt, trace[i - 1].committedAt);
    // The two independent adds issue in the same cycle.
    EXPECT_EQ(trace[0].issuedAt, trace[1].issuedAt);
    // The dependent add issues only after both produce.
    EXPECT_GE(trace[2].issuedAt, trace[0].doneAt);
    EXPECT_GE(trace[2].issuedAt, trace[1].doneAt);
    // Sanity on each record's internal ordering.
    for (const OooTraceEntry &e : trace) {
        EXPECT_LE(e.fetchedAt, e.issuedAt);
        EXPECT_LE(e.issuedAt, e.doneAt);
        EXPECT_LT(e.doneAt, e.committedAt);
    }
    EXPECT_EQ(trace[2].inst.op, Op::Addu);
}

TEST(OoO, CyclesAreDeterministic)
{
    std::string src = unrolledDependentAdds(500);
    TimedEnv a(src), b(src);
    EXPECT_EQ(a.runOoO().cycles, b.runOoO().cycles);
}

// ------------------------------------------------------- OoO cycle pins

/** Hand-built OoO kernels, each aimed at one scheduler mechanism. */
std::vector<std::pair<std::string, std::string>>
oooKernels()
{
    std::vector<std::pair<std::string, std::string>> k;

    // Dependent divides on the one non-pipelined unit, with independent
    // divides and adds that must wait for the unit, not the chain.
    std::string div = "main:\n li $t0, 100000\n li $t1, 3\n li $t8, 30\n"
                      "loop:\n";
    for (int i = 0; i < 6; ++i) {
        div += " div $t0, $t0, $t1\n";
        div += strfmt(" div $t%d, $t1, $t1\n", 2 + i % 4);
        div += strfmt(" addu $t6, $t%d, $t0\n", 2 + i % 4);
    }
    div += " addiu $t0, $t0, 99999\n addiu $t8, $t8, -1\n"
           " bgtz $t8, loop\n li $v0, 10\n syscall\n";
    k.emplace_back("div_chain", div);

    // Independent multiplies share the pipelined unit; a dependent
    // multiply chain runs beside them.
    std::string mul = "main:\n li $t0, 7\n li $t1, 3\n li $s0, 1\n"
                      " li $t8, 40\nloop:\n";
    for (int i = 0; i < 12; ++i) {
        mul += strfmt(" mul $t%d, $t0, $t1\n", 2 + i % 6);
        if (i % 3 == 0)
            mul += " mul $s0, $s0, $t1\n";
    }
    mul += " addiu $t8, $t8, -1\n bgtz $t8, loop\n li $v0, 10\n"
           " syscall\n";
    k.emplace_back("mul_pipe", mul);

    // Stores then loads to the same words: a load must wait for the
    // youngest older store to its word, not an older one or another
    // word; the stored data comes from a slow divide.
    std::string sl = "main:\n la $t9, buf\n li $t1, 3\n li $t8, 60\n"
                     "loop:\n div $t0, $t8, $t1\n";
    sl += " sw $t8, 0($t9)\n sw $t0, 0($t9)\n sw $t1, 4($t9)\n"
          " lw $t2, 0($t9)\n lw $t3, 4($t9)\n lw $t4, 8($t9)\n"
          " addu $t5, $t2, $t3\n sw $t5, 8($t9)\n lw $t6, 8($t9)\n"
          " addu $t7, $t6, $t4\n sw $t7, 12($t9)\n"
          " addiu $t9, $t9, 4\n"
          " addiu $t8, $t8, -1\n bgtz $t8, loop\n li $v0, 10\n syscall\n"
          ".data\nbuf: .space 1024\n";
    k.emplace_back("store_load", sl);

    // Data-dependent branches from an xorshift, an indirect jump
    // through a table and calls/returns: direction, target and RAS
    // mispredicts, each followed down its wrong path.
    std::string mp = R"(
main:
    li $s0, 2463534242
    li $s7, 300
    la $s6, table
loop:
    sll $t0, $s0, 13
    xor $s0, $s0, $t0
    srl $t0, $s0, 17
    xor $s0, $s0, $t0
    sll $t0, $s0, 5
    xor $s0, $s0, $t0
    andi $t1, $s0, 1
    beq $t1, $zero, skip
    addiu $s1, $s1, 1
    addiu $s2, $s2, 3
skip:
    andi $t2, $s0, 12
    addu $t3, $s6, $t2
    lw $t4, 0($t3)
    jalr $t4
    andi $t5, $s0, 64
    bne $t5, $zero, odd
    jal leaf
odd:
    addiu $s7, $s7, -1
    bgtz $s7, loop
    li $v0, 10
    syscall
f0:
    addiu $s3, $s3, 1
    jr $ra
f1:
    addiu $s3, $s3, 2
    jr $ra
f2:
    mul $s4, $s3, $s3
    jr $ra
f3:
    div $s5, $s0, $s7
    jr $ra
leaf:
    addiu $s4, $s4, 1
    jr $ra
.data
table: .word f0, f1, f2, f3
)";
    k.emplace_back("mispredict", mp);

    // Serialising syscalls between bursts of independent work.
    std::string sc = "main:\n li $t8, 40\nloop:\n";
    for (int i = 0; i < 6; ++i)
        sc += strfmt(" addiu $t%d, $t8, %d\n", i, i);
    sc += " li $v0, 11\n li $a0, 65\n syscall\n"
          " div $t6, $t8, $t0\n li $v0, 1\n move $a0, $t6\n syscall\n"
          " addiu $t8, $t8, -1\n bgtz $t8, loop\n li $v0, 10\n syscall\n";
    k.emplace_back("syscalls", sc);

    // More memory ops in flight than any LSQ holds: loads to distinct
    // cold D-cache lines and stores between them.
    std::string lsq = "main:\n la $t9, buf\n li $t8, 6\nloop:\n";
    for (int i = 0; i < 96; ++i) {
        if (i % 4 == 3)
            lsq += strfmt(" sw $t8, %d($t9)\n", i * 64);
        else
            lsq += strfmt(" lw $t%d, %d($t9)\n", i % 8, i * 64);
    }
    lsq += " addiu $t8, $t8, -1\n bgtz $t8, loop\n li $v0, 10\n"
           " syscall\n.data\nbuf: .space 8192\n";
    k.emplace_back("full_lsq", lsq);

    // FP add, multiply, divide and convert units, with an FP compare
    // feeding a branch.
    std::string fp = R"(
main:
    li $t0, 3
    mtc1 $t0, $f1
    cvt.s.w $f1, $f1
    li $t0, 7
    mtc1 $t0, $f2
    cvt.s.w $f2, $f2
    li $t8, 40
loop:
    mul.s $f3, $f1, $f2
    mul.s $f4, $f1, $f1
    div.s $f5, $f2, $f1
    add.s $f6, $f3, $f4
    sub.s $f7, $f6, $f5
    div.s $f8, $f7, $f2
    add.s $f9, $f1, $f2
    add.s $f10, $f9, $f9
    cvt.w.s $f11, $f10
    mfc1 $t1, $f11
    c.lt.s $f5, $f3
    bc1t taken
    addiu $t2, $t2, 1
taken:
    addu $t3, $t3, $t1
    addiu $t8, $t8, -1
    bgtz $t8, loop
    li $v0, 10
    syscall
)";
    k.emplace_back("fp_units", fp);
    return k;
}

/** Machines the kernels run on: Table 2's two OoO cores plus two
 *  RUU sizes that are not powers of two. */
std::vector<std::pair<std::string, MachineConfig>>
oooPinMachines()
{
    std::vector<std::pair<std::string, MachineConfig>> m;
    m.emplace_back("4issue", baseline4Issue());
    m.emplace_back("8issue", baseline8Issue());
    MachineConfig tiny = baseline4Issue();
    tiny.pipeline.ruuSize = 6;
    tiny.pipeline.lsqSize = 4;
    m.emplace_back("ruu6", tiny);
    MachineConfig mid = baseline4Issue();
    mid.pipeline.ruuSize = 48;
    mid.pipeline.lsqSize = 24;
    m.emplace_back("ruu48", mid);
    return m;
}

/** FNV-1a-64 of an OoO trace, every timing field of every entry. */
std::string
traceHash(const std::vector<OooTraceEntry> &trace)
{
    std::string text;
    for (const OooTraceEntry &e : trace) {
        text += strfmt("%x %x %llu %llu %llu %llu\n", e.pc, e.inst.raw,
                       static_cast<unsigned long long>(e.fetchedAt),
                       static_cast<unsigned long long>(e.issuedAt),
                       static_cast<unsigned long long>(e.doneAt),
                       static_cast<unsigned long long>(e.committedAt));
    }
    return ArtifactCache::keyHash(text);
}

/** FNV-1a-64 of every counter a run left in @p stats. */
std::string
statsHash(const StatSet &stats)
{
    std::string text;
    for (const auto &[name, value] : stats.snapshot())
        text += name + "=" + std::to_string(value) + "\n";
    return ArtifactCache::keyHash(text);
}

/**
 * The lines of tests/golden/ooo_cycles.txt. Kernels:
 * "kernel <name> <machine> <cycles> <retired> <trace fnv1a64>";
 * profiles: "profile <name> <machine> <model> <cycles> <retired>
 * <stats fnv1a64>" at 200k instructions.
 */
std::string
oooCyclePins()
{
    std::string out;
    for (const auto &[kname, src] : oooKernels()) {
        for (const auto &[mname, mc] : oooPinMachines()) {
            TimedEnv env(src, mc.icache);
            std::vector<OooTraceEntry> trace;
            OoOPipeline pipe(mc.pipeline, env.exec, env.fetch, env.data,
                             env.stats);
            pipe.setTraceSink(&trace);
            RunResult r = pipe.run(100000);
            out += strfmt("kernel %s %s %llu %llu %s\n", kname.c_str(),
                          mname.c_str(),
                          static_cast<unsigned long long>(r.cycles),
                          static_cast<unsigned long long>(r.instructions),
                          traceHash(trace).c_str());
        }
    }
    for (const BenchmarkProfile &p : standardProfiles()) {
        Program prog = generateProgram(p);
        codepack::CompressedImage img = codepack::compress(prog);
        for (const auto &[mname, mc] : oooPinMachines()) {
            if (mname != "4issue" && mname != "8issue")
                continue;
            for (CodeModel model : {CodeModel::Native, CodeModel::CodePack}) {
                Machine m(prog, mc.withCodeModel(model), &img);
                RunResult r = m.run(200000);
                out += strfmt(
                    "profile %s %s %s %llu %llu %s\n", p.name.c_str(),
                    mname.c_str(),
                    model == CodeModel::Native ? "native" : "codepack",
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.instructions),
                    statsHash(m.stats()).c_str());
            }
        }
    }
    return out;
}

TEST(OooGolden, CyclesMatchPins)
{
    // The committed pins were generated before any scheduler change; a
    // mismatch means simulated OoO timing moved. If that is intended,
    // replace the file with the regenerated lines printed below.
    std::ifstream in(CPS_GOLDEN_DIR "/ooo_cycles.txt");
    ASSERT_TRUE(in) << "missing " CPS_GOLDEN_DIR "/ooo_cycles.txt";
    std::string want, line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            want += line + "\n";
    const std::string got = oooCyclePins();
    EXPECT_EQ(got, want) << "regenerated pins:\n" << got;
}

} // namespace
} // namespace cps
