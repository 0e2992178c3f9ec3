/**
 * @file
 * Parallel experiment engine tests: runMatrixCells must return outcomes in
 * submission order and bit-identically to the serial path no matter how
 * many workers execute the runs — that is the contract that lets every
 * table binary fan out across cores and still print byte-identical
 * output. Also covers the Matrix cursor helper and the thread-safe
 * Suite accessors the engine leans on.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/engine.hh"

namespace cps
{
namespace
{

constexpr u64 kInsns = 20000;

std::vector<harness::RunRequest>
smallMatrix()
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    std::vector<harness::RunRequest> reqs;
    for (const char *name : {"pegwit", "go"}) {
        const BenchProgram &bench = suite.get(name);
        for (CodeModel model : {CodeModel::Native, CodeModel::CodePack,
                                CodeModel::CodePackOptimized}) {
            reqs.push_back(
                {&bench, baseline4Issue().withCodeModel(model), kInsns});
        }
    }
    return reqs;
}

void
expectSameOutcomes(const std::vector<harness::CellOutcome> &cells_a,
                   const std::vector<harness::CellOutcome> &cells_b)
{
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (size_t i = 0; i < cells_a.size(); ++i) {
        ASSERT_TRUE(cells_a[i].status.ok()) << "slot " << i;
        ASSERT_TRUE(cells_b[i].status.ok()) << "slot " << i;
        const RunOutcome &a = cells_a[i].outcome;
        const RunOutcome &b = cells_b[i].outcome;
        EXPECT_EQ(a.result.cycles, b.result.cycles) << "slot " << i;
        EXPECT_EQ(a.result.instructions, b.result.instructions);
        EXPECT_EQ(a.result.programExited, b.result.programExited);
        EXPECT_EQ(a.icacheMisses, b.icacheMisses) << "slot " << i;
        EXPECT_EQ(a.bufferHits, b.bufferHits) << "slot " << i;
        EXPECT_EQ(a.missLatencyTotal, b.missLatencyTotal);
        EXPECT_DOUBLE_EQ(a.icacheMissRate, b.icacheMissRate);
        EXPECT_DOUBLE_EQ(a.indexCacheMissRate, b.indexCacheMissRate);
    }
}

TEST(RunMatrix, ParallelOutcomesMatchSerialExactly)
{
    std::vector<harness::RunRequest> reqs = smallMatrix();
    expectSameOutcomes(harness::runMatrixCells(reqs, 1),
                       harness::runMatrixCells(reqs, 8));
}

TEST(RunMatrix, RepeatedParallelRunsAreDeterministic)
{
    std::vector<harness::RunRequest> reqs = smallMatrix();
    expectSameOutcomes(harness::runMatrixCells(reqs, 8),
                       harness::runMatrixCells(reqs, 8));
}

TEST(RunMatrix, RendersByteIdenticalTables)
{
    std::vector<harness::RunRequest> reqs = smallMatrix();
    auto render = [&](unsigned threads) {
        std::vector<harness::CellOutcome> cells =
            harness::runMatrixCells(reqs, threads);
        TextTable t;
        t.addHeader({"Slot", "Cycles", "IPC", "Miss rate"});
        for (size_t i = 0; i < cells.size(); ++i) {
            const RunOutcome &out = cells[i].outcome;
            t.addRow({std::to_string(i), std::to_string(out.result.cycles),
                      TextTable::fmt(out.result.ipc(), 3),
                      TextTable::pct(out.icacheMissRate)});
        }
        return t.render();
    };
    EXPECT_EQ(render(1), render(8));
}

TEST(RunMatrix, EmptyMatrixIsFine)
{
    std::vector<harness::RunRequest> reqs;
    EXPECT_TRUE(harness::runMatrixCells(reqs, 4).empty());
}

TEST(MatrixHelper, CursorHandsBackSubmissionOrder)
{
    Suite &suite = Suite::instance();
    const BenchProgram &bench = suite.get("pegwit");
    harness::Matrix m;
    size_t s0 = m.add(bench, baseline4Issue(), kInsns);
    size_t s1 = m.add(
        bench, baseline4Issue().withCodeModel(CodeModel::CodePack), kInsns);
    EXPECT_EQ(s0, 0u);
    EXPECT_EQ(s1, 1u);
    EXPECT_EQ(m.size(), 2u);
    m.run();

    const RunOutcome &native = m.next();
    const RunOutcome &cp = m.next();
    EXPECT_EQ(native.result.cycles, m.outcome(0).result.cycles);
    EXPECT_EQ(cp.result.cycles, m.outcome(1).result.cycles);
    // CodePack never beats native on the same machine (paper Table 5).
    EXPECT_GE(cp.result.cycles, native.result.cycles);
}

TEST(SuiteThreading, ConcurrentGetReturnsOneInstance)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    const std::vector<std::string> &names = suite.names();
    std::vector<const BenchProgram *> seen(names.size() * 8, nullptr);
    {
        ThreadPool pool(8);
        pool.parallelFor(seen.size(), [&](size_t i) {
            seen[i] = &suite.get(names[i % names.size()]);
        });
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], &suite.get(names[i % names.size()]))
            << "get() must hand out one stable BenchProgram per name";
}

} // namespace
} // namespace cps
