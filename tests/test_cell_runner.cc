/**
 * @file
 * Resilient-harness contract tests: the crash-isolated cell runner must
 * survive every way a worker can die — SIGKILL mid-cell, a hang past
 * the deadline, a garbled result frame, a plain nonzero exit — and
 * report each as a structured CellStatus while neighbouring healthy
 * cells produce results identical to an inline run. Also covers the
 * CRC'd IPC framing both streams ride on, the result-envelope
 * serialization, the retry/backoff loop, the deterministic progress
 * watchdog, the cell/matrix cache keys, and the checkpoint/resume
 * journal (including torn tails and stale cell keys).
 */

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/byteio.hh"
#include "common/ipc_frame.hh"
#include "common/watchdog.hh"
#include "harness/engine.hh"
#include "harness/journal.hh"

using namespace cps;
using harness::CellFault;
using harness::CellOutcome;
using harness::CellRunner;
using harness::CellRunnerConfig;
using harness::CellState;
using harness::RunRequest;

namespace
{

// The matrix-level tests below drive runMatrixCells through the
// process-wide env policy; set it before main() so the cached
// CellRunnerConfig::fromEnv sees isolation + a finite deadline. The
// deadline doubles as the hang-detection latency and the budget a
// healthy worker gets, so it must stay far above a 20k-insn cell's
// runtime even on an oversubscribed sanitizer host.
const bool kEnvReady = [] {
    ::setenv("CPS_ISOLATE", "1", 1);
    ::setenv("CPS_CELL_TIMEOUT_MS", "20000", 1);
    ::setenv("CPS_CELL_RETRIES", "1", 1);
    ::setenv("CPS_CELL_BACKOFF_MS", "1", 1);
    return true;
}();

constexpr u64 kInsns = 20000;

/** A fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path("cell_runner_test_" + name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

RunRequest
benchRequest(const char *name = "pegwit",
             CellFault fault = CellFault::None)
{
    Suite &suite = Suite::instance();
    RunRequest req;
    req.bench = &suite.get(name);
    req.cfg = baseline4Issue();
    req.maxInsns = kInsns;
    req.injectFault = fault;
    return req;
}

/** A runner that forks workers, with a deadline tests can wait out. */
CellRunnerConfig
isolatedConfig(long timeout_ms = 20000, unsigned retries = 0)
{
    CellRunnerConfig cfg;
    cfg.isolate = true;
    cfg.timeoutMs = timeout_ms;
    cfg.retries = retries;
    cfg.backoffMs = 1;
    return cfg;
}

void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.programExited, b.result.programExited);
    EXPECT_EQ(a.result.status, b.result.status);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.bufferHits, b.bufferHits);
    EXPECT_EQ(a.missLatencyTotal, b.missLatencyTotal);
    EXPECT_DOUBLE_EQ(a.icacheMissRate, b.icacheMissRate);
    EXPECT_DOUBLE_EQ(a.indexCacheMissRate, b.indexCacheMissRate);
}

// ---------------------------------------------------------- IPC frames

TEST(IpcFrame, EncodeDecodeRoundtripsConsecutiveFrames)
{
    std::vector<u8> stream;
    for (u32 type = 1; type <= 3; ++type) {
        std::vector<u8> payload(type * 10, static_cast<u8>(type));
        std::vector<u8> frame = encodeFrame(type, payload);
        stream.insert(stream.end(), frame.begin(), frame.end());
    }

    size_t pos = 0;
    IpcFrame frame;
    for (u32 type = 1; type <= 3; ++type) {
        ASSERT_EQ(decodeFrameAt(stream, pos, frame), FrameReadStatus::Ok);
        EXPECT_EQ(frame.type, type);
        EXPECT_EQ(frame.payload.size(), size_t{type} * 10);
    }
    EXPECT_EQ(decodeFrameAt(stream, pos, frame), FrameReadStatus::Eof);
}

TEST(IpcFrame, TruncatedTailReportsTornNotEof)
{
    std::vector<u8> stream = encodeFrame(7, {1, 2, 3, 4});
    stream.resize(stream.size() - 3); // writer died mid-append
    size_t pos = 0;
    IpcFrame frame;
    EXPECT_EQ(decodeFrameAt(stream, pos, frame), FrameReadStatus::Torn);
    EXPECT_EQ(pos, 0u); // left at the damaged frame's start
}

TEST(IpcFrame, FlippedByteFailsCrc)
{
    std::vector<u8> stream = encodeFrame(7, {1, 2, 3, 4});
    stream[stream.size() / 2] ^= 0x40;
    size_t pos = 0;
    IpcFrame frame;
    EXPECT_EQ(decodeFrameAt(stream, pos, frame), FrameReadStatus::Torn);
}

TEST(IpcFrame, PipeRoundtripAndTimeout)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    std::vector<u8> payload(100, 0x5A);
    ASSERT_TRUE(writeFrame(fds[1], 9, payload));

    IpcFrame frame;
    ASSERT_EQ(readFrame(fds[0], frame, 1000), FrameReadStatus::Ok);
    EXPECT_EQ(frame.type, 9u);
    EXPECT_EQ(frame.payload, payload);

    // Nothing left in the pipe: a short deadline must expire cleanly.
    EXPECT_EQ(readFrame(fds[0], frame, 50), FrameReadStatus::Timeout);

    ::close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], frame, 50), FrameReadStatus::Eof);
    ::close(fds[0]);
}

TEST(IpcFrame, WriterDeadMidFrameIsTorn)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<u8> frame = encodeFrame(9, std::vector<u8>(64, 1));
    // Half a frame, then the writer "dies" (fd closes).
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size() / 2),
              static_cast<ssize_t>(frame.size() / 2));
    ::close(fds[1]);
    IpcFrame out;
    EXPECT_EQ(readFrame(fds[0], out, 1000), FrameReadStatus::Torn);
    ::close(fds[0]);
}

// ----------------------------------------------------- result envelope

TEST(RunOutcomeEnvelope, RoundtripPreservesEveryField)
{
    RunOutcome out;
    out.result.instructions = 123456;
    out.result.cycles = 7890123;
    out.result.programExited = true;
    out.result.status = RunStatus::Stalled;
    out.result.statusDetail = "no retirement for 4 checks";
    out.icacheMissRate = 0.0625;
    out.indexCacheMissRate = 0.125;
    out.icacheMisses = 4242;
    out.bufferHits = 99;
    out.missLatencyTotal = 1000000;

    Result<RunOutcome> back =
        harness::decodeRunOutcomeChecked(harness::encodeRunOutcome(out));
    ASSERT_TRUE(back.ok()) << back.error().describe();
    expectSameOutcome(*back, out);
    EXPECT_EQ(back->result.statusDetail, out.result.statusDetail);
}

TEST(RunOutcomeEnvelope, RejectsBadVersionAndTruncation)
{
    RunOutcome out;
    out.result.instructions = 1;
    std::vector<u8> bytes = harness::encodeRunOutcome(out);

    std::vector<u8> bad_version = bytes;
    bad_version[0] = 99;
    EXPECT_FALSE(harness::decodeRunOutcomeChecked(bad_version).ok());

    std::vector<u8> truncated(bytes.begin(), bytes.end() - 5);
    EXPECT_FALSE(harness::decodeRunOutcomeChecked(truncated).ok());

    std::vector<u8> oversized = bytes;
    oversized.push_back(0);
    EXPECT_FALSE(harness::decodeRunOutcomeChecked(oversized).ok());
}

// --------------------------------------------------- progress watchdog

TEST(Watchdog, NeverTripsWhileProgressing)
{
    ProgressWatchdog dog(10, 2);
    u64 progress = 0;
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(dog.tick(++progress));
}

TEST(Watchdog, TripsAfterConsecutiveStalledChecks)
{
    ProgressWatchdog dog(10, 3);
    ASSERT_FALSE(dog.tick(5)); // iteration 1: below interval
    bool tripped = false;
    // The first check records the counter; the next 3 stalled checks
    // (10 iterations each) must trip it.
    for (int i = 0; i < 10 * 4; ++i)
        tripped = dog.tick(5) || tripped;
    EXPECT_TRUE(tripped);
    EXPECT_EQ(dog.stalledChecks(), 3u);
}

TEST(Watchdog, ProgressResetsTheStallCount)
{
    ProgressWatchdog dog(1, 3); // every tick is a check
    EXPECT_FALSE(dog.tick(1));
    EXPECT_FALSE(dog.tick(1)); // stalled check 1
    EXPECT_FALSE(dog.tick(1)); // stalled check 2
    EXPECT_FALSE(dog.tick(2)); // progress: count resets
    EXPECT_FALSE(dog.tick(2));
    EXPECT_FALSE(dog.tick(2));
    EXPECT_TRUE(dog.tick(2)); // stalled check 3
}

TEST(Watchdog, ZeroLimitDisables)
{
    ProgressWatchdog dog(1, 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(dog.tick(0));
}

TEST(Watchdog, CounterWraparoundRegistersAsProgress)
{
    // A progress counter crossing the u64 wrap (…, ~0-1, ~0, 0, 1, …)
    // changes on every check; the watchdog must see progress, not a
    // phantom stall, anywhere along the way.
    ProgressWatchdog dog(1, 1); // hair trigger: one stalled check trips
    u64 p = ~u64{0} - 2;
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(dog.tick(p + static_cast<u64>(i)))
            << "tripped at step " << i;
    EXPECT_EQ(dog.stalledChecks(), 0u);
}

TEST(Watchdog, EveryStuckValueTripsAtTheSameCheckCount)
{
    // ~0 was once the "no previous reading" sentinel; a counter stuck
    // there must trip after exactly first-check + stall_limit checks
    // like any other stuck value, not one check early.
    for (u64 stuck : {u64{0}, u64{5}, ~u64{0}}) {
        ProgressWatchdog dog(1, 2);
        EXPECT_FALSE(dog.tick(stuck)); // first check: progress
        EXPECT_FALSE(dog.tick(stuck)); // stalled check 1
        EXPECT_TRUE(dog.tick(stuck))   // stalled check 2: trips
            << "stuck value " << stuck;
    }
}

// ------------------------------------------------------------ keys

TEST(CellKey, SensitiveToEveryRunParameter)
{
    RunRequest base = benchRequest();
    const std::string key = harness::cellKey(base);

    RunRequest insns = base;
    insns.maxInsns += 1;
    EXPECT_NE(harness::cellKey(insns), key);

    RunRequest cache = base;
    cache.cfg.icache.sizeBytes *= 2;
    EXPECT_NE(harness::cellKey(cache), key);

    RunRequest model = base;
    model.cfg.codeModel = CodeModel::CodePack;
    EXPECT_NE(harness::cellKey(model), key);

    RunRequest dog = base;
    dog.cfg.pipeline.watchdogStallLimit += 1;
    EXPECT_NE(harness::cellKey(dog), key);

    RunRequest bench = base;
    bench.bench = &Suite::instance().get("go");
    EXPECT_NE(harness::cellKey(bench), key);

    // The injected fault is test machinery, not a simulation input.
    RunRequest faulted = base;
    faulted.injectFault = CellFault::Crash;
    EXPECT_EQ(harness::cellKey(faulted), key);
}

TEST(MatrixKey, SensitiveToCellOrderAndCount)
{
    RunRequest a = benchRequest("pegwit");
    RunRequest b = benchRequest("go");
    const std::string ab = harness::matrixKey({a, b});
    EXPECT_NE(harness::matrixKey({b, a}), ab);
    EXPECT_NE(harness::matrixKey({a}), ab);
    EXPECT_EQ(harness::matrixKey({a, b}), ab);
}

// ------------------------------------------------- isolated execution

TEST(CellRunner, IsolatedResultMatchesInlineExactly)
{
    RunRequest req = benchRequest();
    CellOutcome inline_out = CellRunner(CellRunnerConfig{}).run(req);
    CellOutcome iso_out = CellRunner(isolatedConfig()).run(req);
    ASSERT_TRUE(inline_out.status.ok());
    ASSERT_TRUE(iso_out.status.ok())
        << iso_out.status.describe();
    EXPECT_EQ(iso_out.status.attempts, 1u);
    expectSameOutcome(iso_out.outcome, inline_out.outcome);
}

TEST(CellRunner, SigkilledWorkerIsReportedAsCrash)
{
    // kill -9 mid-cell: the canonical "OOM killer took the worker".
    RunRequest req = benchRequest("pegwit", CellFault::KillSelf);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::Crashed);
    EXPECT_EQ(out.status.termSignal, SIGKILL);
    EXPECT_EQ(harness::failLabel(out.status), "FAILED(sig=9)");
}

TEST(CellRunner, AbortingWorkerIsReportedAsCrash)
{
    RunRequest req = benchRequest("pegwit", CellFault::Crash);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::Crashed);
    EXPECT_EQ(out.status.termSignal, SIGABRT);
}

TEST(CellRunner, HangingWorkerTripsTheDeadline)
{
    RunRequest req = benchRequest("pegwit", CellFault::Hang);
    CellOutcome out = CellRunner(isolatedConfig(300)).run(req);
    EXPECT_EQ(out.status.state, CellState::Timeout);
    EXPECT_EQ(harness::failLabel(out.status), "FAILED(timeout)");
}

TEST(CellRunner, WorkerDiesWithItsParent)
{
    // A runner process killed mid-cell (kill -9 on a daemon) must not
    // leave its worker behind. The worker inherits the write end of
    // the pipe below, so the pipe reaches EOF only once it is gone.
    RunRequest req = benchRequest("pegwit", CellFault::Hang);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    pid_t runner = ::fork();
    ASSERT_GE(runner, 0);
    if (runner == 0) {
        ::close(fds[0]);
        CellRunner(isolatedConfig(60000)).run(req);
        ::_exit(0);
    }
    ::close(fds[1]);
    // Wait for the runner to fork its (hanging) worker.
    const std::string children = "/proc/" + std::to_string(runner) +
                                 "/task/" + std::to_string(runner) +
                                 "/children";
    pid_t worker = 0;
    for (int i = 0; i < 1000 && worker == 0; ++i) {
        std::ifstream(children) >> worker;
        if (worker == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(runner, SIGKILL);
    ::waitpid(runner, nullptr, 0);
    ASSERT_NE(worker, 0) << "runner never forked its worker";

    pollfd pfd{fds[0], POLLIN, 0};
    bool eof = ::poll(&pfd, 1, 10000) == 1;
    ::close(fds[0]);
    if (!eof)
        ::kill(worker, SIGKILL); // do not leak it past a failure
    EXPECT_TRUE(eof) << "worker " << worker << " outlived its parent";
}

TEST(CellRunner, SlowWorkerInsideTheDeadlineIsNotATimeout)
{
    // A worker that delivers late-but-in-time must produce a result
    // byte-identical to a prompt one: the deadline is a cliff at
    // CPS_CELL_TIMEOUT_MS, not a gradual penalty.
    CellOutcome baseline =
        CellRunner(CellRunnerConfig{}).run(benchRequest());

    RunRequest req = benchRequest("pegwit", CellFault::SlowResult);
    req.faultDelayMs = 100;
    CellOutcome out = CellRunner(isolatedConfig(20000)).run(req);
    ASSERT_TRUE(out.status.ok()) << out.status.describe();
    EXPECT_EQ(out.status.attempts, 1u);
    expectSameOutcome(out.outcome, baseline.outcome);
}

TEST(CellRunner, DeadlineTripsAtTheConfiguredBoundNotTheWorkerPace)
{
    // The worker sleeps far past the deadline; the runner must kill it
    // at the configured bound instead of waiting out the sleep, and
    // the diagnosis must name the exact CPS_CELL_TIMEOUT_MS value.
    constexpr long kTimeoutMs = 300;
    RunRequest req = benchRequest("pegwit", CellFault::SlowResult);
    req.faultDelayMs = 10000;
    auto start = std::chrono::steady_clock::now();
    CellOutcome out = CellRunner(isolatedConfig(kTimeoutMs)).run(req);
    long elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(out.status.state, CellState::Timeout);
    EXPECT_NE(out.status.detail.find("within 300 ms"),
              std::string::npos)
        << out.status.detail;
    // Generous upper bound (slow CI hosts) that still proves the
    // runner gave up at ~kTimeoutMs rather than at faultDelayMs.
    EXPECT_LT(elapsed_ms, 5000);
}

TEST(CellRunner, GarbledResultFrameIsAProtocolError)
{
    RunRequest req = benchRequest("pegwit", CellFault::Garble);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::ProtocolError);
}

TEST(CellRunner, NonzeroExitIsReportedWithItsCode)
{
    RunRequest req = benchRequest("pegwit", CellFault::ExitNonzero);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::ExitedError);
    EXPECT_EQ(out.status.exitCode, 3);
    EXPECT_EQ(harness::failLabel(out.status), "FAILED(exit=3)");
}

TEST(CellRunner, TransientCrashRecoversOnRetry)
{
    RunRequest healthy = benchRequest();
    CellOutcome baseline = CellRunner(CellRunnerConfig{}).run(healthy);
    ASSERT_TRUE(baseline.status.ok());

    RunRequest req = benchRequest("pegwit", CellFault::CrashOnce);
    CellOutcome out =
        CellRunner(isolatedConfig(20000, /*retries=*/1)).run(req);
    ASSERT_TRUE(out.status.ok()) << out.status.describe();
    EXPECT_EQ(out.status.attempts, 2u);
    expectSameOutcome(out.outcome, baseline.outcome);
}

TEST(CellRunner, ExhaustedRetriesKeepTheFinalFailure)
{
    RunRequest req = benchRequest("pegwit", CellFault::Crash);
    CellOutcome out =
        CellRunner(isolatedConfig(20000, /*retries=*/1)).run(req);
    EXPECT_EQ(out.status.state, CellState::Crashed);
    EXPECT_EQ(out.status.attempts, 2u);
}

// --------------------------------------- matrix-level fault containment

TEST(MatrixResilience, FaultyCellsDegradeToPlaceholdersOthersSurvive)
{
    ASSERT_TRUE(kEnvReady); // CPS_ISOLATE=1 et al. for fromEnv()
    Suite &suite = Suite::instance();
    suite.pregenerate();

    // A healthy baseline for the cells the faults must not disturb.
    harness::Matrix healthy;
    healthy.add(benchRequest("pegwit"));
    healthy.add(benchRequest("go"));
    healthy.run(2);
    ASSERT_TRUE(healthy.cell(0).status.ok());
    ASSERT_TRUE(healthy.cell(1).status.ok());

    // The acceptance matrix: a crashing cell and a hanging cell
    // surrounded by healthy ones, run in parallel under isolation.
    harness::Matrix m;
    m.add(benchRequest("pegwit"));
    m.add(benchRequest("pegwit", CellFault::Crash));
    m.add(benchRequest("go"));
    m.add(benchRequest("go", CellFault::Hang));
    m.run(4);

    EXPECT_TRUE(m.cell(0).status.ok());
    EXPECT_EQ(m.cell(1).status.state, CellState::Crashed);
    EXPECT_TRUE(m.cell(2).status.ok());
    EXPECT_EQ(m.cell(3).status.state, CellState::Timeout);

    // Retried per CPS_CELL_RETRIES=1 before giving up.
    EXPECT_EQ(m.cell(1).status.attempts, 2u);
    EXPECT_EQ(m.cell(3).status.attempts, 2u);

    // Healthy cells are bit-identical to the fault-free matrix.
    expectSameOutcome(m.cell(0).outcome, healthy.cell(0).outcome);
    expectSameOutcome(m.cell(2).outcome, healthy.cell(1).outcome);

    // Degraded-table rendering and the failure exit summary.
    auto fmt = [](const RunOutcome &o) {
        return std::to_string(o.result.cycles);
    };
    EXPECT_EQ(m.fmtNext(fmt),
              std::to_string(m.cell(0).outcome.result.cycles));
    EXPECT_EQ(m.fmtNext(fmt), "FAILED(sig=6)");
    EXPECT_EQ(m.fmtNext(fmt),
              std::to_string(m.cell(2).outcome.result.cycles));
    EXPECT_EQ(m.fmtNext(fmt), "FAILED(timeout)");
    EXPECT_EQ(m.failedCount(), 2u);
    EXPECT_EQ(m.exitSummary(), 1);

    // fmtCells degrades pairwise metrics the same way.
    EXPECT_EQ(harness::fmtCells(m.cell(0), m.cell(1),
                                [](const RunOutcome &,
                                   const RunOutcome &) {
                                    return std::string("1.0");
                                }),
              "FAILED(sig=6)");
}

// ------------------------------------------------------ resume journal

TEST(MatrixJournal, AppendThenLoadRoundtrips)
{
    ScratchDir dir("journal_roundtrip");
    std::vector<RunRequest> reqs{benchRequest("pegwit"),
                                 benchRequest("go")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome done = CellRunner(CellRunnerConfig{}).run(reqs[1]);
    ASSERT_TRUE(done.status.ok());

    harness::MatrixJournal journal(dir.path, key, reqs.size());
    journal.append(1, harness::cellKey(reqs[1]), done.outcome);

    harness::MatrixJournal reopened(dir.path, key, reqs.size());
    std::vector<std::optional<RunOutcome>> loaded = reopened.load(reqs);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_FALSE(loaded[0].has_value());
    ASSERT_TRUE(loaded[1].has_value());
    expectSameOutcome(*loaded[1], done.outcome);
}

TEST(MatrixJournal, StaleCellKeyIsDroppedNotTrusted)
{
    ScratchDir dir("journal_stale");
    std::vector<RunRequest> reqs{benchRequest("pegwit")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome done = CellRunner(CellRunnerConfig{}).run(reqs[0]);
    ASSERT_TRUE(done.status.ok());

    harness::MatrixJournal journal(dir.path, key, reqs.size());
    journal.append(0, harness::cellKey(reqs[0]), done.outcome);

    // The same journal file read back for a changed cell: the record's
    // cell-key hash no longer matches, so it must re-execute.
    std::vector<RunRequest> changed = reqs;
    changed[0].maxInsns += 1;
    std::vector<std::optional<RunOutcome>> loaded =
        harness::MatrixJournal(dir.path, key, reqs.size()).load(changed);
    EXPECT_FALSE(loaded[0].has_value());
}

TEST(MatrixJournal, WrongMatrixKeyLoadsNothing)
{
    ScratchDir dir("journal_wrongkey");
    std::vector<RunRequest> reqs{benchRequest("pegwit")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome done = CellRunner(CellRunnerConfig{}).run(reqs[0]);
    ASSERT_TRUE(done.status.ok());

    harness::MatrixJournal journal(dir.path, key, reqs.size());
    journal.append(0, harness::cellKey(reqs[0]), done.outcome);

    // Forge a journal whose file name matches a different matrix but
    // whose header key does not: the header check must reject it.
    harness::MatrixJournal other(dir.path, key + "X", reqs.size());
    auto bytes = readFileBytes(journal.path());
    ASSERT_TRUE(bytes.has_value());
    ASSERT_TRUE(writeFileBytes(other.path(), *bytes));
    std::vector<std::optional<RunOutcome>> loaded = other.load(reqs);
    EXPECT_FALSE(loaded[0].has_value());
}

TEST(MatrixJournal, TornTailKeepsEveryRecordBeforeIt)
{
    ScratchDir dir("journal_torn");
    std::vector<RunRequest> reqs{benchRequest("pegwit"),
                                 benchRequest("go")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome first = CellRunner(CellRunnerConfig{}).run(reqs[0]);
    CellOutcome second = CellRunner(CellRunnerConfig{}).run(reqs[1]);
    ASSERT_TRUE(first.status.ok());
    ASSERT_TRUE(second.status.ok());

    harness::MatrixJournal journal(dir.path, key, reqs.size());
    journal.append(0, harness::cellKey(reqs[0]), first.outcome);
    journal.append(1, harness::cellKey(reqs[1]), second.outcome);

    // Kill the appender mid-record: chop bytes off the tail.
    auto bytes = readFileBytes(journal.path());
    ASSERT_TRUE(bytes.has_value());
    bytes->resize(bytes->size() - 7);
    ASSERT_TRUE(writeFileBytes(journal.path(), *bytes));

    std::vector<std::optional<RunOutcome>> loaded =
        harness::MatrixJournal(dir.path, key, reqs.size()).load(reqs);
    ASSERT_TRUE(loaded[0].has_value()); // intact record survives
    expectSameOutcome(*loaded[0], first.outcome);
    EXPECT_FALSE(loaded[1].has_value()); // torn record re-executes
}

TEST(MatrixJournal, MissingFileLoadsNothing)
{
    ScratchDir dir("journal_missing");
    std::vector<RunRequest> reqs{benchRequest("pegwit")};
    harness::MatrixJournal journal(dir.path, harness::matrixKey(reqs),
                                   reqs.size());
    std::vector<std::optional<RunOutcome>> loaded = journal.load(reqs);
    EXPECT_FALSE(loaded[0].has_value());
}

TEST(MatrixJournal, CompactShrinksDuplicatesAndKeepsEveryCell)
{
    ScratchDir dir("journal_compact");
    std::vector<RunRequest> reqs{benchRequest("pegwit"),
                                 benchRequest("go")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome first = CellRunner(CellRunnerConfig{}).run(reqs[0]);
    CellOutcome second = CellRunner(CellRunnerConfig{}).run(reqs[1]);
    ASSERT_TRUE(first.status.ok());
    ASSERT_TRUE(second.status.ok());

    // A daemon serving the same matrix repeatedly appends the same
    // records over and over; compaction must collapse the file to its
    // minimal closed form without losing a cell.
    harness::MatrixJournal journal(dir.path, key, reqs.size());
    for (int round = 0; round < 5; ++round) {
        journal.append(0, harness::cellKey(reqs[0]), first.outcome);
        journal.append(1, harness::cellKey(reqs[1]), second.outcome);
    }
    auto bloated = std::filesystem::file_size(journal.path());
    ASSERT_TRUE(journal.compact(reqs));
    EXPECT_TRUE(journal.complete());
    auto compacted = std::filesystem::file_size(journal.path());
    EXPECT_LT(compacted, bloated);

    std::vector<std::optional<RunOutcome>> loaded =
        harness::MatrixJournal(dir.path, key, reqs.size()).load(reqs);
    ASSERT_TRUE(loaded[0].has_value());
    ASSERT_TRUE(loaded[1].has_value());
    expectSameOutcome(*loaded[0], first.outcome);
    expectSameOutcome(*loaded[1], second.outcome);
}

TEST(MatrixJournal, CompactedJournalSuppressesFurtherAppends)
{
    ScratchDir dir("journal_tombstone");
    std::vector<RunRequest> reqs{benchRequest("pegwit")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome done = CellRunner(CellRunnerConfig{}).run(reqs[0]);
    ASSERT_TRUE(done.status.ok());

    harness::MatrixJournal journal(dir.path, key, reqs.size());
    journal.append(0, harness::cellKey(reqs[0]), done.outcome);
    ASSERT_TRUE(journal.compact(reqs));
    auto closed = std::filesystem::file_size(journal.path());

    // Appends after the tombstone are no-ops, both on the handle that
    // compacted and on a fresh handle that merely observes the
    // tombstone on disk.
    journal.append(0, harness::cellKey(reqs[0]), done.outcome);
    harness::MatrixJournal reopened(dir.path, key, reqs.size());
    EXPECT_TRUE(reopened.complete());
    reopened.append(0, harness::cellKey(reqs[0]), done.outcome);
    EXPECT_EQ(std::filesystem::file_size(journal.path()), closed);

    std::vector<std::optional<RunOutcome>> loaded =
        reopened.load(reqs);
    ASSERT_TRUE(loaded[0].has_value());
    expectSameOutcome(*loaded[0], done.outcome);
}

TEST(MatrixJournal, CompactRefusesAnIncompleteMatrix)
{
    ScratchDir dir("journal_incomplete");
    std::vector<RunRequest> reqs{benchRequest("pegwit"),
                                 benchRequest("go")};
    const std::string key = harness::matrixKey(reqs);

    CellOutcome done = CellRunner(CellRunnerConfig{}).run(reqs[0]);
    ASSERT_TRUE(done.status.ok());

    harness::MatrixJournal journal(dir.path, key, reqs.size());
    journal.append(0, harness::cellKey(reqs[0]), done.outcome);
    EXPECT_FALSE(journal.compact(reqs)); // cell 1 still missing
    EXPECT_FALSE(journal.complete());

    // The half-done journal still loads what it has.
    std::vector<std::optional<RunOutcome>> loaded = journal.load(reqs);
    EXPECT_TRUE(loaded[0].has_value());
    EXPECT_FALSE(loaded[1].has_value());
}

} // namespace
