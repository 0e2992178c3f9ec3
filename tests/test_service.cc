/**
 * @file
 * End-to-end tests for the campaign daemon (src/service).
 *
 * The load-bearing contract: results streamed by a daemon — across
 * kills, restarts, and eight concurrent clients deduplicating onto the
 * same cells — are byte-identical (encoded RunOutcome envelopes) to
 * the batch engine running the same requests in-process. Plus wire
 * protocol round-trips, admission accounting, and the introspection
 * frames.
 *
 * Daemons are forked (spawnDaemon); every test that forks must do so
 * while this process has no live threads, and warms the benchmark
 * programs first so children inherit them built.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "harness/engine.hh"
#include "service/client.hh"
#include "service/daemon_harness.hh"

using namespace cps;
using namespace cps::service;

namespace
{

std::string
scratchDir(const std::string &tag)
{
    std::string dir = (std::filesystem::temp_directory_path() /
                       ("cps-test-service-" + tag + "-" +
                        std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Daemon config for tests: isolated workers, fast failure. */
ServiceConfig
testConfig(const std::string &dir)
{
    ServiceConfig cfg;
    cfg.socketPath = dir + "/d.sock";
    cfg.workers = 2;
    cfg.queueMax = 256;
    cfg.deadlineMs = 120000;
    cfg.stallMs = 30000;
    cfg.runner.isolate = true;
    cfg.runner.timeoutMs = 60000;
    cfg.runner.retries = 1;
    cfg.runner.backoffMs = 10;
    cfg.resume = true;
    cfg.cacheDir = dir + "/cache";
    return cfg;
}

CellSpec
spec(const std::string &bench, CodeModel model, u64 insns,
     BaseMachine base = BaseMachine::Issue4)
{
    CellSpec s;
    s.bench = bench;
    s.base = base;
    s.codeModel = static_cast<u8>(model);
    s.maxInsns = insns;
    return s;
}

/**
 * The batch-engine reference for @p cells: resolve each spec exactly
 * as the daemon does, run them through runMatrixCells in this process,
 * and return the encoded outcome envelope per cell.
 */
std::vector<std::vector<u8>>
batchReference(const std::vector<CellSpec> &cells)
{
    std::vector<harness::RunRequest> reqs(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        std::string err;
        EXPECT_TRUE(resolveCellSpec(cells[i], false, &reqs[i], &err))
            << err;
    }
    std::vector<harness::CellOutcome> out =
        harness::runMatrixCells(reqs, 2);
    std::vector<std::vector<u8>> encoded;
    for (const harness::CellOutcome &cell : out) {
        EXPECT_TRUE(cell.status.ok()) << cell.status.describe();
        encoded.push_back(harness::encodeRunOutcome(cell.outcome));
    }
    return encoded;
}

/** Reply cells sorted into cellIndex order (arrival order varies). */
std::vector<CellResultMsg>
ordered(const MatrixReply &reply)
{
    std::vector<CellResultMsg> cells = reply.cells;
    std::sort(cells.begin(), cells.end(),
              [](const CellResultMsg &a, const CellResultMsg &b) {
                  return a.cellIndex < b.cellIndex;
              });
    return cells;
}

long
statValue(const std::string &stats, const std::string &key)
{
    size_t pos = stats.find(key + "=");
    if (pos == std::string::npos)
        return -1;
    return std::atol(stats.c_str() + pos + key.size() + 1);
}

void
warmSuite()
{
    Suite::instance().get("go");
    Suite::instance().get("pegwit");
}

/** Scoped environment override, restored on destruction. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }
    ~EnvGuard()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

} // namespace

// ---------------------------------------------------------------
// Environment knobs.
// ---------------------------------------------------------------

TEST(ServiceConfigEnv, MalformedIntegerKnobsKeepDefaultsAndWarn)
{
    // None of these may be read as a number: "abc" must not become a
    // 1 ms deadline that expires every request, nor "1e3" one worker.
    EnvGuard workers("CPS_SERVE_WORKERS", "1e3");
    EnvGuard queue("CPS_SERVE_QUEUE_MAX", "0");
    EnvGuard deadline("CPS_SERVE_DEADLINE_MS", "abc");
    EnvGuard stall("CPS_SERVE_STALL_MS", "-5");
    EnvGuard exit_after("CPS_TEST_SERVE_EXIT_AFTER_CELLS", "2x");
    unsigned long before = warnCount();
    ServiceConfig cfg = ServiceConfig::fromEnv();
    const ServiceConfig dflt;
    EXPECT_EQ(cfg.workers, dflt.workers);
    EXPECT_EQ(cfg.queueMax, dflt.queueMax);
    EXPECT_EQ(cfg.deadlineMs, dflt.deadlineMs);
    EXPECT_EQ(cfg.stallMs, dflt.stallMs);
    EXPECT_EQ(cfg.exitAfterCells, -1);
    EXPECT_EQ(warnCount(), before + 5);
}

TEST(ServiceConfigEnv, ValidIntegerKnobsApply)
{
    EnvGuard workers("CPS_SERVE_WORKERS", "3");
    EnvGuard queue("CPS_SERVE_QUEUE_MAX", "1");
    EnvGuard deadline("CPS_SERVE_DEADLINE_MS", "2500");
    EnvGuard stall("CPS_SERVE_STALL_MS", "40");
    EnvGuard exit_after("CPS_TEST_SERVE_EXIT_AFTER_CELLS", "0");
    unsigned long before = warnCount();
    ServiceConfig cfg = ServiceConfig::fromEnv();
    EXPECT_EQ(cfg.workers, 3u);
    EXPECT_EQ(cfg.queueMax, 1u);
    EXPECT_EQ(cfg.deadlineMs, 2500u);
    EXPECT_EQ(cfg.stallMs, 40);
    EXPECT_EQ(cfg.exitAfterCells, 0);
    EXPECT_EQ(warnCount(), before);
}

// ---------------------------------------------------------------
// Wire protocol round-trips.
// ---------------------------------------------------------------

TEST(ServiceProtocol, MatrixRequestRoundTrip)
{
    MatrixRequestMsg msg;
    msg.requestId = 7;
    msg.deadlineMs = 12345;
    msg.cells = {spec("go", CodeModel::CodePack, 20001),
                 spec("pegwit", CodeModel::Native, 20002,
                      BaseMachine::Issue8)};
    msg.cells[1].injectFault = 3;

    MatrixRequestMsg back;
    ASSERT_TRUE(decodeMatrixRequest(encodeMatrixRequest(msg), &back));
    EXPECT_EQ(back.requestId, 7u);
    EXPECT_EQ(back.deadlineMs, 12345u);
    ASSERT_EQ(back.cells.size(), 2u);
    EXPECT_EQ(back.cells[0].bench, "go");
    EXPECT_EQ(back.cells[0].maxInsns, 20001u);
    EXPECT_EQ(back.cells[1].base, BaseMachine::Issue8);
    EXPECT_EQ(back.cells[1].injectFault, 3);
}

TEST(ServiceProtocol, CellResultRoundTripCarriesOutcomeBytes)
{
    CellResultMsg msg;
    msg.requestId = 9;
    msg.cellIndex = 4;
    msg.source = ResultSource::Journal;
    msg.status.state = harness::CellState::Ok;
    msg.outcome.result.cycles = 123456;
    msg.outcome.result.instructions = 20000;

    CellResultMsg back;
    ASSERT_TRUE(decodeCellResult(encodeCellResult(msg), &back));
    EXPECT_EQ(back.cellIndex, 4u);
    EXPECT_EQ(back.source, ResultSource::Journal);
    EXPECT_EQ(harness::encodeRunOutcome(back.outcome),
              harness::encodeRunOutcome(msg.outcome));
}

TEST(ServiceProtocol, DecodersRejectTruncation)
{
    MatrixRequestMsg msg;
    msg.requestId = 1;
    msg.cells = {spec("go", CodeModel::Native, 20000)};
    std::vector<u8> bytes = encodeMatrixRequest(msg);
    MatrixRequestMsg back;
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<u8> torn(bytes.begin(), bytes.begin() + cut);
        EXPECT_FALSE(decodeMatrixRequest(torn, &back))
            << "accepted a " << cut << "-byte prefix";
    }
}

TEST(ServiceProtocol, ResolveRejectsUnknownBenchAndFaults)
{
    harness::RunRequest req;
    std::string err;
    EXPECT_FALSE(resolveCellSpec(spec("nope", CodeModel::Native, 100),
                                 false, &req, &err));
    EXPECT_FALSE(err.empty());

    CellSpec faulty = spec("go", CodeModel::CodePack, 100);
    faulty.injectFault = static_cast<u8>(harness::CellFault::Crash);
    EXPECT_FALSE(resolveCellSpec(faulty, false, &req, &err));
    EXPECT_TRUE(resolveCellSpec(faulty, true, &req, &err)) << err;
}

// ---------------------------------------------------------------
// Daemon end-to-end.
// ---------------------------------------------------------------

TEST(ServiceDaemon, StreamedResultsByteIdenticalToBatch)
{
    warmSuite();
    const u64 insns = Suite::runInsns();

    std::vector<CellSpec> cells;
    for (const char *bench : {"go", "pegwit"})
        for (CodeModel model :
             {CodeModel::Native, CodeModel::CodePack,
              CodeModel::CodePackOptimized})
            cells.push_back(spec(bench, model, insns));

    // The reference runs in-process *before* the daemon exists, in a
    // journal-free configuration: two genuinely independent
    // computations of the same cells.
    std::vector<std::vector<u8>> want = batchReference(cells);

    std::string dir = scratchDir("batch");
    DaemonProcess daemon = spawnDaemon(testConfig(dir));
    ASSERT_TRUE(daemon.running());

    MatrixRequestMsg msg;
    msg.requestId = 1;
    msg.cells = cells;
    ServiceClient client;
    ASSERT_TRUE(client.connect(dir + "/d.sock", 5000));
    MatrixReply reply = client.runMatrix(msg, 120000);
    ASSERT_TRUE(reply.allOk()) << reply.error;
    std::vector<CellResultMsg> got = ordered(reply);
    ASSERT_EQ(got.size(), cells.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].status.ok()) << got[i].status.describe();
        EXPECT_EQ(harness::encodeRunOutcome(got[i].outcome), want[i])
            << "cell " << i << " diverged from the batch engine";
    }

    EXPECT_EQ(daemon.stop(), 0); // clean SIGTERM drain
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(ServiceDaemon, KillRestartResumesFromJournalByteIdentical)
{
    warmSuite();
    const u64 insns = Suite::runInsns();

    std::vector<CellSpec> cells;
    for (u64 k = 0; k < 4; ++k)
        cells.push_back(spec("go", CodeModel::CodePack, insns + 100 + k));
    std::vector<std::vector<u8>> want = batchReference(cells);

    std::string dir = scratchDir("resume");
    ServiceConfig cfg = testConfig(dir);
    cfg.workers = 1;          // deterministic completion order
    cfg.exitAfterCells = 2;   // _exit(42) after 2 journaled cells
    DaemonProcess victim = spawnDaemon(cfg);
    ASSERT_TRUE(victim.running());

    MatrixRequestMsg msg;
    msg.requestId = 5;
    msg.cells = cells;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(cfg.socketPath, 5000));
        MatrixReply reply = client.runMatrix(msg, 120000);
        // The stream must break mid-matrix, never complete.
        EXPECT_FALSE(reply.ended);
        EXPECT_FALSE(reply.error.empty());
    }
    EXPECT_EQ(victim.wait(30000), 42); // the deterministic kill -9

    // Restart on the same journal dir: the two completed cells replay,
    // the rest execute, and every byte matches the batch engine.
    ServiceConfig cfg2 = testConfig(dir);
    cfg2.workers = 1;
    DaemonProcess revived = spawnDaemon(cfg2);
    ASSERT_TRUE(revived.running());
    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg2.socketPath, 5000));
    MatrixReply reply = client.runMatrix(msg, 120000);
    ASSERT_TRUE(reply.allOk()) << reply.error;
    std::vector<CellResultMsg> got = ordered(reply);
    ASSERT_EQ(got.size(), cells.size());
    unsigned replayed = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].source == ResultSource::Journal)
            ++replayed;
        EXPECT_EQ(harness::encodeRunOutcome(got[i].outcome), want[i])
            << "cell " << i << " diverged after kill+restart";
    }
    EXPECT_EQ(replayed, 2u) << "exactly the journaled prefix replays";

    EXPECT_EQ(revived.stop(), 0);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(ServiceDaemon, EightConcurrentClientsDedupAndMatchBatch)
{
    warmSuite();
    const u64 insns = Suite::runInsns();

    // A pool of 6 distinct cells; every client requests an overlapping
    // window of 4, so the daemon sees 32 cell asks for 6 executions.
    std::vector<CellSpec> pool;
    for (u64 k = 0; k < 6; ++k)
        pool.push_back(spec("go", CodeModel::CodePack, insns + 200 + k));
    std::vector<std::vector<u8>> want = batchReference(pool);

    std::string dir = scratchDir("clients");
    ServiceConfig cfg = testConfig(dir);
    cfg.resume = false; // memo/in-flight dedup only, no journal assist
    DaemonProcess daemon = spawnDaemon(cfg);
    ASSERT_TRUE(daemon.running());

    constexpr unsigned kClients = 8;
    constexpr unsigned kCells = 4;
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned ci = 0; ci < kClients; ++ci) {
        threads.emplace_back([&, ci] {
            MatrixRequestMsg msg;
            msg.requestId = 100 + ci;
            std::vector<size_t> picks;
            for (unsigned k = 0; k < kCells; ++k)
                picks.push_back((ci + k) % pool.size());
            for (size_t p : picks)
                msg.cells.push_back(pool[p]);
            ServiceClient client;
            if (!client.connect(cfg.socketPath, 5000)) {
                ++failures;
                return;
            }
            MatrixReply reply = client.runMatrix(msg, 120000);
            if (!reply.allOk() ||
                reply.cells.size() != msg.cells.size()) {
                ++failures;
                return;
            }
            for (const CellResultMsg &cell : ordered(reply))
                if (harness::encodeRunOutcome(cell.outcome) !=
                    want[picks[cell.cellIndex]])
                    ++failures;
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0u);

    // Dedup proof: the daemon executed each distinct cell exactly once.
    ServiceClient probe;
    ASSERT_TRUE(probe.connect(cfg.socketPath, 5000));
    std::string stats = probe.stats(5000);
    EXPECT_EQ(statValue(stats, "cellsExecuted"),
              static_cast<long>(pool.size()))
        << stats;
    long shared = statValue(stats, "cellsShared");
    long memo = statValue(stats, "cellsFromMemo");
    EXPECT_EQ(shared + memo,
              static_cast<long>(kClients * kCells - pool.size()))
        << stats;

    EXPECT_EQ(daemon.stop(), 0);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(ServiceDaemon, PingStatsAndMalformedRequest)
{
    warmSuite();
    std::string dir = scratchDir("intro");
    ServiceConfig cfg = testConfig(dir);
    DaemonProcess daemon = spawnDaemon(cfg);
    ASSERT_TRUE(daemon.running());

    ServiceClient client;
    ASSERT_TRUE(client.connect(cfg.socketPath, 5000));
    EXPECT_TRUE(client.ping(5000));
    std::string stats = client.stats(5000);
    EXPECT_NE(stats.find("daemon=cpserved"), std::string::npos);
    EXPECT_EQ(statValue(stats, "activeRequests"), 0);

    // An unknown bench must come back as a structured Error frame.
    MatrixRequestMsg bad;
    bad.requestId = 3;
    bad.cells = {spec("not-a-bench", CodeModel::Native, 1000)};
    MatrixReply reply = client.runMatrix(bad, 5000);
    EXPECT_FALSE(reply.ended);
    EXPECT_FALSE(reply.error.empty());

    EXPECT_EQ(daemon.stop(), 0);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}
