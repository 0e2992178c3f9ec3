/**
 * @file
 * Service-mode load benchmark (extension; DESIGN.md "Service mode").
 *
 * Spawns a real cpserved daemon (forked, isolated workers, journaling
 * on) and drives it with N concurrent clients each issuing M
 * experiment-matrix requests whose cells overlap across clients — the
 * shape of a shared lab box at paper-deadline time. Reports:
 *
 *   - request latency p50/p99 and delivered cells/sec, cold (every
 *     unique cell forks a worker) and warm (the identical request set
 *     again: the daemon's memo answers without forking anything —
 *     verified against the daemon's own cellsExecuted counter);
 *   - shed rate under deliberate pressure: a second daemon with a
 *     tiny admission bound is burst-loaded and must reject with
 *     structured OVERLOADED, not queue or die.
 *
 * Exits nonzero when a request fails, the warm pass executes any cell,
 * the pressure pass sheds nothing, or the daemon does not drain cleanly.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/suite.hh"
#include "service/client.hh"
#include "service/daemon_harness.hh"

using namespace cps;
using namespace cps::service;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr unsigned kClients = 8;
constexpr unsigned kRequestsPerClient = 3;
constexpr unsigned kCellsPerRequest = 6;
constexpr unsigned kCellPool = 24; ///< distinct cells shared by clients

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

CellSpec
poolCell(u64 base_insns, unsigned idx)
{
    CellSpec spec;
    spec.bench = "go";
    spec.base = BaseMachine::Issue4;
    spec.codeModel = static_cast<u8>(CodeModel::CodePack);
    // Distinct instruction budgets make distinct cell keys without
    // changing per-cell cost materially.
    spec.maxInsns = base_insns + idx;
    return spec;
}

struct PhaseResult
{
    std::vector<double> latenciesMs; ///< one per completed request
    u64 cellsDelivered = 0;
    unsigned shed = 0;
    unsigned failed = 0; ///< requests that errored/truncated
    double wallMs = 0;
};

/** N clients x M overlapping requests against @p socket. */
PhaseResult
drivePhase(const std::string &socket, u64 base_insns)
{
    PhaseResult result;
    std::vector<std::vector<double>> lat(kClients);
    std::atomic<u64> cells{0};
    std::atomic<unsigned> shed{0}, failed{0};

    auto start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned ci = 0; ci < kClients; ++ci) {
        threads.emplace_back([&, ci] {
            ServiceClient client;
            if (!client.connect(socket, 5000)) {
                failed.fetch_add(kRequestsPerClient);
                return;
            }
            for (unsigned r = 0; r < kRequestsPerClient; ++r) {
                MatrixRequestMsg msg;
                msg.requestId = ci * 100 + r + 1;
                for (unsigned k = 0; k < kCellsPerRequest; ++k)
                    msg.cells.push_back(poolCell(
                        base_insns,
                        (ci * 3 + r * 5 + k) % kCellPool));
                auto t0 = Clock::now();
                MatrixReply reply = client.runMatrix(msg, 120000);
                if (reply.overloaded) {
                    shed.fetch_add(1);
                    continue;
                }
                if (!reply.allOk()) {
                    failed.fetch_add(1);
                    continue;
                }
                lat[ci].push_back(millisSince(t0));
                cells.fetch_add(reply.cells.size());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    result.wallMs = millisSince(start);
    for (const std::vector<double> &v : lat)
        result.latenciesMs.insert(result.latenciesMs.end(), v.begin(),
                                  v.end());
    result.cellsDelivered = cells.load();
    result.shed = shed.load();
    result.failed = failed.load();
    return result;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

long
statValue(const std::string &stats, const std::string &key)
{
    size_t pos = stats.find(key + "=");
    if (pos == std::string::npos)
        return -1;
    return std::atol(stats.c_str() + pos + key.size() + 1);
}

} // namespace

int
main()
{
    const u64 base_insns = Suite::runInsns();
    // Warm the benchmark before forking daemons: they inherit it.
    Suite::instance().get("go");

    std::string scratch =
        (std::filesystem::temp_directory_path() /
         ("cps-service-bench-" + std::to_string(::getpid())))
            .string();
    std::error_code ec;
    std::filesystem::create_directories(scratch, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s\n", scratch.c_str());
        return 1;
    }

    // --- main daemon: throughput + warm-cache phases ------------------
    ServiceConfig dc;
    dc.socketPath = scratch + "/bench.sock";
    dc.workers = defaultThreadCount();
    dc.queueMax = 256;
    dc.deadlineMs = 300000;
    dc.runner.isolate = true;
    dc.runner.timeoutMs = 60000;
    dc.runner.retries = 1;
    dc.resume = true;
    dc.cacheDir = scratch + "/cache";
    DaemonProcess daemon = spawnDaemon(dc);
    if (!daemon.running()) {
        std::fprintf(stderr, "daemon failed to spawn\n");
        return 1;
    }

    PhaseResult cold = drivePhase(dc.socketPath, base_insns);
    long cold_executed;
    {
        ServiceClient probe;
        probe.connect(dc.socketPath, 2000);
        cold_executed = statValue(probe.stats(5000), "cellsExecuted");
    }

    PhaseResult warm = drivePhase(dc.socketPath, base_insns);
    long warm_executed;
    {
        ServiceClient probe;
        probe.connect(dc.socketPath, 2000);
        warm_executed = statValue(probe.stats(5000), "cellsExecuted");
    }
    long warm_delta = warm_executed - cold_executed;
    int rc = daemon.stop();

    // --- pressure daemon: admission control under burst load ----------
    ServiceConfig pc = dc;
    pc.socketPath = scratch + "/pressure.sock";
    pc.workers = 1;
    // One request fits exactly; everything arriving while it runs is
    // shed by outstanding-work accounting, not by trivial oversizing.
    pc.queueMax = kCellsPerRequest;
    pc.resume = false;
    DaemonProcess pressure_daemon = spawnDaemon(pc);
    if (!pressure_daemon.running()) {
        std::fprintf(stderr, "pressure daemon failed to spawn\n");
        return 1;
    }
    // 10x budget per cell: slow enough that the burst genuinely
    // overlaps the single worker, forcing admission decisions.
    PhaseResult pressure =
        drivePhase(pc.socketPath, base_insns * 10 + 1000);
    pressure_daemon.stop();

    const unsigned total_requests = kClients * kRequestsPerClient;
    double cold_p50 = percentile(cold.latenciesMs, 0.50);
    double cold_p99 = percentile(cold.latenciesMs, 0.99);
    double warm_p50 = percentile(warm.latenciesMs, 0.50);
    double warm_p99 = percentile(warm.latenciesMs, 0.99);
    double cold_cps = cold.cellsDelivered / (cold.wallMs / 1000.0);
    double warm_cps = warm.cellsDelivered / (warm.wallMs / 1000.0);
    double shed_rate =
        static_cast<double>(pressure.shed) / total_requests;

    TextTable t;
    t.setTitle(strfmt("Extension: campaign service under load "
                      "(%u clients x %u requests x %u cells, pool %u)",
                      kClients, kRequestsPerClient, kCellsPerRequest,
                      kCellPool));
    t.addHeader({"Phase", "p50 ms", "p99 ms", "cells/s", "shed",
                 "executed"});
    t.addRow({"cold (executes + journals)", strfmt("%.1f", cold_p50),
              strfmt("%.1f", cold_p99), strfmt("%.0f", cold_cps),
              strfmt("%u/%u", cold.shed, total_requests),
              strfmt("%ld", cold_executed)});
    t.addRow({"warm (memo, no forks)", strfmt("%.1f", warm_p50),
              strfmt("%.1f", warm_p99), strfmt("%.0f", warm_cps),
              strfmt("%u/%u", warm.shed, total_requests),
              strfmt("+%ld", warm_delta)});
    t.addRow({strfmt("pressure (queueMax=%u, 1 worker)", pc.queueMax),
              "-", "-", "-",
              strfmt("%u/%u (%.0f%%)", pressure.shed, total_requests,
                     100.0 * shed_rate),
              "-"});
    t.print();

    bool ok = true;
    if (cold.failed != 0 || warm.failed != 0) {
        std::printf("\n%u cold / %u warm request(s) FAILED\n",
                    cold.failed, warm.failed);
        ok = false;
    }
    if (warm_delta != 0) {
        std::printf("\nwarm phase executed %ld cell(s) — memo should "
                    "have served all of them without forking\n",
                    warm_delta);
        ok = false;
    }
    if (pressure.shed == 0) {
        std::printf("\npressure phase shed nothing — admission bound "
                    "never engaged\n");
        ok = false;
    }
    if (rc != 0) {
        std::printf("\nmain daemon exited %d (want clean drain 0)\n",
                    rc);
        ok = false;
    }

    std::filesystem::remove_all(scratch, ec);
    return ok ? 0 : 1;
}
