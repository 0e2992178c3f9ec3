/**
 * @file
 * cpserved: the fault-tolerant campaign daemon.
 *
 * One CampaignServer owns a Unix-domain listening socket, a poll(2)
 * event loop (the calling thread), and a bounded pool of worker
 * threads that execute matrix cells through the crash-isolating
 * CellRunner. Clients connect, send MatrixRequest frames, and receive
 * each cell's result as soon as it exists. The daemon is built
 * crash-only: all durable state lives in the per-matrix resume
 * journals and the artifact cache, so `kill -9` at any instant loses
 * at most the cells currently executing — a restarted daemon (or a
 * batch run of the same matrix) replays everything journaled.
 *
 * Robustness properties, in the order they matter:
 *
 *  - Admission control. A request whose to-be-executed cells would
 *    push the work queue past queueMax is rejected with a structured
 *    OVERLOADED frame — the daemon sheds load explicitly rather than
 *    queueing without bound. Cells served from the journal, the
 *    in-memory memo, or deduplicated onto an in-flight execution cost
 *    no queue budget, so a warm daemon admits far more than a cold one.
 *
 *  - Containment. Workers fork one process per cell (CPS_ISOLATE
 *    path); a crashing, hanging, or garbling cell is classified and
 *    retried by the CellRunner and can never take the daemon down.
 *    Every daemon-side fd is registered to be closed in forked
 *    workers, so an orphaned worker cannot hold a client's connection
 *    (or the listening socket) open past the daemon's death.
 *
 *  - Deadlines and cancellation. Each request carries a wall-clock
 *    deadline (capped by the server). On expiry — or when the client
 *    disconnects — its unstarted cells are cancelled out of the queue;
 *    cells already executing finish and warm the memo/journal for the
 *    next asker. Slow-loris clients (bytes trickling mid-frame) and
 *    clients that stop draining their results are disconnected once
 *    they stall past the configured threshold.
 *
 *  - Graceful drain. SIGTERM stops accepting connections and rejects
 *    new requests ("draining"), finishes every admitted cell,
 *    journals, replies, and exits. A second SIGTERM (or requestStop)
 *    cancels queued work, closes open requests with status Drained,
 *    and exits as soon as running cells finish.
 *
 * Threading: every piece of client/request/job state is owned by the
 * event-loop thread. Workers touch exactly two mutex-guarded queues
 * (work in, completions out) and a self-pipe; nothing else is shared.
 */

#ifndef CPS_SERVICE_SERVER_HH
#define CPS_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/ipc_frame.hh"
#include "common/socket.hh"
#include "harness/cell_runner.hh"
#include "harness/journal.hh"
#include "protocol.hh"

namespace cps
{
namespace service
{

/** Daemon policy; every field has an environment knob. */
struct ServiceConfig
{
    std::string socketPath = "cpserved.sock"; ///< CPS_SERVE_SOCKET
    unsigned workers = 2;                     ///< CPS_SERVE_WORKERS
    u32 queueMax = 256;                       ///< CPS_SERVE_QUEUE_MAX
    u64 deadlineMs = 120000;                  ///< CPS_SERVE_DEADLINE_MS;
                                              ///< default and cap
    long stallMs = 30000;   ///< CPS_SERVE_STALL_MS: drop a client
                            ///< stalled mid-frame or not draining
                            ///< results for this long
    bool allowFaultInjection = false; ///< CPS_SERVE_ALLOW_FAULTS=1
                                      ///< (chaos/tests only)
    /**
     * Cell-execution policy and journal placement, explicit rather
     * than read from the (once-cached, fork-inherited) process
     * environment so in-process daemons — tests, the chaos campaign —
     * can each run a different policy. fromEnv() fills them from the
     * usual CPS_ISOLATE / CPS_RESUME / CPS_CACHE_DIR knobs.
     */
    harness::CellRunnerConfig runner;
    bool resume = false;  ///< journal/replay matrices on disk
    std::string cacheDir; ///< journal dir; "" = defaultCacheDir()
    /**
     * Test hook mirroring the engine's CPS_TEST_EXIT_AFTER_CELLS
     * (CPS_TEST_SERVE_EXIT_AFTER_CELLS): _exit(42) immediately after
     * this many executed-cell completions have been journaled — a
     * deterministic `kill -9` for the restart-resume tests. -1 = off.
     */
    long exitAfterCells = -1;

    static ServiceConfig fromEnv();
};

/** Monotonic counters exposed through the stats frame. */
struct ServiceStats
{
    u64 clientsAccepted = 0;
    u64 clientsDropped = 0;   ///< disconnected for stalling/backlog
    u64 requestsAdmitted = 0;
    u64 requestsRejected = 0; ///< OVERLOADED replies sent
    u64 requestsMalformed = 0;
    u64 cellsExecuted = 0;    ///< a worker ran the cell
    u64 cellsShared = 0;      ///< deduplicated onto an in-flight cell
    u64 cellsFromMemo = 0;
    u64 cellsFromJournal = 0;
    u64 cellsFailed = 0;      ///< executed but ended !ok
    u64 cellsCancelled = 0;   ///< deadline/disconnect/drain
    u64 deadlinesExpired = 0; ///< requests truncated by deadline
};

class CampaignServer
{
  public:
    explicit CampaignServer(ServiceConfig cfg);
    ~CampaignServer();
    CampaignServer(const CampaignServer &) = delete;
    CampaignServer &operator=(const CampaignServer &) = delete;

    /**
     * Binds the socket and spawns the worker pool.
     * @return false (with @p err filled) when the socket cannot be
     *         bound; the server is then unusable
     */
    bool start(std::string *err);

    /** Runs the event loop until stopped and drained. */
    void serve();

    /**
     * Begins a graceful drain (async-signal-safe: called from the
     * SIGTERM handler). Idempotent.
     */
    void requestDrain();

    /** Fast stop: cancel queued work, close requests, exit the loop
     *  once running cells finish (async-signal-safe). */
    void requestStop();

    const ServiceConfig &config() const { return cfg_; }

    /** Snapshot of the counters (event-loop thread only). */
    const ServiceStats &stats() const { return stats_; }

  private:
    struct Client;
    struct Request;
    struct Job;
    struct Work;
    struct Completion;

    // ---- event-loop thread ----
    void acceptClients();
    void readClient(int fd);
    bool flushClient(Client &c);
    void dropClient(int fd, const char *why);
    void handleFrame(Client &c, const IpcFrame &frame);
    void handleMatrixRequest(Client &c, const IpcFrame &frame);
    void handleStats(Client &c);
    void sendFrame(Client &c, u32 type, const std::vector<u8> &payload);
    void sendCellResult(Client &c, const CellResultMsg &msg);
    void sendError(Client &c, u32 request_id, const std::string &text);
    void finishRequest(u64 rkey, MatrixEndStatus status);
    void cancelRequestCells(u64 rkey, Request &request);
    void processCompletions();
    void checkDeadlines(u64 now_ms);
    long pollTimeoutMs(u64 now_ms) const;
    void beginDrain();
    void fastStop();
    std::string statsText() const;

    // ---- worker threads ----
    void workerLoop();

    ServiceConfig cfg_;
    harness::CellRunner runner_;
    WakeupPipe wakeup_;
    int listenFd_ = -1;
    bool draining_ = false;
    bool stopLoop_ = false;
    std::atomic<bool> drainFlag_{false};
    std::atomic<bool> stopFlag_{false};
    ServiceStats stats_;
    long executedDone_ = 0; ///< drives cfg_.exitAfterCells

    int nextClientId_ = 1;
    u64 nextJobId_ = 1;
    std::map<int, Client> clients_;        ///< by fd
    std::map<u64, Request> requests_;      ///< by rkey
    std::map<u64, std::unique_ptr<Job>> jobs_;
    std::map<std::string, u64> inflightByKey_;
    std::map<std::string, harness::CellOutcome> memo_; ///< ok cells only

    mutable std::mutex workMutex_;
    std::condition_variable workCv_;
    std::deque<std::shared_ptr<Work>> workQueue_;
    bool stopWorkers_ = false;
    std::atomic<unsigned> runningCells_{0};
    std::mutex doneMutex_;
    std::vector<Completion> done_;
    std::vector<std::thread> workers_;
};

/** Steady-clock milliseconds (monotonic, arbitrary epoch). */
u64 steadyNowMs();

} // namespace service
} // namespace cps

#endif // CPS_SERVICE_SERVER_HH
