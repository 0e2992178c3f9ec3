#include "server.hh"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <poll.h>
#include <set>
#include <sys/socket.h>
#include <unistd.h>

#include "common/artifact_cache.hh"
#include "common/byteio.hh"
#include "common/logging.hh"

namespace cps
{
namespace service
{

namespace
{

/** A client that stops draining results is disconnected once this much
 *  undelivered output accumulates. */
constexpr size_t kMaxOutputBacklog = 8u << 20;

/** Poll tick ceiling: even with no timer armed, the loop revisits its
 *  exit/drain conditions at least this often. */
constexpr long kMaxPollMs = 1000;

} // namespace

u64
steadyNowMs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ServiceConfig
ServiceConfig::fromEnv()
{
    ServiceConfig cfg;
    if (const char *env = std::getenv("CPS_SERVE_SOCKET"))
        if (*env != '\0')
            cfg.socketPath = env;
    cfg.workers = static_cast<unsigned>(
        envUnsigned("CPS_SERVE_WORKERS", cfg.workers, 1, UINT_MAX,
                    "a positive integer"));
    cfg.queueMax = static_cast<u32>(
        envUnsigned("CPS_SERVE_QUEUE_MAX", cfg.queueMax, 1, UINT32_MAX,
                    "a positive integer"));
    cfg.deadlineMs = envUnsigned("CPS_SERVE_DEADLINE_MS", cfg.deadlineMs, 1,
                                 LONG_MAX, "a positive integer (ms)");
    cfg.stallMs = static_cast<long>(
        envUnsigned("CPS_SERVE_STALL_MS", static_cast<u64>(cfg.stallMs), 1,
                    LONG_MAX, "a positive integer (ms)"));
    if (const char *env = std::getenv("CPS_SERVE_ALLOW_FAULTS"))
        cfg.allowFaultInjection = std::string(env) != "0";
    // Unset (or malformed) means never: the sentinel is out of range.
    constexpr u64 kNever = UINT64_MAX;
    const u64 exit_after =
        envUnsigned("CPS_TEST_SERVE_EXIT_AFTER_CELLS", kNever, 0, LONG_MAX,
                    "an unsigned integer");
    cfg.exitAfterCells = exit_after == kNever ? -1
                                              : static_cast<long>(exit_after);
    cfg.runner = harness::CellRunnerConfig::fromEnv();
    cfg.resume = harness::resumeEnabled();
    cfg.cacheDir = defaultCacheDir();
    return cfg;
}

// ---------------------------------------------------------------------
// Internal state types (event-loop thread owns all of them).
// ---------------------------------------------------------------------

struct CampaignServer::Client
{
    int fd = -1;
    int id = 0;
    bool dead = false; ///< fatal write error; reaped after the frame loop
    std::vector<u8> inBuf;
    size_t inPos = 0;
    std::vector<u8> outBuf;
    size_t outPos = 0;
    u64 partialSinceMs = 0; ///< mid-frame stall start; 0 = no stall
    std::vector<u64> requests; ///< open rkeys owned by this client
};

struct CampaignServer::Request
{
    int clientFd = -1;
    u32 requestId = 0;
    std::vector<harness::RunRequest> reqs;
    std::vector<std::string> cellKeys;
    std::unique_ptr<harness::MatrixJournal> journal;
    u32 okCells = 0;
    u32 failedCells = 0;
    u32 cancelledCells = 0;
    u32 remaining = 0; ///< cells not yet reported or cancelled
    u64 deadlineAt = 0;
};

/** One subscription of a request cell to a job's eventual outcome. */
struct CampaignServer::Work
{
    u64 jobId = 0;
    harness::RunRequest req;
};

struct CampaignServer::Job
{
    struct Sub
    {
        u64 rkey = 0;
        u32 cellIndex = 0;
        bool primary = false; ///< first asker; replies say "executed"
    };
    u64 id = 0;
    std::string key;
    std::vector<Sub> subs;
    std::shared_ptr<Work> work; ///< identity token in the work queue
};

struct CampaignServer::Completion
{
    u64 jobId = 0;
    harness::CellOutcome outcome;
};

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

CampaignServer::CampaignServer(ServiceConfig cfg)
    : cfg_(std::move(cfg)), runner_(cfg_.runner)
{
}

CampaignServer::~CampaignServer()
{
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        stopWorkers_ = true;
        workQueue_.clear();
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    for (auto &entry : clients_) {
        harness::unregisterWorkerCloseFd(entry.second.fd);
        ::close(entry.second.fd);
    }
    if (listenFd_ >= 0) {
        harness::unregisterWorkerCloseFd(listenFd_);
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
    }
    harness::unregisterWorkerCloseFd(wakeup_.readFd());
    harness::unregisterWorkerCloseFd(wakeup_.writeFd());
}

bool
CampaignServer::start(std::string *err)
{
    ignoreSigpipe();
    if (!wakeup_.valid()) {
        *err = "wakeup pipe creation failed";
        return false;
    }
    listenFd_ = listenUnix(cfg_.socketPath, 64, err);
    if (listenFd_ < 0)
        return false;
    setNonBlocking(listenFd_, true);

    // No daemon fd may leak into forked cell workers: an orphaned
    // worker holding the listening socket or a client connection would
    // mask the daemon's death from every peer.
    harness::registerWorkerCloseFd(listenFd_);
    harness::registerWorkerCloseFd(wakeup_.readFd());
    harness::registerWorkerCloseFd(wakeup_.writeFd());

    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

void
CampaignServer::requestDrain()
{
    drainFlag_.store(true, std::memory_order_relaxed);
    wakeup_.notify();
}

void
CampaignServer::requestStop()
{
    stopFlag_.store(true, std::memory_order_relaxed);
    wakeup_.notify();
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

void
CampaignServer::workerLoop()
{
    for (;;) {
        std::shared_ptr<Work> work;
        {
            std::unique_lock<std::mutex> lock(workMutex_);
            workCv_.wait(lock, [this] {
                return stopWorkers_ || !workQueue_.empty();
            });
            if (workQueue_.empty()) {
                if (stopWorkers_)
                    return;
                continue;
            }
            work = workQueue_.front();
            workQueue_.pop_front();
        }
        runningCells_.fetch_add(1, std::memory_order_relaxed);
        harness::CellOutcome outcome = runner_.run(work->req);
        runningCells_.fetch_sub(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(doneMutex_);
            done_.push_back({work->jobId, std::move(outcome)});
        }
        wakeup_.notify();
    }
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

void
CampaignServer::serve()
{
    std::vector<struct pollfd> fds;
    while (true) {
        if (stopFlag_.exchange(false, std::memory_order_relaxed))
            fastStop();
        if (drainFlag_.exchange(false, std::memory_order_relaxed))
            beginDrain();
        processCompletions();
        u64 now = steadyNowMs();
        checkDeadlines(now);
        if (stopLoop_ ||
            (draining_ && requests_.empty() && jobs_.empty()))
            break;

        fds.clear();
        fds.push_back({wakeup_.readFd(), POLLIN, 0});
        if (!draining_ && listenFd_ >= 0)
            fds.push_back({listenFd_, POLLIN, 0});
        for (const auto &entry : clients_) {
            short events = POLLIN;
            const Client &c = entry.second;
            if (c.outPos < c.outBuf.size())
                events |= POLLOUT;
            fds.push_back({entry.first, events, 0});
        }

        int n = ::poll(fds.data(), fds.size(), pollTimeoutMs(now));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            cps_warn("cpserved: poll failed (errno %d)", errno);
            break;
        }

        for (const struct pollfd &p : fds) {
            if (p.revents == 0)
                continue;
            if (p.fd == wakeup_.readFd()) {
                wakeup_.drain();
            } else if (p.fd == listenFd_) {
                acceptClients();
            }
        }
        // Client fds last, on a snapshot: handlers may drop clients
        // (mutating clients_) as they go.
        std::vector<std::pair<int, short>> ready;
        for (const struct pollfd &p : fds)
            if (p.revents != 0 && p.fd != wakeup_.readFd() &&
                p.fd != listenFd_)
                ready.push_back({p.fd, p.revents});
        for (const auto &r : ready) {
            auto it = clients_.find(r.first);
            if (it == clients_.end())
                continue;
            if (r.second & POLLOUT) {
                if (!flushClient(it->second)) {
                    dropClient(r.first, "write error");
                    continue;
                }
            }
            if (r.second & (POLLIN | POLLHUP | POLLERR))
                readClient(r.first);
        }
    }

    // Shutdown: stop the pool, then close every fd. Completions that
    // raced the exit are dropped — their requests are already closed,
    // and anything executed was journaled at completion time anyway.
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        stopWorkers_ = true;
        workQueue_.clear();
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    std::vector<int> client_fds;
    for (const auto &entry : clients_)
        client_fds.push_back(entry.first);
    for (int fd : client_fds) {
        Client &c = clients_[fd];
        flushClient(c); // last-gasp delivery of MatrixEnd frames
        harness::unregisterWorkerCloseFd(fd);
        ::close(fd);
    }
    clients_.clear();
    if (listenFd_ >= 0) {
        harness::unregisterWorkerCloseFd(listenFd_);
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(cfg_.socketPath.c_str());
    }
}

long
CampaignServer::pollTimeoutMs(u64 now_ms) const
{
    u64 next = ~u64{0};
    for (const auto &entry : requests_)
        if (entry.second.remaining > 0)
            next = std::min(next, entry.second.deadlineAt);
    for (const auto &entry : clients_)
        if (entry.second.partialSinceMs != 0)
            next = std::min(next, entry.second.partialSinceMs +
                                      static_cast<u64>(cfg_.stallMs));
    if (next == ~u64{0})
        return kMaxPollMs;
    long delta = next <= now_ms ? 0 : static_cast<long>(next - now_ms);
    return std::min(delta, kMaxPollMs);
}

void
CampaignServer::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    // Refuse new connections immediately; the socket file disappears so
    // fresh clients fail fast instead of queueing on a dying daemon.
    if (listenFd_ >= 0) {
        harness::unregisterWorkerCloseFd(listenFd_);
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(cfg_.socketPath.c_str());
    }
}

void
CampaignServer::fastStop()
{
    beginDrain();
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        workQueue_.clear();
    }
    std::vector<u64> open;
    for (const auto &entry : requests_)
        open.push_back(entry.first);
    for (u64 rkey : open) {
        auto it = requests_.find(rkey);
        if (it == requests_.end())
            continue;
        cancelRequestCells(rkey, it->second);
        finishRequest(rkey, MatrixEndStatus::Drained);
    }
    // Running cells finish (their results still warm the journals via
    // nobody — requests are gone — but the memo insert is free); the
    // loop exits when jobs_ empties.
}

void
CampaignServer::acceptClients()
{
    for (;;) {
        int fd = acceptConnection(listenFd_);
        if (fd < 0)
            return;
        setNonBlocking(fd, true);
        harness::registerWorkerCloseFd(fd);
        Client c;
        c.fd = fd;
        c.id = nextClientId_++;
        clients_.emplace(fd, std::move(c));
        ++stats_.clientsAccepted;
    }
}

void
CampaignServer::dropClient(int fd, const char *why)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    Client &c = it->second;
    // Orphan this client's open requests: unstarted cells are
    // cancelled; running ones finish for the memo. No MatrixEnd — the
    // peer is gone.
    for (u64 rkey : c.requests) {
        auto rit = requests_.find(rkey);
        if (rit == requests_.end())
            continue;
        cancelRequestCells(rkey, rit->second);
        stats_.cellsCancelled += rit->second.cancelledCells;
        requests_.erase(rit);
    }
    if (std::string(why) != "eof")
        ++stats_.clientsDropped;
    harness::unregisterWorkerCloseFd(fd);
    ::close(fd);
    clients_.erase(it);
}

void
CampaignServer::readClient(int fd)
{
    auto it = clients_.find(fd);
    if (it == clients_.end())
        return;
    Client &c = it->second;

    u8 buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.inBuf.insert(c.inBuf.end(), buf, buf + n);
            continue;
        }
        if (n == 0) {
            dropClient(fd, "eof");
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == ENOTSOCK) {
            // Test harness may hand us a pipe end; read(2) instead.
            ssize_t r = ::read(fd, buf, sizeof(buf));
            if (r > 0) {
                c.inBuf.insert(c.inBuf.end(), buf, buf + r);
                continue;
            }
            if (r == 0) {
                dropClient(fd, "eof");
                return;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
        }
        dropClient(fd, "read error");
        return;
    }

    for (;;) {
        IpcFrame frame;
        FrameGather g =
            gatherFrame(c.inBuf, c.inPos, frame, kMaxRequestPayload);
        if (g == FrameGather::Frame) {
            c.partialSinceMs = 0;
            handleFrame(c, frame);
            if (c.dead) {
                dropClient(fd, "write error");
                return;
            }
            continue;
        }
        if (g == FrameGather::NeedMore) {
            if (c.inPos < c.inBuf.size()) {
                // Mid-frame: start (or keep) the slow-loris clock.
                if (c.partialSinceMs == 0)
                    c.partialSinceMs = steadyNowMs();
            } else {
                c.partialSinceMs = 0;
            }
            break;
        }
        // Damaged: a peer that garbles the stream is beyond recovery —
        // frame boundaries are lost.
        dropClient(fd, "damaged frame");
        return;
    }
    if (c.inPos > 0) {
        c.inBuf.erase(c.inBuf.begin(),
                      c.inBuf.begin() + static_cast<long>(c.inPos));
        c.inPos = 0;
    }
}

bool
CampaignServer::flushClient(Client &c)
{
    while (c.outPos < c.outBuf.size()) {
        ssize_t n = ::send(c.fd, c.outBuf.data() + c.outPos,
                           c.outBuf.size() - c.outPos, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(c.fd, c.outBuf.data() + c.outPos,
                        c.outBuf.size() - c.outPos);
        if (n > 0) {
            c.outPos += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true; // peer slow; POLLOUT resumes us
        return false; // EPIPE/ECONNRESET/...: peer is gone
    }
    c.outBuf.clear();
    c.outPos = 0;
    return true;
}

void
CampaignServer::sendFrame(Client &c, u32 type,
                          const std::vector<u8> &payload)
{
    if (c.dead)
        return;
    std::vector<u8> bytes = encodeFrame(type, payload);
    c.outBuf.insert(c.outBuf.end(), bytes.begin(), bytes.end());
    if (!flushClient(c)) {
        c.dead = true;
        return;
    }
    if (c.outBuf.size() - c.outPos > kMaxOutputBacklog) {
        // A client that stops reading its results must not grow the
        // daemon's memory without bound.
        c.dead = true;
    }
}

void
CampaignServer::sendCellResult(Client &c, const CellResultMsg &msg)
{
    sendFrame(c, kMsgCellResult, encodeCellResult(msg));
}

void
CampaignServer::sendError(Client &c, u32 request_id,
                          const std::string &text)
{
    std::vector<u8> payload;
    put32(payload, request_id);
    payload.insert(payload.end(), text.begin(), text.end());
    sendFrame(c, kMsgError, payload);
}

void
CampaignServer::handleFrame(Client &c, const IpcFrame &frame)
{
    switch (frame.type) {
    case kMsgMatrixRequest:
        handleMatrixRequest(c, frame);
        break;
    case kMsgPing:
        sendFrame(c, kMsgPong, frame.payload);
        break;
    case kMsgStatsRequest:
        handleStats(c);
        break;
    default:
        ++stats_.requestsMalformed;
        sendError(c, 0, strfmt("unknown frame type %u", frame.type));
        break;
    }
}

void
CampaignServer::handleStats(Client &c)
{
    std::string text = statsText();
    sendFrame(c, kMsgStatsReply,
              std::vector<u8>(text.begin(), text.end()));
}

std::string
CampaignServer::statsText() const
{
    size_t queued;
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        queued = workQueue_.size();
    }
    std::string out;
    out += strfmt("daemon=cpserved\n");
    out += strfmt("pid=%ld\n", static_cast<long>(::getpid()));
    out += strfmt("draining=%d\n", draining_ ? 1 : 0);
    out += strfmt("workers=%u\n", cfg_.workers);
    out += strfmt("queueMax=%u\n", cfg_.queueMax);
    out += strfmt("clients=%zu\n", clients_.size());
    out += strfmt("activeRequests=%zu\n", requests_.size());
    out += strfmt("queuedCells=%zu\n", queued);
    out += strfmt("runningCells=%u\n",
                  runningCells_.load(std::memory_order_relaxed));
    out += strfmt("clientsAccepted=%llu\n",
                  (unsigned long long)stats_.clientsAccepted);
    out += strfmt("clientsDropped=%llu\n",
                  (unsigned long long)stats_.clientsDropped);
    out += strfmt("requestsAdmitted=%llu\n",
                  (unsigned long long)stats_.requestsAdmitted);
    out += strfmt("requestsRejected=%llu\n",
                  (unsigned long long)stats_.requestsRejected);
    out += strfmt("requestsMalformed=%llu\n",
                  (unsigned long long)stats_.requestsMalformed);
    out += strfmt("cellsExecuted=%llu\n",
                  (unsigned long long)stats_.cellsExecuted);
    out += strfmt("cellsShared=%llu\n",
                  (unsigned long long)stats_.cellsShared);
    out += strfmt("cellsFromMemo=%llu\n",
                  (unsigned long long)stats_.cellsFromMemo);
    out += strfmt("cellsFromJournal=%llu\n",
                  (unsigned long long)stats_.cellsFromJournal);
    out += strfmt("cellsFailed=%llu\n",
                  (unsigned long long)stats_.cellsFailed);
    out += strfmt("cellsCancelled=%llu\n",
                  (unsigned long long)stats_.cellsCancelled);
    out += strfmt("deadlinesExpired=%llu\n",
                  (unsigned long long)stats_.deadlinesExpired);
    return out;
}

// ---------------------------------------------------------------------
// Request admission and scheduling
// ---------------------------------------------------------------------

void
CampaignServer::handleMatrixRequest(Client &c, const IpcFrame &frame)
{
    MatrixRequestMsg msg;
    if (!decodeMatrixRequest(frame.payload, &msg)) {
        ++stats_.requestsMalformed;
        sendError(c, 0, "malformed matrix request");
        return;
    }
    if (draining_) {
        ++stats_.requestsRejected;
        OverloadedMsg o;
        o.requestId = msg.requestId;
        o.queueMax = cfg_.queueMax;
        o.reason = "draining";
        sendFrame(c, kMsgOverloaded, encodeOverloaded(o));
        return;
    }
    if (msg.cells.empty()) {
        ++stats_.requestsMalformed;
        sendError(c, msg.requestId, "empty matrix");
        return;
    }

    // Resolve every spec before touching any state: a request with one
    // bad cell is rejected whole, never partially run.
    const size_t n = msg.cells.size();
    std::vector<harness::RunRequest> reqs(n);
    std::vector<std::string> keys(n);
    for (size_t i = 0; i < n; ++i) {
        std::string err;
        if (!resolveCellSpec(msg.cells[i], cfg_.allowFaultInjection,
                             &reqs[i], &err)) {
            ++stats_.requestsMalformed;
            sendError(c, msg.requestId,
                      strfmt("cell %zu: %s", i, err.c_str()));
            return;
        }
        keys[i] = harness::cellKey(reqs[i]);
    }

    // Journal replay: the same journal a batch runMatrixCells() of this
    // matrix would write/read, so daemon and batch resume each other.
    std::unique_ptr<harness::MatrixJournal> journal;
    std::vector<std::optional<RunOutcome>> replayed(n);
    if (cfg_.resume) {
        journal = std::make_unique<harness::MatrixJournal>(
            cfg_.cacheDir.empty() ? defaultCacheDir()
                                  : cfg_.cacheDir,
            harness::matrixKey(reqs), n);
        replayed = journal->load(reqs);
    }

    // Admission: count the cells that would consume queue slots. Cells
    // answerable from the journal, the memo, an in-flight execution, or
    // a duplicate within this request are free — admission charges for
    // new work, not for results that already exist.
    std::set<std::string> free_keys;
    for (size_t i = 0; i < n; ++i)
        if (replayed[i])
            free_keys.insert(keys[i]);
    u32 to_enqueue = 0;
    {
        std::set<std::string> fresh;
        for (size_t i = 0; i < n; ++i) {
            if (replayed[i])
                continue;
            const std::string &k = keys[i];
            if (free_keys.count(k) || memo_.count(k) ||
                inflightByKey_.count(k) || fresh.count(k))
                continue;
            fresh.insert(k);
            ++to_enqueue;
        }
    }
    // Outstanding work = cells waiting in the queue plus cells a
    // worker is executing right now; an empty queue with every worker
    // busy is still a loaded daemon.
    size_t depth;
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        depth = workQueue_.size();
    }
    depth += runningCells_.load(std::memory_order_relaxed);
    if (depth + to_enqueue > cfg_.queueMax) {
        ++stats_.requestsRejected;
        OverloadedMsg o;
        o.requestId = msg.requestId;
        o.queuedCells = static_cast<u32>(depth);
        o.queueMax = cfg_.queueMax;
        o.reason =
            strfmt("queue full: %zu outstanding + %u new > max %u",
                   depth, to_enqueue, cfg_.queueMax);
        sendFrame(c, kMsgOverloaded, encodeOverloaded(o));
        return;
    }

    // Admitted. Build the request and serve/enqueue each cell.
    ++stats_.requestsAdmitted;
    const u64 rkey =
        (static_cast<u64>(c.id) << 32) | static_cast<u64>(msg.requestId);
    Request &req = requests_[rkey];
    req.clientFd = c.fd;
    req.requestId = msg.requestId;
    req.reqs = std::move(reqs);
    req.cellKeys = keys;
    req.journal = std::move(journal);
    req.remaining = static_cast<u32>(n);
    u64 deadline = msg.deadlineMs == 0
                       ? cfg_.deadlineMs
                       : std::min(msg.deadlineMs, cfg_.deadlineMs);
    req.deadlineAt = steadyNowMs() + deadline;
    c.requests.push_back(rkey);

    bool enqueued = false;
    for (size_t i = 0; i < n; ++i) {
        const std::string &k = req.cellKeys[i];
        CellResultMsg reply;
        reply.requestId = msg.requestId;
        reply.cellIndex = static_cast<u32>(i);

        if (replayed[i]) {
            reply.source = ResultSource::Journal;
            reply.outcome = *replayed[i];
            sendCellResult(c, reply);
            ++req.okCells;
            --req.remaining;
            ++stats_.cellsFromJournal;
            if (!memo_.count(k)) {
                harness::CellOutcome m;
                m.outcome = *replayed[i];
                memo_.emplace(k, std::move(m));
            }
            continue;
        }
        auto mit = memo_.find(k);
        if (mit != memo_.end()) {
            reply.status = mit->second.status;
            reply.source = ResultSource::Memo;
            reply.outcome = mit->second.outcome;
            sendCellResult(c, reply);
            ++req.okCells;
            --req.remaining;
            ++stats_.cellsFromMemo;
            // Backfill this matrix's journal so a later batch (or
            // restarted daemon) run of the same matrix replays it.
            if (req.journal)
                req.journal->append(i, k, mit->second.outcome);
            continue;
        }
        auto jit = inflightByKey_.find(k);
        if (jit != inflightByKey_.end()) {
            jobs_[jit->second]->subs.push_back(
                {rkey, static_cast<u32>(i), false});
            continue;
        }
        // New work: one job per unique cell key.
        auto job = std::make_unique<Job>();
        job->id = nextJobId_++;
        job->key = k;
        job->subs.push_back({rkey, static_cast<u32>(i), true});
        job->work = std::make_shared<Work>();
        job->work->jobId = job->id;
        job->work->req = req.reqs[i];
        inflightByKey_.emplace(k, job->id);
        {
            std::lock_guard<std::mutex> lock(workMutex_);
            workQueue_.push_back(job->work);
        }
        jobs_.emplace(job->id, std::move(job));
        enqueued = true;
    }
    if (enqueued)
        workCv_.notify_all();
    if (req.remaining == 0)
        finishRequest(rkey, MatrixEndStatus::Ok);
}

void
CampaignServer::finishRequest(u64 rkey, MatrixEndStatus status)
{
    auto it = requests_.find(rkey);
    if (it == requests_.end())
        return;
    Request &req = it->second;
    if (status == MatrixEndStatus::Ok && req.journal &&
        req.failedCells == 0)
        req.journal->compact(req.reqs);
    if (status == MatrixEndStatus::DeadlineExpired)
        ++stats_.deadlinesExpired;
    stats_.cellsCancelled += req.cancelledCells;

    auto cit = clients_.find(req.clientFd);
    if (cit != clients_.end()) {
        MatrixEndMsg end;
        end.requestId = req.requestId;
        end.status = status;
        end.okCells = req.okCells;
        end.failedCells = req.failedCells;
        end.cancelledCells = req.cancelledCells;
        sendFrame(cit->second, kMsgMatrixEnd, encodeMatrixEnd(end));
        auto &open = cit->second.requests;
        for (size_t i = 0; i < open.size(); ++i)
            if (open[i] == rkey) {
                open.erase(open.begin() + static_cast<long>(i));
                break;
            }
    }
    requests_.erase(it);
}

void
CampaignServer::cancelRequestCells(u64 rkey, Request &request)
{
    std::vector<u64> orphaned;
    for (auto &entry : jobs_) {
        Job &job = *entry.second;
        bool had_primary = false;
        for (size_t i = 0; i < job.subs.size();) {
            if (job.subs[i].rkey == rkey) {
                had_primary = had_primary || job.subs[i].primary;
                job.subs.erase(job.subs.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }
        if (had_primary && !job.subs.empty())
            job.subs.front().primary = true; // someone still waits
        if (job.subs.empty())
            orphaned.push_back(entry.first);
    }
    // Orphaned jobs still queued are cancelled outright; ones already
    // running finish and warm the memo for the next asker.
    for (u64 job_id : orphaned) {
        Job &job = *jobs_[job_id];
        bool removed = false;
        {
            std::lock_guard<std::mutex> lock(workMutex_);
            for (size_t i = 0; i < workQueue_.size(); ++i)
                if (workQueue_[i] == job.work) {
                    workQueue_.erase(workQueue_.begin() +
                                     static_cast<long>(i));
                    removed = true;
                    break;
                }
        }
        if (removed) {
            inflightByKey_.erase(job.key);
            jobs_.erase(job_id);
        }
    }
    request.cancelledCells += request.remaining;
    request.remaining = 0;
}

// ---------------------------------------------------------------------
// Completion handling and timers
// ---------------------------------------------------------------------

void
CampaignServer::processCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        batch.swap(done_);
    }
    for (Completion &done : batch) {
        auto it = jobs_.find(done.jobId);
        if (it == jobs_.end())
            continue;
        Job &job = *it->second;
        ++stats_.cellsExecuted;
        if (done.outcome.status.ok())
            memo_[job.key] = done.outcome;
        else
            ++stats_.cellsFailed;

        for (const Job::Sub &sub : job.subs) {
            auto rit = requests_.find(sub.rkey);
            if (rit == requests_.end())
                continue;
            Request &req = rit->second;
            CellResultMsg reply;
            reply.requestId = req.requestId;
            reply.cellIndex = sub.cellIndex;
            reply.status = done.outcome.status;
            reply.source =
                sub.primary ? ResultSource::Executed : ResultSource::Shared;
            reply.outcome = done.outcome.outcome;
            if (!sub.primary)
                ++stats_.cellsShared;
            auto cit = clients_.find(req.clientFd);
            if (cit != clients_.end())
                sendCellResult(cit->second, reply);
            if (done.outcome.status.ok()) {
                ++req.okCells;
                if (req.journal)
                    req.journal->append(sub.cellIndex,
                                        req.cellKeys[sub.cellIndex],
                                        done.outcome.outcome);
            } else {
                ++req.failedCells;
            }
            --req.remaining;
            if (req.remaining == 0)
                finishRequest(sub.rkey, MatrixEndStatus::Ok);
        }
        inflightByKey_.erase(job.key);
        jobs_.erase(it);

        ++executedDone_;
        if (cfg_.exitAfterCells >= 0 &&
            executedDone_ >= cfg_.exitAfterCells) {
            // Simulated kill -9: journal records above are fsync'd; no
            // flushing, no destructors, no goodbye frames.
            ::_exit(42);
        }
    }
}

void
CampaignServer::checkDeadlines(u64 now_ms)
{
    std::vector<u64> expired;
    for (const auto &entry : requests_)
        if (entry.second.remaining > 0 &&
            now_ms >= entry.second.deadlineAt)
            expired.push_back(entry.first);
    for (u64 rkey : expired) {
        auto it = requests_.find(rkey);
        if (it == requests_.end())
            continue;
        cancelRequestCells(rkey, it->second);
        finishRequest(rkey, MatrixEndStatus::DeadlineExpired);
    }

    std::vector<int> stalled;
    for (const auto &entry : clients_)
        if (entry.second.partialSinceMs != 0 &&
            now_ms >= entry.second.partialSinceMs +
                          static_cast<u64>(cfg_.stallMs))
            stalled.push_back(entry.first);
    for (int fd : stalled)
        dropClient(fd, "stalled mid-frame");
}

} // namespace service
} // namespace cps
