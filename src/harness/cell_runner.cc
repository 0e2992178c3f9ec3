#include "cell_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/byteio.hh"
#include "common/ipc_frame.hh"
#include "common/logging.hh"
#include "common/socket.hh"

namespace cps
{
namespace harness
{

namespace
{

/** Frame type of a worker's result envelope. */
constexpr u32 kFrameResult = 1;

/** Result envelopes are ~100 bytes; anything past this is garbage. */
constexpr size_t kMaxResultPayload = 1u << 20;

/** Envelope format version (bump on any field change). */
constexpr u8 kEnvelopeVersion = 2;

/**
 * fork(2) from a threaded parent is safe for the child only if no
 * other thread is mid-fork mutating shared process state at that
 * instant; serializing the forks (workers still run concurrently)
 * keeps the window as small as possible.
 */
std::mutex forkMutex;

/**
 * Write ends of every in-flight cell's result pipe, guarded by
 * forkMutex. A worker forked while another cell's pipe is open
 * inherits that pipe's write end; unless each new child closes these
 * foreign fds, a long-lived worker keeps a dead sibling's pipe from
 * ever reaching EOF, and the dead cell's parent waits out its whole
 * deadline and misreports the crash as a timeout.
 */
std::vector<int> liveResultPipes;

/**
 * Parent-process fds (listening sockets, client connections, event
 * pipes) that every forked worker must close — see
 * registerWorkerCloseFd. Guarded by forkMutex like liveResultPipes.
 */
std::vector<int> workerCloseFds;

/** Closes and deregisters a result-pipe write end (parent side). */
void
closeResultPipe(int fd)
{
    std::lock_guard<std::mutex> lock(forkMutex);
    ::close(fd);
    liveResultPipes.erase(std::remove(liveResultPipes.begin(),
                                      liveResultPipes.end(), fd),
                          liveResultPipes.end());
}

u64
bitsOfDouble(double v)
{
    u64 bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
doubleOfBits(u64 bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** Runs the cell's simulation in this process (worker or inline). */
RunOutcome
executeCell(const RunRequest &req)
{
    return runMachine(*req.bench, req.cfg, req.maxInsns, req.mode);
}

/** Dies by SIGABRT with the default disposition restored: a
 *  sanitizer's SIGABRT report handler would run on the forked child's
 *  inherited lock state and can deadlock instead of dying, turning an
 *  injected crash into a timeout. */
[[noreturn]] void
hardAbort()
{
    ::signal(SIGABRT, SIG_DFL);
    std::abort();
}

/** Applies a worker-side injected fault; may never return. */
void
applyWorkerFault(CellFault fault, unsigned attempt, u32 delay_ms)
{
    switch (fault) {
      case CellFault::None:
      case CellFault::Garble: // handled at result-write time
        return;
      case CellFault::SlowResult:
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        return;
      case CellFault::Crash:
        hardAbort();
      case CellFault::CrashOnce:
        if (attempt == 0)
            hardAbort();
        return;
      case CellFault::KillSelf:
        ::kill(::getpid(), SIGKILL);
        // The signal is not guaranteed to be delivered before the next
        // instruction; wait for it rather than racing on.
        for (;;)
            ::pause();
      case CellFault::Hang:
        for (;;)
            ::pause();
      case CellFault::ExitNonzero:
        ::_exit(3);
    }
}

/** Reaps @p pid, blocking. Returns the raw wait status (or -1). */
int
reap(pid_t pid)
{
    int status = -1;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return status;
}

/** Kills @p pid with SIGKILL and reaps it. */
void
killAndReap(pid_t pid)
{
    ::kill(pid, SIGKILL);
    reap(pid);
}

CellOutcome
failure(CellState state, unsigned attempt, std::string detail)
{
    CellOutcome out;
    out.status.state = state;
    out.status.attempts = attempt + 1;
    out.status.detail = std::move(detail);
    return out;
}

/** Folds a completed RunOutcome into a CellOutcome, surfacing an
 *  in-simulator watchdog stall as a structured failure. */
CellOutcome
fromRunOutcome(RunOutcome run, unsigned attempt)
{
    CellOutcome out;
    out.outcome = std::move(run);
    out.status.attempts = attempt + 1;
    if (out.outcome.result.status == RunStatus::Stalled) {
        out.status.state = CellState::Stalled;
        out.status.detail = out.outcome.result.statusDetail;
    } else if (out.outcome.result.status == RunStatus::DecodeFault) {
        out.status.state = CellState::DecodeFault;
        out.status.detail = out.outcome.result.statusDetail;
    }
    return out;
}

} // namespace

void
registerWorkerCloseFd(int fd)
{
    std::lock_guard<std::mutex> lock(forkMutex);
    if (std::find(workerCloseFds.begin(), workerCloseFds.end(), fd) ==
        workerCloseFds.end())
        workerCloseFds.push_back(fd);
}

void
unregisterWorkerCloseFd(int fd)
{
    std::lock_guard<std::mutex> lock(forkMutex);
    workerCloseFds.erase(std::remove(workerCloseFds.begin(),
                                     workerCloseFds.end(), fd),
                         workerCloseFds.end());
}

const char *
cellStateName(CellState state)
{
    switch (state) {
      case CellState::Ok:
        return "ok";
      case CellState::Crashed:
        return "crashed";
      case CellState::ExitedError:
        return "exited";
      case CellState::Timeout:
        return "timeout";
      case CellState::ProtocolError:
        return "protocol-error";
      case CellState::Stalled:
        return "stalled";
      case CellState::DecodeFault:
        return "decode-fault";
    }
    return "?";
}

std::string
CellStatus::describe() const
{
    std::string what;
    switch (state) {
      case CellState::Ok:
        what = fromJournal ? "ok (journal)" : "ok";
        break;
      case CellState::Crashed:
        what = strfmt("crashed (signal %d)", termSignal);
        break;
      case CellState::ExitedError:
        what = strfmt("exited (code %d)", exitCode);
        break;
      case CellState::Timeout:
        what = "timed out";
        break;
      case CellState::ProtocolError:
        what = "protocol error";
        break;
      case CellState::Stalled:
        what = "stalled";
        break;
      case CellState::DecodeFault:
        what = "decode fault";
        break;
    }
    if (attempts > 1)
        what += strfmt(" after %u attempts", attempts);
    if (!detail.empty())
        what += ": " + detail;
    return what;
}

std::string
failLabel(const CellStatus &status)
{
    switch (status.state) {
      case CellState::Ok:
        return "ok";
      case CellState::Crashed:
        return strfmt("FAILED(sig=%d)", status.termSignal);
      case CellState::ExitedError:
        return strfmt("FAILED(exit=%d)", status.exitCode);
      case CellState::Timeout:
        return "FAILED(timeout)";
      case CellState::ProtocolError:
        return "FAILED(protocol)";
      case CellState::Stalled:
        return "FAILED(stall)";
      case CellState::DecodeFault:
        return "FAILED(decode-fault)";
    }
    return "FAILED(?)";
}

const CellRunnerConfig &
CellRunnerConfig::fromEnv()
{
    static const CellRunnerConfig cached = [] {
        CellRunnerConfig cfg;
        if (const char *env = std::getenv("CPS_ISOLATE"))
            cfg.isolate = std::string(env) != "0";
        cfg.timeoutMs = static_cast<long>(envUnsigned(
            "CPS_CELL_TIMEOUT_MS", 0, 0, 1ull << 40, "an unsigned integer"));
        cfg.retries = static_cast<unsigned>(envUnsigned(
            "CPS_CELL_RETRIES", 1, 0, 100, "an unsigned integer"));
        cfg.backoffMs = static_cast<unsigned>(envUnsigned(
            "CPS_CELL_BACKOFF_MS", 100, 0, 1ull << 20, "an unsigned integer"));
        return cfg;
    }();
    return cached;
}

std::vector<u8>
encodeRunOutcome(const RunOutcome &out)
{
    std::vector<u8> bytes;
    put8(bytes, kEnvelopeVersion);
    put64(bytes, out.result.instructions);
    put64(bytes, out.result.cycles);
    put8(bytes, out.result.programExited ? 1 : 0);
    put8(bytes, static_cast<u8>(out.result.status));
    put32(bytes, static_cast<u32>(out.result.statusDetail.size()));
    bytes.insert(bytes.end(), out.result.statusDetail.begin(),
                 out.result.statusDetail.end());
    put64(bytes, bitsOfDouble(out.icacheMissRate));
    put64(bytes, bitsOfDouble(out.indexCacheMissRate));
    put64(bytes, out.icacheMisses);
    put64(bytes, out.bufferHits);
    put64(bytes, out.missLatencyTotal);
    put64(bytes, out.prefetchIssued);
    put64(bytes, out.prefetchHits);
    return bytes;
}

Result<RunOutcome>
decodeRunOutcomeChecked(const std::vector<u8> &bytes)
{
    ByteCursor cur(bytes);
    u8 version = cur.get8();
    if (!cur.ok() || version != kEnvelopeVersion) {
        return decodeErrorAtByte(DecodeStatus::BadVersion, 0,
                                 "result envelope version %u (want %u)",
                                 version, kEnvelopeVersion);
    }
    RunOutcome out;
    out.result.instructions = cur.get64();
    out.result.cycles = cur.get64();
    out.result.programExited = cur.get8() != 0;
    u8 status = cur.get8();
    if (!cur.ok() || status > static_cast<u8>(RunStatus::DecodeFault)) {
        return decodeErrorAtByte(DecodeStatus::Malformed, cur.pos(),
                                 "bad run status %u", status);
    }
    out.result.status = static_cast<RunStatus>(status);
    u32 detail_len = cur.get32();
    out.result.statusDetail = cur.getString(detail_len);
    out.icacheMissRate = doubleOfBits(cur.get64());
    out.indexCacheMissRate = doubleOfBits(cur.get64());
    out.icacheMisses = cur.get64();
    out.bufferHits = cur.get64();
    out.missLatencyTotal = cur.get64();
    out.prefetchIssued = cur.get64();
    out.prefetchHits = cur.get64();
    if (!cur.ok() || cur.remaining() != 0) {
        return decodeErrorAtByte(DecodeStatus::Truncated, cur.pos(),
                                 "result envelope truncated or oversized");
    }
    return out;
}

std::string
cellKey(const RunRequest &req)
{
    cps_assert(req.bench != nullptr && req.bench->profile != nullptr,
               "cellKey on request without bench");
    const MachineConfig &c = req.cfg;
    const PipelineConfig &p = c.pipeline;
    // Note: decomp keys the protection kind and its cycle costs, not
    // the soft-error domain pointer — a run with live fault injection
    // is not cacheable and must bypass the journal.
    std::string key = strfmt(
        "cell3;insns=%llu;mode=%u;machine=%s;"
        "pipe=%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u;"
        "ic=%u,%u,%u,%u;dc=%u,%u,%u,%u;mem=%u,%llu,%llu;model=%u;"
        "decomp=%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u;"
        "sw=%llu,%llu,%llu,%llu,%u,%u;",
        static_cast<unsigned long long>(req.maxInsns),
        static_cast<unsigned>(req.mode), c.name.c_str(),
        p.inOrder ? 1u : 0u, p.width, p.fetchQueue, p.ruuSize, p.lsqSize,
        p.numAlu, p.numMult, p.numMemPorts, p.numFpAlu, p.numFpMult,
        static_cast<unsigned>(p.predictor), p.mispredictExtra,
        c.icache.sizeBytes, c.icache.lineBytes, c.icache.assoc,
        static_cast<unsigned>(c.icache.policy),
        c.dcache.sizeBytes, c.dcache.lineBytes, c.dcache.assoc,
        static_cast<unsigned>(c.dcache.policy),
        c.mem.busWidthBits,
        static_cast<unsigned long long>(c.mem.firstAccess),
        static_cast<unsigned long long>(c.mem.beatRate),
        static_cast<unsigned>(c.codeModel),
        c.decomp.indexCacheLines, c.decomp.indexesPerLine,
        c.decomp.perfectIndexCache ? 1u : 0u,
        c.decomp.burstIndexFill ? 1u : 0u, c.decomp.decodeRate,
        static_cast<unsigned>(c.decomp.prefetch), c.decomp.prefetchDepth,
        static_cast<unsigned>(c.decomp.indexReplacement),
        c.decomp.indexCacheSets,
        static_cast<unsigned>(c.decomp.protect), c.decomp.eccCheckCycles,
        c.decomp.eccCorrectCycles,
        static_cast<unsigned long long>(c.software.trapOverhead),
        static_cast<unsigned long long>(c.software.cyclesPerInsn),
        static_cast<unsigned long long>(c.software.copyCyclesPerInsn),
        static_cast<unsigned long long>(c.software.returnOverhead),
        static_cast<unsigned>(c.software.prefetch),
        c.software.prefetchDepth);
    // The watchdog can change a cell's outcome (a stall aborts), so its
    // knobs are inputs too.
    key += strfmt("wd=%llu,%u;",
                  static_cast<unsigned long long>(p.watchdogInterval),
                  p.watchdogStallLimit);
    return key + benchProgramKey(*req.bench->profile);
}

std::string
matrixKey(const std::vector<RunRequest> &requests)
{
    // Full cell keys would make the matrix key megabytes long; their
    // hashes spread just as well, and each journal record re-checks its
    // own cell-key hash anyway.
    std::string key =
        strfmt("matrix1;cells=%zu;", requests.size());
    for (const RunRequest &req : requests)
        key += ArtifactCache::keyHash(cellKey(req)) + ";";
    return key;
}

CellOutcome
CellRunner::run(const RunRequest &req) const
{
    CellOutcome out;
    for (unsigned attempt = 0;; ++attempt) {
        out = runAttempt(req, attempt);
        if (out.status.ok())
            return out;
        // A watchdog stall or a decode fault is a deterministic
        // property of the cell; re-running it would fail identically.
        if (out.status.state == CellState::Stalled ||
            out.status.state == CellState::DecodeFault)
            return out;
        if (attempt >= cfg_.retries)
            return out;
        unsigned delay = cfg_.backoffMs << attempt;
        if (cfg_.backoffMs > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
}

CellOutcome
CellRunner::runAttempt(const RunRequest &req, unsigned attempt) const
{
    cps_assert(req.bench != nullptr, "cell run without bench");
    return cfg_.isolate ? runIsolated(req, attempt)
                        : runInline(req, attempt);
}

CellOutcome
CellRunner::runInline(const RunRequest &req, unsigned attempt) const
{
    // Inline faults are applied honestly — a crash really crashes the
    // process. Tests inject faults only under isolation; the fault
    // campaign refuses to run inline.
    applyWorkerFault(req.injectFault, attempt, req.faultDelayMs);
    return fromRunOutcome(executeCell(req), attempt);
}

CellOutcome
CellRunner::runIsolated(const RunRequest &req, unsigned attempt) const
{
    int fds[2];
    pid_t pid;
    const pid_t parent = ::getpid();
    {
        // Pipe creation, write-end registration and fork happen under
        // one lock so every child sees a complete registry of the
        // write ends it inherited.
        std::lock_guard<std::mutex> lock(forkMutex);
        if (::pipe(fds) != 0) {
            return failure(CellState::ProtocolError, attempt,
                           strfmt("pipe: %s", std::strerror(errno)));
        }
        liveResultPipes.push_back(fds[1]);
        pid = ::fork();
        if (pid == 0) {
            for (int fd : liveResultPipes)
                if (fd != fds[1])
                    ::close(fd);
            for (int fd : workerCloseFds)
                ::close(fd);
        }
    }
    if (pid < 0) {
        int err = errno;
        ::close(fds[0]);
        closeResultPipe(fds[1]);
        return failure(CellState::ProtocolError, attempt,
                       strfmt("fork: %s", std::strerror(err)));
    }

    if (pid == 0) {
        // ------------------------------------------------------ worker
        // A worker must not outlive the process that forked it: no one
        // is left to read its result, and a worker blocked on a lock
        // another thread held at fork time (ASan's allocator locks are
        // not fork-safe) would hold its inherited pipes open forever.
        // The forking thread always reaps its worker before returning,
        // so the signal fires only once the whole parent is gone.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(1); // the parent died before prctl took effect
        ::close(fds[0]);
        // A parent that timed out and closed its read end must turn
        // the result write into a plain failed write, not SIGPIPE.
        ignoreSigpipe();
        applyWorkerFault(req.injectFault, attempt, req.faultDelayMs);
        RunOutcome run = executeCell(req);
        std::vector<u8> payload = encodeRunOutcome(run);
        if (req.injectFault == CellFault::Garble) {
            // Ship a frame whose payload byte was flipped after the CRC
            // was computed: structurally present, verifiably wrong.
            std::vector<u8> frame = encodeFrame(kFrameResult, payload);
            frame[frame.size() / 2] ^= 0xA5;
            size_t sent = 0;
            while (sent < frame.size()) {
                ssize_t w = ::write(fds[1], frame.data() + sent,
                                    frame.size() - sent);
                if (w <= 0)
                    break;
                sent += static_cast<size_t>(w);
            }
            ::_exit(0);
        }
        writeFrame(fds[1], kFrameResult, payload);
        // _exit keeps the forked copy from re-running atexit handlers
        // and static destructors that belong to the parent.
        ::_exit(0);
    }

    // ------------------------------------------------------- parent
    closeResultPipe(fds[1]);
    IpcFrame frame;
    FrameReadStatus rst =
        readFrame(fds[0], frame, cfg_.timeoutMs > 0 ? cfg_.timeoutMs : -1,
                  kMaxResultPayload);
    ::close(fds[0]);

    switch (rst) {
      case FrameReadStatus::Ok: {
        if (frame.type != kFrameResult) {
            killAndReap(pid);
            return failure(CellState::ProtocolError, attempt,
                           strfmt("unexpected frame type %u", frame.type));
        }
        Result<RunOutcome> decoded = decodeRunOutcomeChecked(frame.payload);
        if (!decoded) {
            killAndReap(pid);
            return failure(CellState::ProtocolError, attempt,
                           "bad result envelope: " +
                               decoded.error().describe());
        }
        int wait_status = reap(pid);
        if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
            // The result arrived but the worker then died — e.g. a
            // sanitizer failing the process during teardown. Trust the
            // exit status over the bytes.
            if (WIFSIGNALED(wait_status)) {
                CellOutcome out = failure(
                    CellState::Crashed, attempt,
                    "worker died after writing its result");
                out.status.termSignal = WTERMSIG(wait_status);
                return out;
            }
            CellOutcome out = failure(CellState::ExitedError, attempt,
                                      "worker exited nonzero after "
                                      "writing its result");
            out.status.exitCode =
                WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
            return out;
        }
        return fromRunOutcome(std::move(*decoded), attempt);
      }
      case FrameReadStatus::Eof: {
        int wait_status = reap(pid);
        if (WIFSIGNALED(wait_status)) {
            CellOutcome out =
                failure(CellState::Crashed, attempt,
                        strfmt("worker killed by signal %d",
                               WTERMSIG(wait_status)));
            out.status.termSignal = WTERMSIG(wait_status);
            return out;
        }
        if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) != 0) {
            CellOutcome out =
                failure(CellState::ExitedError, attempt,
                        strfmt("worker exited with code %d",
                               WEXITSTATUS(wait_status)));
            out.status.exitCode = WEXITSTATUS(wait_status);
            return out;
        }
        return failure(CellState::ProtocolError, attempt,
                       "worker exited cleanly without a result");
      }
      case FrameReadStatus::Timeout:
        killAndReap(pid);
        return failure(CellState::Timeout, attempt,
                       strfmt("no result within %ld ms", cfg_.timeoutMs));
      case FrameReadStatus::Torn:
        killAndReap(pid);
        return failure(CellState::ProtocolError, attempt,
                       "result stream torn or garbled");
      case FrameReadStatus::IoError:
        killAndReap(pid);
        return failure(CellState::ProtocolError, attempt,
                       "result stream I/O error");
    }
    killAndReap(pid);
    return failure(CellState::ProtocolError, attempt, "unreachable");
}

} // namespace harness
} // namespace cps
