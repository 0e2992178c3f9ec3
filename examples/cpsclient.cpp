/**
 * @file
 * cpsclient: command-line client of the cpserved campaign daemon.
 *
 *   cpsclient ping                         liveness probe
 *   cpsclient stats                        daemon introspection
 *   cpsclient run go,gcc --models native,codepack [--base 4]
 *                 [--insns N] [--deadline MS]
 *
 * The socket path comes from CPS_SERVE_SOCKET (default cpserved.sock).
 * `run` streams one line per cell as the daemon delivers it, annotated
 * with where the result came from (executed / shared / memo / journal),
 * and exits nonzero if the request was rejected, truncated, or any
 * cell failed — same contract as the batch table binaries.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "service/client.hh"

using namespace cps;
using namespace cps::service;

namespace
{

const char *
socketPath()
{
    const char *env = std::getenv("CPS_SERVE_SOCKET");
    return env && *env ? env : "cpserved.sock";
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= arg.size()) {
        size_t comma = arg.find(',', start);
        if (comma == std::string::npos)
            comma = arg.size();
        if (comma > start)
            out.push_back(arg.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

bool
parseModel(const std::string &name, u8 *out)
{
    struct Entry
    {
        const char *name;
        CodeModel model;
    };
    static const Entry kModels[] = {
        {"native", CodeModel::Native},
        {"codepack", CodeModel::CodePack},
        {"codepack-opt", CodeModel::CodePackOptimized},
        {"codepack-sw", CodeModel::CodePackSoftware},
        {"native-prefetch", CodeModel::NativePrefetch},
    };
    for (const Entry &e : kModels)
        if (name == e.name) {
            *out = static_cast<u8>(e.model);
            return true;
        }
    return false;
}

const char *
modelName(u8 model)
{
    switch (static_cast<CodeModel>(model)) {
    case CodeModel::Native:
        return "native";
    case CodeModel::CodePack:
        return "codepack";
    case CodeModel::CodePackOptimized:
        return "codepack-opt";
    case CodeModel::CodePackSoftware:
        return "codepack-sw";
    case CodeModel::NativePrefetch:
        return "native-prefetch";
    default:
        return "?";
    }
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cpsclient ping | stats | run <bench[,bench...]>\n"
        "           [--models native,codepack,...] [--base 1|4|8]\n"
        "           [--insns N] [--deadline MS]\n"
        "socket: $CPS_SERVE_SOCKET (default cpserved.sock)\n");
    return 2;
}

/**
 * Parses the `run` arguments into @p msg. Returns 0 on success, else the
 * exit code of the usage error (reported before any connection).
 */
int
parseRun(int argc, char **argv, MatrixRequestMsg &msg)
{
    std::vector<std::string> benches = splitCommas(argv[0]);
    std::vector<u8> models = {static_cast<u8>(CodeModel::CodePack)};
    BaseMachine base = BaseMachine::Issue4;
    u64 insns = 0;
    u64 deadline_ms = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--models" && value) {
            models.clear();
            for (const std::string &name : splitCommas(value)) {
                u8 model;
                if (!parseModel(name, &model)) {
                    std::fprintf(stderr, "unknown model \"%s\"\n",
                                 name.c_str());
                    return 2;
                }
                models.push_back(model);
            }
            ++i;
        } else if (arg == "--base" && value) {
            u64 b = parseUnsigned(value, 1, 8).value_or(0);
            if (b == 1)
                base = BaseMachine::Issue1;
            else if (b == 4)
                base = BaseMachine::Issue4;
            else if (b == 8)
                base = BaseMachine::Issue8;
            else {
                std::fprintf(stderr, "bad --base %s\n", value);
                return 2;
            }
            ++i;
        } else if (arg == "--insns" && value) {
            insns = argUnsigned("--insns", value, 0, UINT64_MAX);
            ++i;
        } else if (arg == "--deadline" && value) {
            deadline_ms = argUnsigned("--deadline", value, 0, UINT64_MAX);
            ++i;
        } else {
            return usage();
        }
    }
    if (benches.empty() || models.empty())
        return usage();

    msg.requestId = static_cast<u32>(::getpid());
    msg.deadlineMs = deadline_ms;
    for (const std::string &bench : benches)
        for (u8 model : models) {
            CellSpec cell;
            cell.bench = bench;
            cell.base = base;
            cell.codeModel = model;
            cell.maxInsns = insns;
            msg.cells.push_back(cell);
        }
    return 0;
}

int
cmdRun(ServiceClient &client, const MatrixRequestMsg &msg)
{
    MatrixReply reply = client.runMatrix(msg, 600000);
    if (reply.overloaded) {
        std::fprintf(stderr,
                     "OVERLOADED: %s (queued=%u max=%u) — retry later\n",
                     reply.overload.reason.c_str(),
                     reply.overload.queuedCells, reply.overload.queueMax);
        return 3;
    }
    for (const CellResultMsg &cell : reply.cells) {
        const CellSpec &spec = msg.cells[cell.cellIndex % msg.cells.size()];
        if (cell.status.ok())
            std::printf("%-10s %-16s %10llu cycles  ipc %.3f  [%s]\n",
                        spec.bench.c_str(), modelName(spec.codeModel),
                        (unsigned long long)cell.outcome.result.cycles,
                        cell.outcome.result.ipc(),
                        resultSourceName(cell.source));
        else
            std::printf("%-10s %-16s FAILED: %s\n", spec.bench.c_str(),
                        modelName(spec.codeModel),
                        cell.status.describe().c_str());
    }
    if (!reply.error.empty()) {
        std::fprintf(stderr, "cpsclient: %s\n", reply.error.c_str());
        return 1;
    }
    if (reply.ended && reply.end.status != MatrixEndStatus::Ok) {
        std::fprintf(stderr,
                     "request truncated (%s): ok=%u failed=%u "
                     "cancelled=%u\n",
                     reply.end.status == MatrixEndStatus::DeadlineExpired
                         ? "deadline expired"
                         : "daemon drained",
                     reply.end.okCells, reply.end.failedCells,
                     reply.end.cancelledCells);
        return 1;
    }
    return reply.allOk() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    // Every argument is checked before the daemon is contacted, so a
    // malformed flag is a usage error whether or not one is running.
    std::string cmd = argv[1];
    MatrixRequestMsg msg;
    if (cmd == "run") {
        if (argc < 3)
            return usage();
        if (int rc = parseRun(argc - 2, argv + 2, msg))
            return rc;
    } else if (cmd != "ping" && cmd != "stats") {
        return usage();
    }

    ServiceClient client;
    if (!client.connect(socketPath(), 5000)) {
        std::fprintf(stderr, "cpsclient: cannot connect to %s\n",
                     socketPath());
        return 1;
    }

    if (cmd == "ping") {
        bool ok = client.ping(5000);
        std::printf("%s\n", ok ? "alive" : "no pong");
        return ok ? 0 : 1;
    }
    if (cmd == "stats") {
        std::string text = client.stats(5000);
        if (text.empty()) {
            std::fprintf(stderr, "cpsclient: stats failed\n");
            return 1;
        }
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    return cmdRun(client, msg);
}
