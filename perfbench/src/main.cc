/**
 * @file
 * The repository benchmark program. One process runs one workload for a
 * fixed measuring time and prints, as its last stdout line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload table-matrix|miss-path|cold-build --seed N
 *             --seconds S --trace 0|1 --work-dir DIR --pins FILE
 *             [--pin-out FILE] [--commit SHA] [--src-digest HEX]
 *
 * --trace 0 reports the end-to-end metrics (setup_s, wall_s,
 * sim_minsn_per_s, peak_rss_mb); --trace 1 runs the layer-timed pass
 * instead and reports the per-layer metrics. perfbench/README.md says
 * why each workload exists and which layer metric should move which
 * end-to-end metric.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "codepack/decompressor.hh"
#include "common/logging.hh"
#include "perfbench.hh"

extern char **environ;

using namespace cps;
using namespace perfbench;

namespace
{

/** Setup repeats of the warm workloads; setup_s is their median. */
constexpr int kWarmSetupRepeats = 5;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

/**
 * Removes every inherited CPS_* knob before any library reads one, so
 * each run uses the repository's defaults. Returns the names removed.
 */
std::vector<std::string>
clearInheritedKnobs()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "CPS_", 4) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? static_cast<size_t>(eq - *e)
                                      : std::strlen(*e));
        }
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    return names;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "table-matrix|miss-path|cold-build --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --pins FILE [--pin-out FILE] "
                 "[--commit SHA] [--src-digest HEX]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            if (!parseWorkload(val, opt.workload))
                usage(("unknown workload " + val).c_str());
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(opt.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (key == "--work-dir") {
            opt.workDir = val;
        } else if (key == "--pins") {
            opt.pins = val;
        } else if (key == "--pin-out") {
            opt.pinOut = val;
        } else if (key == "--commit") {
            opt.commit = val;
        } else if (key == "--src-digest") {
            opt.srcDigest = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!have_workload || opt.workDir.empty() || opt.pins.empty())
        usage("--workload, --work-dir and --pins are required");
    return opt;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Moves the calling thread to the next CPU it may use, round-robin, and
 * restores its CPU set when destroyed. Host speed shifts per CPU for up
 * to a minute at a time (README.md, "Steadiness"), so the one-worker
 * workload changes CPU every pass and its fastest pass samples them all.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        sched_getaffinity(0, sizeof(allowed_), &allowed_);
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
    }
    ~CpuRotation() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** The untraced run: the end-to-end metrics. */
std::vector<Metric>
runUntraced(const Options &opt, Tally &tally, Reference &ref,
            const std::string &cache_dir)
{
    const std::vector<BenchmarkProfile> profiles =
        workloadProfiles(opt.workload, opt.seed);
    const bool standard = opt.seed == 0;
    const std::vector<CellSpec> cells = workloadCells(opt.workload, profiles);
    const unsigned workers =
        opt.workload == Workload::MissPath ? 1 : hostWorkers();

    const std::vector<std::pair<size_t, size_t>> groups = groupRanges(cells);
    // Per pass: its total time; per group: its time in every pass.
    std::vector<double> setup, wall;
    std::vector<std::vector<double>> group_s(groups.size());
    double pass_insns = 0;
    using Benches = std::vector<std::unique_ptr<BenchProgram>>;
    auto buildAll = [&](const ArtifactCache &cache) {
        Benches benches;
        for (const BenchmarkProfile &p : profiles)
            benches.push_back(buildBench(p, standard, cache));
        return benches;
    };
    auto verifyAll = [&](const Benches &benches) {
        for (const auto &b : benches) {
            std::string why = verifyBench(*b);
            if (!why.empty())
                std::fprintf(stderr, "perfbench: %s: %s\n",
                             b->profile->name.c_str(), why.c_str());
            tally.record(why.empty());
        }
    };
    auto runCells = [&](const Benches &benches) {
        const std::vector<harness::RunRequest> reqs =
            makeRequests(cells, benches);
        double pass_s = 0;
        pass_insns = 0;
        for (size_t g = 0; g < groups.size(); ++g) {
            auto [first, last] = groups[g];
            releaseFreedHeap();
            Clock::time_point t0 = Clock::now();
            std::vector<harness::CellOutcome> outs = harness::runMatrixCells(
                {reqs.begin() + first, reqs.begin() + last}, workers);
            group_s[g].push_back(secondsSince(t0));
            pass_s += group_s[g].back();
            for (size_t i = first; i < last; ++i) {
                const harness::CellOutcome &c = outs[i - first];
                tally.record(ref.check(cells[i].label, c));
                pass_insns +=
                    static_cast<double>(c.outcome.result.instructions);
            }
        }
        wall.push_back(pass_s);
    };

    if (opt.workload == Workload::ColdBuild) {
        // Each pass: empty cache, six builds one after another, then
        // the Table 1 cells over the fresh artifacts.
        Clock::time_point start = Clock::now();
        double last = 0;
        do {
            Clock::time_point pass = Clock::now();
            std::filesystem::remove_all(cache_dir);
            ArtifactCache cache(cache_dir, true);
            Clock::time_point t0 = Clock::now();
            Benches benches = buildAll(cache);
            setup.push_back(secondsSince(t0));
            verifyAll(benches);
            runCells(benches);
            last = secondsSince(pass);
        } while (secondsSince(start) + last <= opt.seconds);
    } else {
        // Fill the private cache once, then time verified warm loads.
        ArtifactCache cache(cache_dir, true);
        Benches benches = buildAll(cache);
        for (int k = 0; k < kWarmSetupRepeats; ++k) {
            benches.clear();
            Clock::time_point t0 = Clock::now();
            benches = buildAll(cache);
            setup.push_back(secondsSince(t0));
        }
        verifyAll(benches);
        CpuRotation cpus;
        Clock::time_point start = Clock::now();
        do {
            if (workers == 1)
                cpus.next();
            runCells(benches);
        } while (secondsSince(start) + wall.back() <= opt.seconds);
    }

    auto report = [](const char *name, const std::vector<double> &v,
                     const char *unit, double value) {
        auto [q1, q3] = quartiles(v);
        std::printf("  %-16s %12.6f %-8s (median %.6f, q1 %.6f, q3 %.6f, "
                    "n=%zu)\n",
                    name, value, unit, median(v), q1, q3, v.size());
    };
    // Host speed on a shared VM shifts between regimes that last from
    // seconds to a minute, so a pass's median drifts by up to 25%
    // between runs. Interference only ever slows a group down, so the
    // sum of each group's fastest time is the steadier estimate of the
    // work's own cost. README.md, "Steadiness", has the measurements.
    double best_wall = 0;
    for (const std::vector<double> &times : group_s)
        best_wall += *std::min_element(times.begin(), times.end());
    const double best_rate = pass_insns / best_wall / 1e6;
    std::printf("  %zu cells in %zu runMatrixCells call(s) per pass on %u "
                "worker(s), %llu insns each\n",
                cells.size(), groups.size(), workers,
                static_cast<unsigned long long>(Suite::runInsns()));
    report("setup_s", setup, "s", median(setup));
    report("wall_s", wall, "s", best_wall);
    const double peak_rss = peakRssMb();
    std::printf("  %-16s %12.6f %s\n", "sim_minsn_per_s", best_rate,
                "Minsn/s");
    std::printf("  %-16s %12.6f %s\n", "peak_rss_mb", peak_rss, "MB");
    return {
        {"setup_s", median(setup), "s"},
        {"wall_s", best_wall, "s"},
        {"sim_minsn_per_s", best_rate, "Minsn/s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> cleared = clearInheritedKnobs();
    const Options opt = parseArgs(argc, argv);

    // A private directory per process: its own artifact cache, never the
    // shared ./.cps-cache, removed when the run ends.
    const std::string name = workloadName(opt.workload);
    const std::filesystem::path run_dir =
        std::filesystem::path(opt.workDir) /
        strfmt("%s-%d", name.c_str(), static_cast<int>(getpid()));
    const std::string cache_dir = (run_dir / "cache").string();
    std::filesystem::remove_all(run_dir);
    std::filesystem::create_directories(run_dir);

    std::string cleared_json = "[";
    for (size_t i = 0; i < cleared.size(); ++i)
        cleared_json += (i ? ", " : "") + jsonString(cleared[i]);
    cleared_json += "]";
    const std::string provenance = strfmt(
        "{\"nproc\": %u, \"compiler\": %s, \"build_flags\": %s, "
        "\"commit\": %s, \"src_digest\": %s, \"decode_kernel\": %s, "
        "\"insns_per_cell\": %llu, \"seed\": %llu, \"cleared_knobs\": %s}",
        hostWorkers(), jsonString(PERFBENCH_COMPILER).c_str(),
        jsonString(PERFBENCH_FLAGS).c_str(), jsonString(opt.commit).c_str(),
        jsonString(opt.srcDigest).c_str(),
        jsonString(codepack::decodeKernelName(
                       codepack::defaultDecodeKernel()))
            .c_str(),
        static_cast<unsigned long long>(Suite::runInsns()), opt.seed,
        cleared_json.c_str());

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", name.c_str(),
                opt.seed, opt.seconds, opt.trace ? 1 : 0);
    std::printf("  provenance %s\n", provenance.c_str());
    std::fflush(stdout);

    Tally tally;
    Reference ref(opt.seed == 0, opt.pins);
    std::vector<Metric> metrics =
        opt.trace ? runTraced(opt, tally, ref, cache_dir, provenance)
                  : runUntraced(opt, tally, ref, cache_dir);
    std::filesystem::remove_all(run_dir);

    for (const std::string &p : ref.problems())
        std::fprintf(stderr, "perfbench: mismatch: %s\n", p.c_str());
    if (!opt.pinOut.empty() && !ref.writeSeen(opt.pinOut))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.pinOut.c_str());

    const double fail_ratio =
        static_cast<double>(tally.failed) /
        static_cast<double>(std::max<unsigned long long>(tally.attempted, 1));
    std::printf("  %-16s %12.6f %-8s (%llu failed of %llu cells and "
                "builds)\n",
                "fail_ratio", fail_ratio, "ratio", tally.failed,
                tally.attempted);
    if (opt.trace)
        for (const Metric &m : metrics)
            std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());

    std::string json = strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].name.c_str(),
                       metrics[i].value, metrics[i].unit.c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
