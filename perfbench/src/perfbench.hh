/**
 * @file
 * Shared declarations of the repository benchmark program: workloads,
 * their inputs and matrix cells, the correctness reference, and the
 * in-memory span log of the traced run.
 *
 * The benchmark links the simulator's own libraries and calls their public
 * functions; it never reaches inside a module. Host time is what it
 * measures; simulated statistics are deterministic and serve as the
 * correctness check.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/artifact_cache.hh"
#include "harness/engine.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** First and third quartile, as Python's statistics.quantiles(n=4). */
std::pair<double, double> quartiles(std::vector<double> v);

/** The three named workloads. */
enum class Workload
{
    TableMatrix, ///< every Table 1 and Table 5-12 cell, nproc workers
    MissPath,    ///< 1-issue, 4 KB I-cache, three compressed models
    ColdBuild,   ///< empty cache, six builds, then the Table 1 cells
};

bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** Command-line options (see run.py for the ones it fills in). */
struct Options
{
    Workload workload = Workload::TableMatrix;
    unsigned long long seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir;  ///< private scratch root (cache, span files)
    std::string pins;     ///< pinned results for seed 0
    std::string pinOut;   ///< when set, write this run's results here
    std::string commit = "unknown";
    std::string srcDigest = "unknown";
};

/**
 * The benchmark profiles a workload simulates. Seed 0 keeps each
 * standard profile as the paper tables use it; any other seed re-rolls
 * every profile's generator seed, as bench_ext_seed_robustness does.
 */
std::vector<cps::BenchmarkProfile> workloadProfiles(Workload w,
                                                    unsigned long long seed);

/**
 * Builds one benchmark through @p cache. Standard profiles go through
 * buildBenchProgram exactly as the table binaries do; a re-rolled
 * profile (which buildBenchProgram cannot name) runs the same steps in
 * the same order under the same cache keys.
 */
std::unique_ptr<cps::BenchProgram> buildBench(
    const cps::BenchmarkProfile &profile, bool standard,
    const cps::ArtifactCache &cache);

/**
 * Checks a built benchmark: the image decompresses to the program text
 * and the trace covers the run. Returns an empty string when sound.
 */
std::string verifyBench(const cps::BenchProgram &bench);

/** One matrix cell: a labelled (benchmark, machine) pair. */
struct CellSpec
{
    std::string label; ///< every input the result depends on
    size_t bench = 0;  ///< index into the workload's profile list
    cps::MachineConfig cfg;
    /** The table binary that queues the cell; one runMatrixCells call
     *  per group, as each binary makes one. */
    std::string group;
};

/** [first, last) index ranges of consecutive cells sharing a group. */
std::vector<std::pair<size_t, size_t>> groupRanges(
    const std::vector<CellSpec> &cells);

/** The workload's cells, in the order the table binaries queue them. */
std::vector<CellSpec> workloadCells(
    Workload w, const std::vector<cps::BenchmarkProfile> &profiles);

/**
 * The miss-path cells for @p profiles: native, CodePack, optimized and
 * software on the 1-issue machine with a 4 KB I-cache.
 */
std::vector<CellSpec> missPathCells(
    const std::vector<cps::BenchmarkProfile> &profiles);

/** The 4 KB I-cache the miss-path workload and its probes use. */
cps::CacheConfig missPathICache();

/** Requests for @p cells over @p benches (which must outlive them). */
std::vector<cps::harness::RunRequest> makeRequests(
    const std::vector<CellSpec> &cells,
    const std::vector<std::unique_ptr<cps::BenchProgram>> &benches);

/** Canonical text of a cell's simulated result (exact, comparable). */
std::string canonical(const cps::RunOutcome &out);

/**
 * The correctness reference. For seed 0 it holds the pinned results;
 * for any other seed it starts empty and the first result seen for a
 * label becomes the reference every later pass must match.
 */
class Reference
{
  public:
    Reference(bool pinned, const std::string &path);

    /** True when the cell ran, and its result matches the reference. */
    bool check(const std::string &label, const cps::harness::CellOutcome &c);
    bool check(const std::string &label, const cps::RunOutcome &out);

    /** Writes this run's results, one "label<TAB>result" line each. */
    bool writeSeen(const std::string &path) const;

    /** First few mismatch diagnoses, for stderr. */
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    bool compare(const std::string &label, const cps::RunOutcome &out);
    bool fail(const std::string &label, const std::string &why);

    bool pinned_;
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> seen_;
    std::vector<std::string> problems_;
};

/** One recorded span of the traced run. */
struct Span
{
    std::string name;
    std::string cell; ///< cell label or profile name; empty for phases
    long parent = -1; ///< index of the enclosing span, -1 at top level
    double start = 0; ///< seconds since the log's origin
    double end = 0;
};

/**
 * Spans kept in memory and written out once at the end, so recording
 * costs a clock read and a locked append.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::string workload) : workload_(std::move(workload))
    {}

    /** Opens a span; returns its index for close() and children. */
    long open(const std::string &name, const std::string &cell = "",
              long parent = -1);
    /** Closes span @p id; returns its duration in seconds. */
    double close(long id);

    /** Writes every span, plus @p provenance, as one JSON document. */
    bool write(const std::string &path,
               const std::string &provenance_json) const;

  private:
    std::string workload_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Cells and builds attempted, and how many failed. */
struct Tally
{
    unsigned long long attempted = 0;
    unsigned long long failed = 0;

    void
    record(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** A named metric value for the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Returns freed heap memory to the system before a table's cells run.
 * Each table binary is a fresh process whose cells fault their memory
 * in; without this, later passes would reuse the heap earlier passes
 * left behind, hide that cost, and pile allocator retention into
 * peak_rss_mb.
 */
inline void
releaseFreedHeap()
{
    malloc_trim(0);
}

/** Workers for the parallel passes: the CPUs this process may use. */
unsigned hostWorkers();

/**
 * The traced run: per-layer metrics from spans around calls into each
 * module, plus the traced/untraced pass agreement check.
 */
std::vector<Metric> runTraced(const Options &opt, Tally &tally,
                              Reference &ref, const std::string &cache_dir,
                              const std::string &provenance_json);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
