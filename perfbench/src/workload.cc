#include <algorithm>
#include <fstream>
#include <sched.h>

#include "asmkit/objfile.hh"
#include "codepack/imagefile.hh"
#include "common/logging.hh"
#include "core/trace.hh"
#include "perfbench.hh"

using namespace cps;

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2) {
        double m = median(v);
        return {m, m};
    }
    std::sort(v.begin(), v.end());
    // Python's statistics.quantiles, method='exclusive'.
    long n = static_cast<long>(v.size());
    long m = n + 1;
    auto q = [&](long i) {
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    };
    return {q(1), q(3)};
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::TableMatrix, Workload::MissPath,
                       Workload::ColdBuild}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::TableMatrix:
        return "table-matrix";
      case Workload::MissPath:
        return "miss-path";
      case Workload::ColdBuild:
        return "cold-build";
    }
    return "?";
}

unsigned
hostWorkers()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

namespace
{

u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::vector<BenchmarkProfile>
workloadProfiles(Workload w, unsigned long long seed)
{
    std::vector<BenchmarkProfile> out;
    for (const BenchmarkProfile &p : standardProfiles()) {
        // The miss path is exercised by the three call-heavy programs
        // with the worst I-miss rates; the others barely miss at 4 KB.
        if (w == Workload::MissPath && p.name != "cc1" && p.name != "go" &&
            p.name != "vortex")
            continue;
        out.push_back(p);
        if (seed != 0)
            out.back().seed = splitmix64(p.seed ^ splitmix64(seed));
    }
    return out;
}

std::unique_ptr<BenchProgram>
buildBench(const BenchmarkProfile &profile, bool standard,
           const ArtifactCache &cache)
{
    if (standard)
        return buildBenchProgram(profile.name, cache);

    // The steps of buildBenchProgram, in its order and under its keys.
    auto bench = std::make_unique<BenchProgram>();
    bench->profile = &profile;
    const std::string prog_key = benchProgramKey(profile);
    bool have_prog = false;
    if (auto bytes = cache.load(prog_key)) {
        if (auto prog = decodeProgram(*bytes)) {
            bench->program = std::move(*prog);
            have_prog = true;
        }
    }
    if (!have_prog) {
        bench->program = generateProgram(profile);
        cache.store(prog_key, encodeProgram(bench->program));
    }
    const std::string img_key =
        benchImageKey(profile, codepack::CompressorConfig{});
    bool have_img = false;
    if (auto bytes = cache.load(img_key)) {
        if (auto img = codepack::decodeImageChecked(*bytes)) {
            bench->image = std::move(*img);
            have_img = true;
        }
    }
    if (!have_img) {
        bench->image = codepack::compress(bench->program);
        cache.store(img_key, codepack::encodeImage(bench->image));
    }
    const u64 cap = Suite::traceInsns();
    const std::string trace_key = benchTraceKey(profile, cap);
    if (auto bytes = cache.load(trace_key)) {
        if (auto trace = decodeTraceChecked(*bytes))
            bench->trace =
                std::make_unique<const TraceBuffer>(std::move(*trace));
    }
    if (!bench->trace) {
        TraceBuffer trace = recordTrace(bench->program, cap);
        cache.store(trace_key, encodeTrace(trace));
        bench->trace = std::make_unique<const TraceBuffer>(std::move(trace));
    }
    return bench;
}

std::string
verifyBench(const BenchProgram &bench)
{
    codepack::Decompressor decomp(bench.image);
    Result<std::vector<u32>> words = decomp.tryDecompressAll();
    if (!words)
        return "image does not decode: " + words.error().describe();
    const size_t n = bench.program.textWords();
    if (words->size() < n)
        return "image decodes to fewer words than the text holds";
    for (size_t i = 0; i < n; ++i) {
        if ((*words)[i] != bench.program.word(i))
            return strfmt("image word %zu differs from the text", i);
    }
    if (!bench.trace ||
        !bench.trace->covers(Suite::runInsns(),
                             replayLookahead(baseline8Issue())))
        return "recorded trace does not cover the run";
    return "";
}

namespace
{

const char *
modelName(CodeModel m)
{
    switch (m) {
      case CodeModel::Native:
        return "native";
      case CodeModel::CodePack:
        return "codepack";
      case CodeModel::CodePackOptimized:
        return "optimized";
      case CodeModel::CodePackCustom:
        return "custom";
      case CodeModel::CodePackSoftware:
        return "software";
      case CodeModel::NativePrefetch:
        return "native-prefetch";
    }
    return "?";
}

std::string
label(const std::string &bench, const MachineConfig &c)
{
    std::string s = strfmt(
        "%s/%s/ic%u/bus%u/mem%llu+%llu/%s", bench.c_str(), c.name.c_str(),
        c.icache.sizeBytes, c.mem.busWidthBits,
        static_cast<unsigned long long>(c.mem.firstAccess),
        static_cast<unsigned long long>(c.mem.beatRate),
        modelName(c.codeModel));
    if (c.codeModel == CodeModel::CodePackCustom) {
        const codepack::DecompressorConfig &d = c.decomp;
        s += strfmt("-idx%ux%u%s%s-dec%u", d.indexCacheLines,
                    d.indexesPerLine, d.burstIndexFill ? "-burst" : "",
                    d.perfectIndexCache ? "-perfect" : "", d.decodeRate);
    }
    return s;
}

/** Queues cells exactly as the table binaries' nested loops do. */
class CellList
{
  public:
    explicit CellList(const std::vector<BenchmarkProfile> &profiles)
        : profiles_(profiles)
    {}

    void
    add(size_t bench, const MachineConfig &cfg)
    {
        cells_.push_back(
            CellSpec{label(profiles_[bench].name, cfg), bench, cfg, group_});
    }

    /** Cells added from now on belong to table binary @p name. */
    void group(std::string name) { group_ = std::move(name); }

    size_t
    index(const std::string &name) const
    {
        for (size_t i = 0; i < profiles_.size(); ++i)
            if (profiles_[i].name == name)
                return i;
        cps_fatal("profile '%s' is not in this workload", name.c_str());
    }

    size_t size() const { return profiles_.size(); }
    std::vector<CellSpec> take() { return std::move(cells_); }

  private:
    const std::vector<BenchmarkProfile> &profiles_;
    std::vector<CellSpec> cells_;
    std::string group_;
};

MachineConfig
custom4Issue()
{
    MachineConfig cfg = baseline4Issue();
    cfg.codeModel = CodeModel::CodePackCustom;
    return cfg;
}

void
table1(CellList &l)
{
    l.group("table1");
    for (size_t b = 0; b < l.size(); ++b)
        l.add(b, baseline4Issue());
}

void
tables5to12(CellList &l)
{
    const size_t n = l.size();
    // Table 5: three machines x three code models.
    l.group("table5");
    for (size_t b = 0; b < n; ++b)
        for (const MachineConfig &m :
             {baseline1Issue(), baseline4Issue(), baseline8Issue()})
            for (CodeModel model : {CodeModel::Native, CodeModel::CodePack,
                                    CodeModel::CodePackOptimized})
                l.add(b, m.withCodeModel(model));

    // Table 6: cc1 index-cache geometries.
    l.group("table6");
    for (unsigned lines : {4u, 16u, 32u, 64u}) {
        for (unsigned per_line : {1u, 2u, 4u, 8u}) {
            MachineConfig cfg = custom4Issue();
            cfg.decomp.indexCacheLines = lines;
            cfg.decomp.indexesPerLine = per_line;
            cfg.decomp.burstIndexFill = true;
            l.add(l.index("cc1"), cfg);
        }
    }

    MachineConfig idx_cfg = custom4Issue();
    idx_cfg.decomp.indexCacheLines = 64;
    idx_cfg.decomp.indexesPerLine = 4;
    idx_cfg.decomp.burstIndexFill = true;

    // Table 7: index cache speedups.
    l.group("table7");
    MachineConfig perf_cfg = custom4Issue();
    perf_cfg.decomp.perfectIndexCache = true;
    for (size_t b = 0; b < n; ++b) {
        l.add(b, baseline4Issue());
        l.add(b, baseline4Issue().withCodeModel(CodeModel::CodePack));
        l.add(b, idx_cfg);
        l.add(b, perf_cfg);
    }

    // Table 8: decode rates.
    l.group("table8");
    for (size_t b = 0; b < n; ++b) {
        l.add(b, baseline4Issue());
        for (unsigned rate : {1u, 2u, 16u}) {
            MachineConfig cfg = custom4Issue();
            cfg.decomp.decodeRate = rate;
            l.add(b, cfg);
        }
    }

    // Table 9: combined optimizations.
    l.group("table9");
    MachineConfig dec_cfg = custom4Issue();
    dec_cfg.decomp.decodeRate = 2;
    for (size_t b = 0; b < n; ++b) {
        l.add(b, baseline4Issue());
        l.add(b, baseline4Issue().withCodeModel(CodeModel::CodePack));
        l.add(b, idx_cfg);
        l.add(b, dec_cfg);
        l.add(b,
              baseline4Issue().withCodeModel(CodeModel::CodePackOptimized));
    }

    auto triple = [&](size_t b, const MachineConfig &native) {
        l.add(b, native);
        l.add(b, native.withCodeModel(CodeModel::CodePack));
        l.add(b, native.withCodeModel(CodeModel::CodePackOptimized));
    };
    // Table 10: I-cache sizes.
    l.group("table10");
    for (size_t b = 0; b < n; ++b) {
        for (u32 kb : {1u, 4u, 16u, 64u}) {
            MachineConfig native = baseline4Issue();
            native.icache = CacheConfig{kb * 1024, 32, 2};
            triple(b, native);
        }
    }
    // Table 11: bus widths.
    l.group("table11");
    for (size_t b = 0; b < n; ++b) {
        for (unsigned w : {16u, 32u, 64u, 128u}) {
            MachineConfig native = baseline4Issue();
            native.mem.busWidthBits = w;
            triple(b, native);
        }
    }
    // Table 12: memory latencies.
    l.group("table12");
    const std::pair<Cycle, Cycle> lats[] = {
        {5, 1}, {10, 2}, {20, 4}, {40, 8}, {80, 16}};
    for (size_t b = 0; b < n; ++b) {
        for (const auto &[first, rate] : lats) {
            MachineConfig native = baseline4Issue();
            native.mem.firstAccess = first;
            native.mem.beatRate = rate;
            triple(b, native);
        }
    }
}

} // namespace

CacheConfig
missPathICache()
{
    return CacheConfig{4 * 1024, 32, 2};
}

std::vector<CellSpec>
missPathCells(const std::vector<BenchmarkProfile> &profiles)
{
    CellList l(profiles);
    l.group("miss-path");
    MachineConfig native = baseline1Issue();
    native.icache = missPathICache();
    for (size_t b = 0; b < l.size(); ++b)
        for (CodeModel model :
             {CodeModel::Native, CodeModel::CodePack,
              CodeModel::CodePackOptimized, CodeModel::CodePackSoftware})
            l.add(b, native.withCodeModel(model));
    return l.take();
}

std::vector<CellSpec>
workloadCells(Workload w, const std::vector<BenchmarkProfile> &profiles)
{
    if (w == Workload::MissPath)
        return missPathCells(profiles);
    CellList l(profiles);
    table1(l);
    if (w == Workload::TableMatrix)
        tables5to12(l);
    return l.take();
}

std::vector<std::pair<size_t, size_t>>
groupRanges(const std::vector<CellSpec> &cells)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (out.empty() || cells[i].group != cells[out.back().first].group)
            out.emplace_back(i, i);
        out.back().second = i + 1;
    }
    return out;
}

std::vector<harness::RunRequest>
makeRequests(const std::vector<CellSpec> &cells,
             const std::vector<std::unique_ptr<BenchProgram>> &benches)
{
    std::vector<harness::RunRequest> reqs;
    reqs.reserve(cells.size());
    for (const CellSpec &c : cells)
        reqs.push_back(harness::RunRequest{benches.at(c.bench).get(), c.cfg,
                                           Suite::runInsns()});
    return reqs;
}

std::string
canonical(const RunOutcome &o)
{
    return strfmt(
        "cycles=%llu insns=%llu exited=%d imiss=%llu bufhits=%llu "
        "idxmiss=%a misslat=%llu",
        static_cast<unsigned long long>(o.result.cycles),
        static_cast<unsigned long long>(o.result.instructions),
        o.result.programExited ? 1 : 0,
        static_cast<unsigned long long>(o.icacheMisses),
        static_cast<unsigned long long>(o.bufferHits), o.indexCacheMissRate,
        static_cast<unsigned long long>(o.missLatencyTotal));
}

Reference::Reference(bool pinned, const std::string &path) : pinned_(pinned)
{
    if (!pinned_)
        return;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        size_t tab = line.find('\t');
        if (line.empty() || line[0] == '#' || tab == std::string::npos)
            continue;
        expected_[line.substr(0, tab)] = line.substr(tab + 1);
    }
}

bool
Reference::check(const std::string &label, const harness::CellOutcome &c)
{
    return c.status.ok() ? compare(label, c.outcome)
                         : fail(label, "cell failed: " + c.status.describe());
}

bool
Reference::check(const std::string &label, const RunOutcome &out)
{
    return out.result.ok() ? compare(label, out)
                           : fail(label, "run failed: " +
                                             out.result.statusDetail);
}

bool
Reference::compare(const std::string &label, const RunOutcome &out)
{
    const std::string got = canonical(out);
    auto [seen, fresh] = seen_.try_emplace(label, got);
    if (!fresh && seen->second != got)
        return fail(label,
                    "earlier pass gave " + seen->second + ", now " + got);
    if (pinned_) {
        auto it = expected_.find(label);
        if (it == expected_.end())
            return fail(label, "no pinned result");
        if (it->second != got)
            return fail(label, "pinned " + it->second + ", got " + got);
    }
    return true;
}

bool
Reference::fail(const std::string &label, const std::string &why)
{
    if (problems_.size() < 8)
        problems_.push_back(label + ": " + why);
    return false;
}

bool
Reference::writeSeen(const std::string &path) const
{
    std::ofstream out(path);
    for (const auto &[label, text] : seen_)
        out << label << '\t' << text << '\n';
    return static_cast<bool>(out);
}

long
SpanLog::open(const std::string &name, const std::string &cell, long parent)
{
    double start =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, cell, parent, start, start});
    return static_cast<long>(spans_.size()) - 1;
}

double
SpanLog::close(long id)
{
    double end = std::chrono::duration<double>(Clock::now() - origin_).count();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_.at(static_cast<size_t>(id));
    s.end = end;
    return s.end - s.start;
}

bool
SpanLog::write(const std::string &path,
               const std::string &provenance_json) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload_
        << "\", \"provenance\": " << provenance_json << ", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << strfmt("{\"id\": %zu, \"name\": \"%s\", \"workload\": \"%s\", "
                      "\"cell\": \"%s\", \"parent\": %ld, \"start\": %.9f, "
                      "\"end\": %.9f}%s\n",
                      i, s.name.c_str(), workload_.c_str(), s.cell.c_str(),
                      s.parent, s.start, s.end,
                      i + 1 < spans_.size() ? "," : "");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
