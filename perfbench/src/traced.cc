/**
 * @file
 * The traced run. Every span opens and closes in this file, around a
 * call into one module's public function, so the program itself runs
 * unmodified. The run times each build layer from outside, runs the
 * workload's cells untraced, traced (one span per cell) and serially,
 * re-runs a subset live instead of from the recorded trace, and replays
 * each benchmark's instruction stream through the miss-path components
 * one at a time.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "asmkit/assembler.hh"
#include "asmkit/objfile.hh"
#include "codepack/imagefile.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "core/trace.hh"
#include "perfbench.hh"

using namespace cps;

namespace perfbench
{

namespace
{

/** Cells re-run live to price the functional core (core.executor_s). */
constexpr size_t kLiveCells = 24;

/** Alternating rounds of layer-by-layer and real setup. */
constexpr int kSetupRounds = 3;

/** Keeps probe results observable so no loop is optimized away. */
volatile u64 g_sink = 0;

u64
fnv1a(const std::vector<u8> &bytes, u64 h = 0xcbf29ce484222325ULL)
{
    for (u8 b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
    return h;
}

/** Digest of a benchmark's three artifacts in their on-disk encoding. */
u64
artifactDigest(const Program &prog, const codepack::CompressedImage &img,
               const TraceBuffer &trace)
{
    return fnv1a(encodeTrace(trace),
                 fnv1a(codepack::encodeImage(img), fnv1a(encodeProgram(prog))));
}

/** Scoped span: opens on construction, close() returns seconds. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, const std::string &cell = "",
          long parent = -1)
        : log_(log), id_(log.open(name, cell, parent))
    {}
    ~Scope()
    {
        if (!closed_)
            log_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    long id() const { return id_; }
    double
    close()
    {
        closed_ = true;
        return log_.close(id_);
    }

  private:
    SpanLog &log_;
    long id_;
    bool closed_ = false;
};

/** Sums over the workload's benchmarks of the build-layer spans. */
struct BuildLayers
{
    double generate = 0, sourceBytes = 0, assemble = 0, compress = 0,
           record = 0, store = 0, load = 0, decode = 0;
};

/** Sums of the miss-path replay of each benchmark's fetch stream. */
struct MissLayers
{
    u64 insns = 0, accesses = 0, misses = 0;
    double cacheS = 0, timingS = 0, timingOptS = 0, decodeS = 0, fetchS = 0;
    u64 fetchHits = 0, pfIssued = 0, pfHits = 0;
};

/**
 * Builds @p p from outside, one span per module call, and stores the
 * artifacts under buildBenchProgram's keys. Returns their digest.
 */
u64
coldBuildLayers(SpanLog &log, long parent, const BenchmarkProfile &p,
                const ArtifactCache &cache, BuildLayers &t, Tally &tally)
{
    Scope all(log, "build", p.name, parent);
    Scope gen(log, "progen::generateSource", p.name, all.id());
    const std::string src = generateSource(p);
    t.generate += gen.close();
    t.sourceBytes += static_cast<double>(src.size());

    Scope as(log, "asmkit::assembleSource", p.name, all.id());
    AsmResult asm_out = assembleSource(src);
    t.assemble += as.close();
    tally.record(asm_out.ok());

    Scope cp(log, "codepack::compress", p.name, all.id());
    codepack::CompressedImage img = codepack::compress(asm_out.program);
    t.compress += cp.close();

    Scope rec(log, "recordTrace", p.name, all.id());
    TraceBuffer trace = recordTrace(asm_out.program, Suite::traceInsns());
    t.record += rec.close();

    Scope st(log, "ArtifactCache::store", p.name, all.id());
    bool stored =
        cache.store(benchProgramKey(p), encodeProgram(asm_out.program)) &&
        cache.store(benchImageKey(p, codepack::CompressorConfig{}),
                    codepack::encodeImage(img)) &&
        cache.store(benchTraceKey(p, Suite::traceInsns()),
                    encodeTrace(trace));
    t.store += st.close();
    tally.record(stored);
    return artifactDigest(asm_out.program, img, trace);
}

/** Loads and decodes @p p's artifacts from outside, one span each. */
void
warmLoadLayers(SpanLog &log, long parent, const BenchmarkProfile &p,
               const ArtifactCache &cache, BuildLayers &t, Tally &tally)
{
    Scope all(log, "load", p.name, parent);
    Scope ld(log, "ArtifactCache::load", p.name, all.id());
    auto prog_bytes = cache.load(benchProgramKey(p));
    auto img_bytes = cache.load(benchImageKey(p, codepack::CompressorConfig{}));
    auto trace_bytes = cache.load(benchTraceKey(p, Suite::traceInsns()));
    t.load += ld.close();
    if (!prog_bytes || !img_bytes || !trace_bytes) {
        tally.record(false);
        return;
    }
    Scope dec(log, "decode", p.name, all.id());
    bool ok = decodeProgram(*prog_bytes).has_value() &&
              codepack::decodeImageChecked(*img_bytes).ok() &&
              decodeTraceChecked(*trace_bytes).ok();
    t.decode += dec.close();
    tally.record(ok);
}

/**
 * Replays @p b's fetch stream through a standalone 4 KB I-cache, then
 * its miss stream through the decompressor timing model (baseline and
 * optimized), the functional decoder and the block fetcher.
 */
void
missLayers(SpanLog &log, long parent, const std::string &name,
           const BenchProgram &b, MissLayers &t)
{
    const TraceBuffer &trace = *b.trace;
    const size_t n = std::min<size_t>(trace.size(), Suite::runInsns());
    const codepack::CompressedImage &img = b.image;
    std::vector<Addr> misses;
    misses.reserve(n / 8);
    u64 sink = 0;

    {
        Cache icache(missPathICache());
        Scope s(log, "Cache::access/fill", name, parent);
        Addr last = ~Addr{0};
        for (size_t i = 0; i < n; ++i) {
            Addr line = trace.entry(i).pc & ~Addr{31};
            if (line == last)
                continue;
            last = line;
            ++t.accesses;
            if (!icache.access(line)) {
                icache.fill(line);
                misses.push_back(line);
            }
        }
        t.cacheS += s.close();
    }
    t.insns += n;
    t.misses += misses.size();

    auto timing = [&](const codepack::DecompressorConfig &cfg,
                      const char *span) {
        MainMemory mem;
        StatSet stats;
        codepack::DecompressorModel model(img, mem, cfg, stats);
        Scope s(log, span, name, parent);
        Cycle now = 0;
        for (Addr line : misses) {
            codepack::LineFill fill = model.handleMiss(line, now);
            now = fill.fillDone + 1;
        }
        sink += now;
        return s.close();
    };
    t.timingS += timing(codepack::DecompressorConfig{},
                        "DecompressorModel::handleMiss");
    t.timingOptS += timing(codepack::DecompressorConfig::optimized(),
                           "DecompressorModel::handleMiss(optimized)");

    codepack::Decompressor decomp(img);
    {
        Scope s(log, "Decompressor::decompressBlock", name, parent);
        for (Addr line : misses) {
            codepack::DecodedBlock blk =
                decomp.decompressBlock(img.groupOf(line), img.blockOf(line));
            sink += blk.words[0] ^ blk.byteLen;
        }
        t.decodeS += s.close();
    }
    {
        codepack::BlockFetcher fetcher(decomp);
        Scope s(log, "BlockFetcher::getFlat", name, parent);
        for (Addr line : misses)
            sink += fetcher.getFlat(img.flatBlockOf(line)).words[0];
        t.fetchS += s.close();
        t.fetchHits += fetcher.hits() + fetcher.prefetchHits();
        t.pfIssued += fetcher.prefetchIssued();
        t.pfHits += fetcher.prefetchHits();
    }
    g_sink = g_sink + sink;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
runTraced(const Options &opt, Tally &tally, Reference &ref,
          const std::string &cache_dir, const std::string &provenance_json)
{
    const std::string wname = workloadName(opt.workload);
    SpanLog log(wname);
    const std::vector<BenchmarkProfile> profiles =
        workloadProfiles(opt.workload, opt.seed);
    const bool standard = opt.seed == 0;
    const std::vector<CellSpec> cells = workloadCells(opt.workload, profiles);
    const unsigned workers =
        opt.workload == Workload::MissPath ? 1 : hostWorkers();
    const bool cold = opt.workload == Workload::ColdBuild;

    // Build layers, timed from outside, alternate with the setup the
    // untraced run times (cold builds on cold-build, warm loads
    // otherwise) for a few rounds; medians of each go into the metrics,
    // so neither side is always the one that warms the heap.
    ArtifactCache cache(cache_dir, true);
    std::vector<u64> digests(profiles.size());
    std::vector<BuildLayers> builds, loads;
    std::vector<double> setups;
    std::vector<std::unique_ptr<BenchProgram>> benches;
    auto layerBuild = [&] {
        BuildLayers t;
        Scope s(log, "setup.layers.build");
        for (size_t i = 0; i < profiles.size(); ++i)
            digests[i] =
                coldBuildLayers(log, s.id(), profiles[i], cache, t, tally);
        builds.push_back(t);
    };
    auto layerLoad = [&] {
        BuildLayers t;
        Scope s(log, "setup.layers.load");
        for (const BenchmarkProfile &p : profiles)
            warmLoadLayers(log, s.id(), p, cache, t, tally);
        loads.push_back(t);
    };
    auto setup = [&] {
        benches.clear();
        Scope s(log, "setup");
        for (const BenchmarkProfile &p : profiles) {
            Scope b(log, standard ? "buildBenchProgram" : "buildBench",
                    p.name, s.id());
            benches.push_back(buildBench(p, standard, cache));
        }
        setups.push_back(s.close());
    };
    if (cold) {
        for (int r = 0; r < kSetupRounds; ++r) {
            std::filesystem::remove_all(cache_dir);
            layerBuild();
            std::filesystem::remove_all(cache_dir);
            setup();
        }
        layerLoad();
    } else {
        layerBuild();
        for (int r = 0; r < kSetupRounds; ++r) {
            layerLoad();
            setup();
        }
    }
    auto med = [](const std::vector<BuildLayers> &v,
                  double BuildLayers::*field) {
        std::vector<double> x;
        for (const BuildLayers &t : v)
            x.push_back(t.*field);
        return median(x);
    };
    BuildLayers layers;
    for (double BuildLayers::*f :
         {&BuildLayers::generate, &BuildLayers::sourceBytes,
          &BuildLayers::assemble, &BuildLayers::compress,
          &BuildLayers::record, &BuildLayers::store})
        layers.*f = med(builds, f);
    layers.load = med(loads, &BuildLayers::load);
    layers.decode = med(loads, &BuildLayers::decode);
    const double setup_s = median(setups);

    for (size_t i = 0; i < benches.size(); ++i) {
        const BenchProgram &b = *benches[i];
        std::string why = verifyBench(b);
        if (why.empty() &&
            artifactDigest(b.program, b.image, *b.trace) != digests[i])
            why = "artifacts differ from the layer-by-layer build";
        if (!why.empty())
            std::fprintf(stderr, "perfbench: %s: %s\n",
                         profiles[i].name.c_str(), why.c_str());
        tally.record(why.empty());
    }
    const double setup_layers =
        cold ? layers.generate + layers.assemble + layers.compress +
                   layers.record + layers.store
             : layers.load + layers.decode;

    // Both parallel passes make one pass per table group, as the
    // untraced run does. The traced pass gives every cell its own span
    // and single-cell runMatrixCells call on the same worker count; it
    // goes first, so a first-pass warm-up inflates, never hides, its
    // overhead.
    const std::vector<harness::RunRequest> reqs = makeRequests(cells, benches);
    const std::vector<std::pair<size_t, size_t>> groups = groupRanges(cells);
    double wall_traced = 0;
    {
        std::vector<harness::CellOutcome> outs(cells.size());
        Scope s(log, "pass.traced");
        ThreadPool pool(workers);
        for (auto [first, last] : groups) {
            releaseFreedHeap();
            Scope g(log, "group", cells[first].group, s.id());
            pool.parallelFor(last - first, [&](size_t k) {
                const size_t i = first + k;
                Scope c(log, "harness::runMatrixCells", cells[i].label,
                        g.id());
                outs[i] = harness::runMatrixCells({reqs[i]}, 1).at(0);
            });
        }
        wall_traced = s.close();
        for (size_t i = 0; i < cells.size(); ++i)
            tally.record(ref.check(cells[i].label, outs[i]));
    }
    double wall_untraced = 0;
    {
        Scope s(log, "pass.untraced");
        for (auto [first, last] : groups) {
            releaseFreedHeap();
            Scope g(log, "harness::runMatrixCells", cells[first].group,
                    s.id());
            std::vector<harness::CellOutcome> outs = harness::runMatrixCells(
                {reqs.begin() + first, reqs.begin() + last}, workers);
            g.close();
            for (size_t i = first; i < last; ++i)
                tally.record(ref.check(cells[i].label, outs[i - first]));
        }
        wall_untraced = s.close();
    }

    // Serial pass: per-cell host time, no contention. The probe cells
    // give every workload the miss-path twins and an OoO native cell.
    std::vector<CellSpec> serial = cells;
    std::vector<CellSpec> probes = missPathCells(profiles);
    {
        std::vector<CellSpec> ooo = workloadCells(Workload::ColdBuild,
                                                  profiles);
        probes.insert(probes.end(), ooo.begin(), ooo.end());
    }
    for (const CellSpec &c : probes) {
        bool present = std::any_of(serial.begin(), serial.end(),
                                   [&](const CellSpec &s) {
                                       return s.label == c.label;
                                   });
        if (!present)
            serial.push_back(c);
    }
    // A duplicate cell (the same label queued by several tables) is
    // timed once and its time counts for every occurrence.
    std::vector<double> cell_s(serial.size());
    std::map<std::string, double> timed;
    double ooo_insns = 0, ooo_s = 0, ino_insns = 0, ino_s = 0;
    {
        Scope s(log, "pass.serial");
        for (size_t i = 0; i < serial.size(); ++i) {
            const CellSpec &c = serial[i];
            if (auto it = timed.find(c.label); it != timed.end()) {
                cell_s[i] = it->second;
                continue;
            }
            Scope span(log, "runMachineSerial", c.label, s.id());
            RunOutcome out = runMachineSerial(*benches[c.bench], c.cfg,
                                              Suite::runInsns());
            cell_s[i] = timed[c.label] = span.close();
            tally.record(ref.check(c.label, out));
            if (c.cfg.codeModel == CodeModel::Native) {
                double insns = static_cast<double>(out.result.instructions);
                (c.cfg.pipeline.inOrder ? ino_insns : ooo_insns) += insns;
                (c.cfg.pipeline.inOrder ? ino_s : ooo_s) += cell_s[i];
            }
        }
    }
    const std::vector<CellSpec> twins = missPathCells(profiles);
    double codepack_extra = 0, software_extra = 0;
    for (size_t i = 0; i + 3 < twins.size(); i += 4) {
        double native = timed.at(twins[i].label);
        codepack_extra += timed.at(twins[i + 1].label) - native;
        software_extra += timed.at(twins[i + 3].label) - native;
    }

    // The same cells from the live functional core instead of the trace.
    double live_s = 0, replay_s = 0;
    {
        Scope s(log, "pass.live");
        for (size_t i = 0; i < std::min(kLiveCells, cells.size()); ++i) {
            const CellSpec &c = cells[i];
            Scope span(log, "runMachineSerial(live)", c.label, s.id());
            RunOutcome out = runMachineSerial(*benches[c.bench], c.cfg,
                                              Suite::runInsns(),
                                              ReplayMode::ForceLive);
            live_s += span.close();
            replay_s += cell_s[i];
            tally.record(ref.check(c.label, out));
        }
    }

    MissLayers miss;
    {
        Scope s(log, "miss-path.layers");
        for (size_t i = 0; i < benches.size(); ++i)
            missLayers(log, s.id(), profiles[i].name, *benches[i], miss);
    }

    const std::string span_dir =
        (std::filesystem::path(opt.workDir) / "spans").string();
    std::filesystem::create_directories(span_dir);
    const std::string span_file =
        span_dir + strfmt("/%s-seed%llu.json", wname.c_str(), opt.seed);
    if (log.write(span_file, provenance_json))
        std::printf("  spans written to %s\n", span_file.c_str());

    std::vector<double> workload_ms(cell_s.begin(),
                                    cell_s.begin() + cells.size());
    for (double &v : workload_ms)
        v *= 1e3;
    double serial_sum = 0;
    for (size_t i = 0; i < cells.size(); ++i)
        serial_sum += cell_s[i];
    const double mpa = static_cast<double>(std::max<u64>(miss.misses, 1));

    return {
        {"progen.generate_s", layers.generate, "s"},
        {"progen.source_mb", layers.sourceBytes / 1e6, "MB"},
        {"asmkit.assemble_s", layers.assemble, "s"},
        {"codepack.compress_s", layers.compress, "s"},
        {"core.record_s", layers.record, "s"},
        {"artifact.store_s", layers.store, "s"},
        {"artifact.load_s", layers.load, "s"},
        {"artifact.decode_s", layers.decode, "s"},
        {"setup.unaccounted_share", ratio(setup_s - setup_layers, setup_s),
         "ratio"},
        {"pipeline.ooo_minsn_per_s", ratio(ooo_insns, ooo_s) / 1e6,
         "Minsn/s"},
        {"pipeline.inorder_minsn_per_s", ratio(ino_insns, ino_s) / 1e6,
         "Minsn/s"},
        {"cache.ns_per_access",
         ratio(miss.cacheS * 1e9, static_cast<double>(miss.accesses)), "ns"},
        {"cache.imiss_per_kinsn",
         ratio(static_cast<double>(miss.misses) * 1e3,
               static_cast<double>(miss.insns)),
         "1/kinsn"},
        {"codepack.timing.ns_per_miss", miss.timingS * 1e9 / mpa, "ns"},
        {"codepack.timing_opt.ns_per_miss", miss.timingOptS * 1e9 / mpa,
         "ns"},
        {"codepack.decode.ns_per_block", miss.decodeS * 1e9 / mpa, "ns"},
        {"codepack.fetcher.ns_per_get", miss.fetchS * 1e9 / mpa, "ns"},
        {"codepack.fetcher.hit_ratio",
         static_cast<double>(miss.fetchHits) / mpa, "ratio"},
        {"codepack.fetcher.spec_useful_ratio",
         ratio(static_cast<double>(miss.pfHits),
               static_cast<double>(miss.pfIssued)),
         "ratio"},
        {"sim.codepack_extra_s", codepack_extra, "s"},
        {"sim.software_extra_s", software_extra, "s"},
        {"harness.parallel_efficiency",
         ratio(serial_sum, workers * wall_untraced), "ratio"},
        {"core.executor_s", live_s - replay_s, "s"},
        {"sim.cell_ms_p50", percentile(workload_ms, 0.50), "ms"},
        {"sim.cell_ms_p95", percentile(workload_ms, 0.95), "ms"},
        {"trace.overhead_s", wall_traced - wall_untraced, "s"},
    };
}

} // namespace perfbench
