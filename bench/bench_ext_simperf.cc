/**
 * @file
 * Extension experiment: host-side simulator performance. Unlike every
 * other bench, the numbers here are about the *simulator*, not the
 * simulated machine — how fast the trusted LUT decoder chews through
 * compressed blocks compared to the checked bit-serial reference, how
 * many instructions per second the 4-issue model simulates (driving the
 * functional core live vs. replaying the recorded trace), the
 * wall-clock of a full experiment-matrix regeneration serial vs.
 * parallel and live vs. replay (the `runMatrix` engine, worker count
 * from CPS_THREADS), and the chunk-parallel single-run engine's
 * thread scaling plus its speculative-mode accuracy versus warm-up
 * length.
 *
 * Besides the human-readable table the bench writes BENCH_simperf.json
 * into the working directory so later changes can track the host-perf
 * trajectory. Wall-clock numbers are machine-dependent by nature; the
 * JSON records the worker count so readers can normalize.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "codepack/block_fetcher.hh"
#include "codepack/decompressor.hh"
#include "common/artifact_cache.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/chunked.hh"
#include "harness/engine.hh"

using namespace cps;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * BENCH_simperf.json schema version, bumped whenever a key is added,
 * removed, or changes meaning. tests/check_simperf_schema.py pins the
 * emitted document against this number and its required keys.
 * Schema 8: bench_ext_soft_errors may merge an optional "softerr"
 * section (coverage, silent-rate, recovery-latency, and storage-cost
 * aggregates of the soft-error campaigns).
 * Schema 9: "hostpf" drops direct_blocks_per_sec (the direct-mapped
 * BlockCache is gone); warm_refill_speedup is now the scored fetcher's
 * rate over the plain-LRU rate.
 */
constexpr int kSchema = 9;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Blocks decoded per second through @p decode: best of three ~0.2 s
 * timing windows (the best window is the least disturbed by scheduler
 * noise — the usual convention for wall-clock microbenchmarks).
 */
template <typename Fn>
double
blocksPerSecond(u32 num_blocks, Fn &&decode)
{
    // Warm up (and fault in the LUT / stream pages) first.
    for (u32 b = 0; b < num_blocks; ++b)
        decode(b);
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        u64 decoded = 0;
        auto start = Clock::now();
        double elapsed = 0;
        do {
            for (u32 b = 0; b < num_blocks; ++b)
                decode(b);
            decoded += num_blocks;
            elapsed = secondsSince(start);
        } while (elapsed < 0.2);
        best = std::max(best, static_cast<double>(decoded) / elapsed);
    }
    return best;
}

/**
 * The full-suite speedup matrix used for the wall-clock comparison:
 * both pipeline models x all four code models, the shape of the
 * paper's multi-configuration tables.
 */
std::vector<harness::RunRequest>
matrixRequests(Suite &suite, u64 insns)
{
    std::vector<harness::RunRequest> reqs;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        for (const MachineConfig &base :
             {baseline1Issue(), baseline4Issue()}) {
            for (CodeModel model :
                 {CodeModel::Native, CodeModel::CodePack,
                  CodeModel::CodePackOptimized,
                  CodeModel::CodePackSoftware}) {
                reqs.push_back(
                    {&bench, base.withCodeModel(model), insns});
            }
        }
    }
    return reqs;
}

std::string
grouped(double v)
{
    return TextTable::grouped(static_cast<u64>(v));
}

} // namespace

int
main()
{
    u64 insns = Suite::runInsns();
    Suite &suite = Suite::instance();

    // --- 0. Pregeneration wall-clock: cold vs warm artifact cache -----
    // A private scratch cache (not the process-wide one) so "cold" is
    // genuinely cold and the measurement does not disturb — or get
    // helped by — any .cps-cache a previous run left behind.
    const std::string scratch_cache = "simperf_pregen_cache";
    std::filesystem::remove_all(scratch_cache);
    ArtifactCache pregen_cache(scratch_cache, true);
    auto timePregen = [&] {
        auto start = Clock::now();
        for (const std::string &name : suite.names()) {
            std::unique_ptr<BenchProgram> bench =
                buildBenchProgram(name, pregen_cache);
            asm volatile("" : : "r"(bench.get()) : "memory");
        }
        return secondsSince(start);
    };
    double pregen_cold_s = timePregen(); // computes + stores
    double pregen_warm_s = timePregen(); // loads + verifies
    std::filesystem::remove_all(scratch_cache);
    double pregen_speedup =
        pregen_cold_s / (pregen_warm_s > 0 ? pregen_warm_s : 1.0);

    suite.pregenerate();

    // --- 1. Trusted LUT decode vs checked bit-serial reference --------
    const BenchProgram *largest = nullptr;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        if (!largest ||
            bench.image.bytes.size() > largest->image.bytes.size())
            largest = &bench;
    }
    u32 blocks = largest->image.numBlocks();

    // --- 1b. Parallel block compression: serial vs CPS_THREADS workers
    std::vector<u32> comp_words;
    comp_words.reserve(largest->program.textWords());
    for (size_t i = 0; i < largest->program.textWords(); ++i)
        comp_words.push_back(largest->program.word(i));
    auto timeCompress = [&](unsigned threads, bool simd) {
        codepack::CompressorConfig cfg;
        cfg.threads = threads;
        cfg.simd = simd;
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            auto start = Clock::now();
            codepack::CompressedImage img = codepack::compressWords(
                comp_words, largest->program.text.base, cfg);
            best = std::min(best, secondsSince(start));
            asm volatile("" : : "r"(img.bytes.data()) : "memory");
        }
        return best;
    };
    unsigned workers = defaultThreadCount();
    double compress_serial_s = timeCompress(1, true);
    double compress_parallel_s = timeCompress(workers, true);
    double compress_scalar_s = timeCompress(1, false);
    double compress_speedup =
        compress_serial_s /
        (compress_parallel_s > 0 ? compress_parallel_s : 1.0);
    double simd_speedup =
        compress_scalar_s /
        (compress_serial_s > 0 ? compress_serial_s : 1.0);

    // --- 1c. The decode kernel ladder, per block -----------------------
    // Single-block latency for each rung, plus the batched entry point
    // (decompressBlocks interleaves up to four independent block
    // streams per loop) — the batched ns/block is the headline number.
    auto kernelBps = [&](codepack::DecodeKernel k) {
        codepack::Decompressor d(largest->image, k);
        return blocksPerSecond(blocks, [&](u32 b) {
            codepack::DecodedBlock blk = d.decompressFlatBlock(b);
            asm volatile("" : : "r"(blk.words[0]) : "memory");
        });
    };
    double checked_bps = kernelBps(codepack::DecodeKernel::Checked);
    double lut_bps = kernelBps(codepack::DecodeKernel::Lut);
    double lut2_bps = kernelBps(codepack::DecodeKernel::Lut2);
    codepack::Decompressor batch_decomp(largest->image,
                                        codepack::DecodeKernel::Lut2);
    std::vector<codepack::DecodedBlock> batch_out(blocks);
    auto batchedBps = [&] {
        // One decompressBlocks sweep per window pass; normalize the
        // best-window convention by timing whole sweeps directly.
        for (int warm = 0; warm < 2; ++warm)
            batch_decomp.decompressBlocks(0, blocks, batch_out.data());
        double best = 0;
        for (int rep = 0; rep < 5; ++rep) {
            u64 decoded = 0;
            auto start = Clock::now();
            double elapsed = 0;
            do {
                batch_decomp.decompressBlocks(0, blocks,
                                              batch_out.data());
                asm volatile("" : : "r"(batch_out.data()) : "memory");
                decoded += blocks;
                elapsed = secondsSince(start);
            } while (elapsed < 0.2);
            best =
                std::max(best, static_cast<double>(decoded) / elapsed);
        }
        return best;
    };
    double batched_bps = batchedBps();
    double decode_speedup =
        batched_bps / (checked_bps > 0 ? checked_bps : 1.0);
    auto nsPerBlock = [](double bps) {
        return bps > 0 ? 1e9 / bps : 0.0;
    };

    // --- 1d. Host block cache: plain LRU memo vs scored prefetch -----
    // Warm-refill throughput of the two host caches on a sequential
    // sweep over every block of the largest image. The image holds far
    // more blocks than the 64-slot cache, so every sweep is a full
    // refill — the worst case the fetcher's batched decode-ahead is
    // meant to win.
    const unsigned hostpf_slots = 64;
    codepack::BlockFetcher::Options lru_opts;
    lru_opts.slots = hostpf_slots;
    lru_opts.prefetch = false;
    codepack::BlockFetcher lru_fetch(batch_decomp, lru_opts);
    codepack::BlockFetcher::Options pf_opts;
    pf_opts.slots = hostpf_slots;
    codepack::BlockFetcher pf_fetch(batch_decomp, pf_opts);
    auto lruSweep = [&](u32 b) {
        const codepack::DecodedBlock &blk = lru_fetch.getFlat(b);
        asm volatile("" : : "r"(blk.words[0]) : "memory");
    };
    auto pfSweep = [&](u32 b) {
        const codepack::DecodedBlock &blk = pf_fetch.getFlat(b);
        asm volatile("" : : "r"(blk.words[0]) : "memory");
    };
    // One ~0.2 s timing window; the two caches take their windows
    // interleaved, rep by rep, so slow drift (turbo decay, a noisy
    // neighbor) hits all of them alike instead of biasing the ratio.
    auto window = [&](auto &&sweep) {
        u64 decoded = 0;
        auto start = Clock::now();
        double elapsed = 0;
        do {
            for (u32 b = 0; b < blocks; ++b)
                sweep(b);
            decoded += blocks;
            elapsed = secondsSince(start);
        } while (elapsed < 0.2);
        return static_cast<double>(decoded) / elapsed;
    };
    for (u32 b = 0; b < blocks; ++b) { // warm both
        lruSweep(b);
        pfSweep(b);
    }
    double lru_bps = 0, fetcher_bps = 0;
    for (int rep = 0; rep < 5; ++rep) {
        lru_bps = std::max(lru_bps, window(lruSweep));
        fetcher_bps = std::max(fetcher_bps, window(pfSweep));
    }
    double warm_refill_speedup =
        fetcher_bps / (lru_bps > 0 ? lru_bps : 1.0);
    u64 hostpf_issued = pf_fetch.prefetchIssued();
    u64 hostpf_hits = pf_fetch.prefetchHits();
    double hostpf_hit_rate =
        hostpf_issued == 0 ? 0.0
                           : static_cast<double>(hostpf_hits) /
                                 static_cast<double>(hostpf_issued);

    // --- 2. Simulated instructions per second, live vs replay ---------
    const BenchProgram &go = suite.get("go");
    auto simRate = [&](const MachineConfig &cfg, ReplayMode mode) {
        runMachine(go, cfg, 20000, mode); // warm-up
        double best = 0;
        for (int rep = 0; rep < 3; ++rep) {
            u64 simulated = 0;
            auto start = Clock::now();
            double elapsed = 0;
            do {
                RunOutcome out = runMachine(go, cfg, insns, mode);
                simulated += out.result.instructions;
                elapsed = secondsSince(start);
            } while (elapsed < 0.2);
            best =
                std::max(best, static_cast<double>(simulated) / elapsed);
        }
        return best;
    };
    MachineConfig native_cfg = baseline4Issue();
    MachineConfig cp_cfg =
        baseline4Issue().withCodeModel(CodeModel::CodePackOptimized);
    MachineConfig inorder_cfg = baseline1Issue();
    double native_ips = simRate(native_cfg, ReplayMode::ForceLive);
    double native_replay_ips = simRate(native_cfg, ReplayMode::Auto);
    double cp_ips = simRate(cp_cfg, ReplayMode::ForceLive);
    double cp_replay_ips = simRate(cp_cfg, ReplayMode::Auto);
    double inorder_ips = simRate(inorder_cfg, ReplayMode::ForceLive);
    double inorder_replay_ips = simRate(inorder_cfg, ReplayMode::Auto);

    // --- 3. Full-matrix regeneration: serial vs parallel, live vs
    //        replay. serial/parallel use the default mode (replay when
    //        the trace covers), matching what the table binaries do.
    std::vector<harness::RunRequest> reqs = matrixRequests(suite, insns);
    auto timeMatrix = [&](unsigned threads, ReplayMode mode) {
        for (harness::RunRequest &req : reqs)
            req.mode = mode;
        // Best of two passes: a full matrix takes long enough that one
        // scheduler hiccup would otherwise dominate the comparison.
        double best = 1e300;
        for (int rep = 0; rep < 2; ++rep) {
            auto start = Clock::now();
            std::vector<RunOutcome> out =
                harness::runMatrix(reqs, threads);
            best = std::min(best, secondsSince(start));
            asm volatile("" : : "r"(out.data()) : "memory");
        }
        return best;
    };
    double serial_s = timeMatrix(1, ReplayMode::Auto);
    double parallel_s = timeMatrix(workers, ReplayMode::Auto);
    double matrix_live_s = timeMatrix(workers, ReplayMode::ForceLive);
    double matrix_replay_s = parallel_s;
    double replay_speedup =
        matrix_live_s / (matrix_replay_s > 0 ? matrix_replay_s : 1.0);

    // --- 4. Chunk-parallel single run: throughput and accuracy --------
    // Throughput: the same single run split into a fixed 8-chunk plan
    // (so the plan never changes), speculative warm-up, at 1/2/4/8
    // worker threads; the serial replay rate above is the baseline.
    const u64 chunk_insns = (insns + 7) / 8;
    auto chunkedRate = [&](unsigned threads) {
        harness::ChunkOptions opt;
        opt.chunkInsns = chunk_insns;
        opt.threads = threads;
        harness::runMachineChunked(go, native_cfg, insns, opt); // warm-up
        double best = 0;
        for (int rep = 0; rep < 3; ++rep) {
            u64 simulated = 0;
            auto start = Clock::now();
            double elapsed = 0;
            do {
                RunOutcome out =
                    harness::runMachineChunked(go, native_cfg, insns, opt);
                simulated += out.result.instructions;
                elapsed = secondsSince(start);
            } while (elapsed < 0.2);
            best =
                std::max(best, static_cast<double>(simulated) / elapsed);
        }
        return best;
    };
    const unsigned chunk_threads[] = {1, 2, 4, 8};
    double chunk_ips[4];
    for (size_t i = 0; i < 4; ++i)
        chunk_ips[i] = chunkedRate(chunk_threads[i]);
    double chunk_speedup_8t =
        chunk_ips[3] / (native_replay_ips > 0 ? native_replay_ips : 1.0);

    // Accuracy: speculative boundaries are only warmed W entries deep,
    // so the stitched stats drift from serial; measure the worst IPC
    // and I-miss-rate deviation across all benchmarks and both
    // pipelines as W grows.
    struct ChunkAccuracy
    {
        u64 warmup;
        double maxIpcDelta = 0;      // relative |ΔIPC| / IPC_serial
        double maxMissRateDelta = 0; // absolute |Δ miss rate|
    };
    std::vector<ChunkAccuracy> accuracy = {{1024}, {4096}, {16384}};
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        for (const MachineConfig &base :
             {baseline1Issue(),
              baseline4Issue().withCodeModel(CodeModel::CodePack)}) {
            RunOutcome serial = runMachineSerial(bench, base, insns);
            double serial_ipc =
                static_cast<double>(serial.result.instructions) /
                static_cast<double>(serial.result.cycles);
            for (ChunkAccuracy &acc : accuracy) {
                harness::ChunkOptions opt;
                opt.chunkInsns = chunk_insns;
                opt.warmupInsns = acc.warmup;
                opt.threads = workers;
                RunOutcome chunked =
                    harness::runMachineChunked(bench, base, insns, opt);
                double ipc =
                    static_cast<double>(chunked.result.instructions) /
                    static_cast<double>(chunked.result.cycles);
                acc.maxIpcDelta =
                    std::max(acc.maxIpcDelta,
                             std::abs(ipc - serial_ipc) / serial_ipc);
                acc.maxMissRateDelta = std::max(
                    acc.maxMissRateDelta,
                    std::abs(chunked.icacheMissRate -
                             serial.icacheMissRate));
            }
        }
    }

    TextTable t;
    t.setTitle("Extension: host simulator performance "
               "(simulator wall-clock, not simulated cycles)");
    t.addHeader({"Metric", "Value"});
    t.addRow({"pregeneration, cold cache",
              strfmt("%.3f s (%zu benchmarks)", pregen_cold_s,
                     suite.names().size())});
    t.addRow({"pregeneration, warm cache",
              strfmt("%.3f s (%.1fx)", pregen_warm_s, pregen_speedup)});
    t.addRow({"CodePack compress, serial",
              strfmt("%.4f s (largest benchmark)", compress_serial_s)});
    t.addRow({strfmt("CodePack compress, %u workers", workers),
              strfmt("%.4f s (%.2fx)", compress_parallel_s,
                     compress_speedup)});
    t.addRow({strfmt("CodePack compress, scalar loops (no %s)",
                     simd::kBackend),
              strfmt("%.4f s (simd %.2fx)", compress_scalar_s,
                     simd_speedup)});
    t.addRow({"decode, checked bit-serial",
              strfmt("%s blocks/s (%.1f ns/block)",
                     grouped(checked_bps).c_str(),
                     nsPerBlock(checked_bps))});
    t.addRow({"decode, lut kernel",
              strfmt("%s blocks/s (%.1f ns/block)",
                     grouped(lut_bps).c_str(), nsPerBlock(lut_bps))});
    t.addRow({"decode, lut2 kernel",
              strfmt("%s blocks/s (%.1f ns/block)",
                     grouped(lut2_bps).c_str(), nsPerBlock(lut2_bps))});
    t.addRow({"decode, lut2 batched (headline)",
              strfmt("%s blocks/s (%.1f ns/block)",
                     grouped(batched_bps).c_str(),
                     nsPerBlock(batched_bps))});
    t.addRow({"batched speedup over checked",
              strfmt("%.2fx (default kernel: %s)", decode_speedup,
                     codepack::decodeKernelName(
                         codepack::defaultDecodeKernel()))});
    t.addRow({strfmt("host cache, LRU %u, no prefetch", hostpf_slots),
              strfmt("%s blocks/s (%.1f ns/block)",
                     grouped(lru_bps).c_str(), nsPerBlock(lru_bps))});
    t.addRow({strfmt("host cache, scored prefetch %u", hostpf_slots),
              strfmt("%s blocks/s (%.1f ns/block, %.2fx vs LRU)",
                     grouped(fetcher_bps).c_str(),
                     nsPerBlock(fetcher_bps), warm_refill_speedup)});
    t.addRow({"host prefetch accuracy",
              strfmt("%s issued, %s claimed (%.1f%%)",
                     TextTable::grouped(hostpf_issued).c_str(),
                     TextTable::grouped(hostpf_hits).c_str(),
                     hostpf_hit_rate * 100.0)});
    t.addRow({"4-issue native simulation, live",
              strfmt("%s insns/s", grouped(native_ips).c_str())});
    t.addRow({"4-issue native simulation, replay",
              strfmt("%s insns/s (%.2fx)",
                     grouped(native_replay_ips).c_str(),
                     native_replay_ips /
                         (native_ips > 0 ? native_ips : 1.0))});
    t.addRow({"4-issue CodePack-opt simulation, live",
              strfmt("%s insns/s", grouped(cp_ips).c_str())});
    t.addRow({"4-issue CodePack-opt simulation, replay",
              strfmt("%s insns/s (%.2fx)", grouped(cp_replay_ips).c_str(),
                     cp_replay_ips / (cp_ips > 0 ? cp_ips : 1.0))});
    t.addRow({"1-issue in-order simulation, live",
              strfmt("%s insns/s", grouped(inorder_ips).c_str())});
    t.addRow({"1-issue in-order simulation, replay",
              strfmt("%s insns/s (%.2fx)",
                     grouped(inorder_replay_ips).c_str(),
                     inorder_replay_ips /
                         (inorder_ips > 0 ? inorder_ips : 1.0))});
    t.addRow({"matrix regeneration, serial",
              strfmt("%.2f s (%zu runs)", serial_s, reqs.size())});
    t.addRow({strfmt("matrix regeneration, %u workers", workers),
              strfmt("%.2f s (%.2fx)", parallel_s,
                     serial_s / (parallel_s > 0 ? parallel_s : 1.0))});
    t.addRow({strfmt("matrix, %u workers, live core", workers),
              strfmt("%.2f s", matrix_live_s)});
    t.addRow({strfmt("matrix, %u workers, trace replay", workers),
              strfmt("%.2f s (%.2fx)", matrix_replay_s, replay_speedup)});
    for (size_t i = 0; i < 4; ++i) {
        t.addRow({strfmt("4-issue chunked run, %u threads",
                         chunk_threads[i]),
                  strfmt("%s insns/s (%.2fx vs serial replay)",
                         grouped(chunk_ips[i]).c_str(),
                         chunk_ips[i] / (native_replay_ips > 0
                                             ? native_replay_ips
                                             : 1.0))});
    }
    for (const ChunkAccuracy &acc : accuracy) {
        t.addRow({strfmt("chunked accuracy, W=%llu",
                         static_cast<unsigned long long>(acc.warmup)),
                  strfmt("max IPC delta %.3f%%, max I-miss-rate delta "
                         "%.5f",
                         acc.maxIpcDelta * 100.0, acc.maxMissRateDelta)});
    }
    t.print();

    // --- JSON trajectory record ---------------------------------------
    FILE *f = std::fopen("BENCH_simperf.json", "w");
    if (!f) {
        std::fprintf(stderr, "could not write BENCH_simperf.json\n");
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": %d,\n"
        "  \"pregen\": {\n"
        "    \"cold_seconds\": %.4f,\n"
        "    \"warm_seconds\": %.4f,\n"
        "    \"warm_speedup\": %.3f\n"
        "  },\n"
        "  \"compress\": {\n"
        "    \"serial_seconds\": %.5f,\n"
        "    \"parallel_seconds\": %.5f,\n"
        "    \"scalar_seconds\": %.5f,\n"
        "    \"workers\": %u,\n"
        "    \"speedup\": %.3f,\n"
        "    \"simd_backend\": \"%s\",\n"
        "    \"simd_speedup\": %.3f\n"
        "  },\n"
        "  \"decode\": {\n"
        "    \"kernel_default\": \"%s\",\n"
        "    \"checked_blocks_per_sec\": %.0f,\n"
        "    \"lut_blocks_per_sec\": %.0f,\n"
        "    \"lut2_blocks_per_sec\": %.0f,\n"
        "    \"batched_blocks_per_sec\": %.0f,\n"
        "    \"checked_ns_per_block\": %.1f,\n"
        "    \"lut_ns_per_block\": %.1f,\n"
        "    \"lut2_ns_per_block\": %.1f,\n"
        "    \"batched_ns_per_block\": %.1f,\n"
        "    \"batched_speedup\": %.3f\n"
        "  },\n"
        "  \"hostpf\": {\n"
        "    \"slots\": %u,\n"
        "    \"lru_blocks_per_sec\": %.0f,\n"
        "    \"fetcher_blocks_per_sec\": %.0f,\n"
        "    \"warm_refill_speedup\": %.3f,\n"
        "    \"prefetch_issued\": %llu,\n"
        "    \"prefetch_hits\": %llu,\n"
        "    \"prefetch_hit_rate\": %.4f\n"
        "  },\n"
        "  \"simulation\": {\n"
        "    \"native_insns_per_sec\": %.0f,\n"
        "    \"native_replay_insns_per_sec\": %.0f,\n"
        "    \"codepack_opt_insns_per_sec\": %.0f,\n"
        "    \"codepack_opt_replay_insns_per_sec\": %.0f,\n"
        "    \"inorder_insns_per_sec\": %.0f,\n"
        "    \"inorder_replay_insns_per_sec\": %.0f\n"
        "  },\n"
        "  \"matrix\": {\n"
        "    \"runs\": %zu,\n"
        "    \"insns_per_run\": %llu,\n"
        "    \"serial_seconds\": %.3f,\n"
        "    \"parallel_seconds\": %.3f,\n"
        "    \"workers\": %u,\n"
        "    \"speedup\": %.3f,\n"
        "    \"live_seconds\": %.3f,\n"
        "    \"replay_seconds\": %.3f,\n"
        "    \"replay_speedup\": %.3f\n"
        "  },\n"
        "  \"chunked\": {\n"
        "    \"chunk_insns\": %llu,\n"
        "    \"insns_per_sec_1t\": %.0f,\n"
        "    \"insns_per_sec_2t\": %.0f,\n"
        "    \"insns_per_sec_4t\": %.0f,\n"
        "    \"insns_per_sec_8t\": %.0f,\n"
        "    \"speedup_8t_vs_serial_replay\": %.3f,\n"
        "    \"accuracy\": [\n"
        "      {\"warmup\": %llu, \"max_ipc_delta\": %.6f, "
        "\"max_missrate_delta\": %.6f},\n"
        "      {\"warmup\": %llu, \"max_ipc_delta\": %.6f, "
        "\"max_missrate_delta\": %.6f},\n"
        "      {\"warmup\": %llu, \"max_ipc_delta\": %.6f, "
        "\"max_missrate_delta\": %.6f}\n"
        "    ]\n"
        "  }\n"
        "}\n",
        kSchema, pregen_cold_s, pregen_warm_s, pregen_speedup,
        compress_serial_s, compress_parallel_s, compress_scalar_s,
        workers, compress_speedup, simd::kBackend, simd_speedup,
        codepack::decodeKernelName(codepack::defaultDecodeKernel()),
        checked_bps, lut_bps, lut2_bps, batched_bps,
        nsPerBlock(checked_bps), nsPerBlock(lut_bps),
        nsPerBlock(lut2_bps), nsPerBlock(batched_bps),
        decode_speedup, hostpf_slots, lru_bps, fetcher_bps,
        warm_refill_speedup,
        static_cast<unsigned long long>(hostpf_issued),
        static_cast<unsigned long long>(hostpf_hits), hostpf_hit_rate,
        native_ips, native_replay_ips,
        cp_ips, cp_replay_ips, inorder_ips, inorder_replay_ips,
        reqs.size(),
        static_cast<unsigned long long>(insns), serial_s, parallel_s,
        workers, serial_s / (parallel_s > 0 ? parallel_s : 1.0),
        matrix_live_s, matrix_replay_s, replay_speedup,
        static_cast<unsigned long long>(chunk_insns),
        chunk_ips[0], chunk_ips[1], chunk_ips[2], chunk_ips[3],
        chunk_speedup_8t,
        static_cast<unsigned long long>(accuracy[0].warmup),
        accuracy[0].maxIpcDelta, accuracy[0].maxMissRateDelta,
        static_cast<unsigned long long>(accuracy[1].warmup),
        accuracy[1].maxIpcDelta, accuracy[1].maxMissRateDelta,
        static_cast<unsigned long long>(accuracy[2].warmup),
        accuracy[2].maxIpcDelta, accuracy[2].maxMissRateDelta);
    std::fclose(f);
    std::printf("\nWrote BENCH_simperf.json (schema %d).\n", kSchema);
    return 0;
}
