/**
 * @file
 * Cycle-level model of the CodePack decompression unit on the L1 I-cache
 * miss path (paper §3.2 and Figure 2).
 *
 * Modelled behaviours:
 *   - index-table lookup in main memory, with an index cache probed in
 *     parallel with the L1 (a hit adds no latency). The paper's baseline
 *     CodePack caches the single last-used entry (1 line x 1 index);
 *     the optimized model uses 64 lines x 4 indexes, and a "perfect"
 *     mode never misses (Table 7);
 *   - burst read of the compressed block from main memory;
 *   - serial decode at a configurable rate (1/2/16 instructions per
 *     cycle, Table 8), overlapped with the arriving beats;
 *   - a 16-instruction output buffer that is always filled completely,
 *     acting as a prefetch of the block's other cache line;
 *   - instruction forwarding: the missed word is ready the cycle it is
 *     decoded, not when the whole line is filled.
 */

#ifndef CPS_CODEPACK_TIMING_HH
#define CPS_CODEPACK_TIMING_HH

#include <array>

#include "cache/index_cache.hh"
#include "common/stats.hh"
#include "geometry.hh"
#include "mem/main_memory.hh"
#include "resilience.hh"

namespace cps
{
namespace codepack
{

/** Modeled block prefetcher ahead of the decompressor (ablation knob). */
enum class PrefetchKind : u8
{
    None,      ///< the paper's design: output buffer only
    NextBlock, ///< always predict the next sequential block(s)
    Stride,    ///< confirmed-stride predictor over the block sequence
};

/** Short stable spelling ("none"/"next"/"stride"). */
inline const char *
prefetchKindName(PrefetchKind k)
{
    switch (k) {
      case PrefetchKind::None:
        return "none";
      case PrefetchKind::NextBlock:
        return "next";
      case PrefetchKind::Stride:
        return "stride";
    }
    return "?";
}

/** Decompressor hardware configuration. */
struct DecompressorConfig
{
    /** Index cache geometry; the baseline is the last-used entry. */
    unsigned indexCacheLines = 1;
    unsigned indexesPerLine = 1;
    /** A perfect index cache never misses (index table in on-chip ROM). */
    bool perfectIndexCache = false;
    /** Fetch the whole index-cache line in one burst on an index miss. */
    bool burstIndexFill = false;
    /** Decode bandwidth in instructions per cycle (1, 2, ... 16). */
    unsigned decodeRate = 1;
    /** Block prefetcher; None reproduces the paper's timing exactly. */
    PrefetchKind prefetch = PrefetchKind::None;
    /** Blocks predicted per trigger; also the prefetch-buffer count. */
    unsigned prefetchDepth = 1;
    /** Index-cache victim policy (ablation; the paper uses true LRU). */
    IndexReplacement indexReplacement = IndexReplacement::Lru;
    /** Index-cache set count; 1 = fully associative (the paper). */
    unsigned indexCacheSets = 1;

    /**
     * Per-block protection checked on every fetched block. None keeps
     * the paper's timing bit-identical; any other kind charges
     * eccCheckCycles per fetch even without a soft-error domain (pure
     * protection-cost studies).
     */
    ProtectKind protect = ProtectKind::None;
    /** Pipelined ECC/CRC check latency added to every beat's arrival. */
    unsigned eccCheckCycles = 1;
    /** Extra cycles when SEC-DED repairs a single-bit error in place. */
    unsigned eccCorrectCycles = 3;
    /**
     * Soft-error recovery domain wrapping the simulated image. When
     * set, every fetch is verified through it (corrections and
     * refetches cost cycles, an unrecoverable corruption latches
     * DecompressorModel::softError); it must wrap the same image the
     * model decodes and outlive the model.
     */
    SoftErrorDomain *softErrorDomain = nullptr;

    /** The paper's optimized configuration (§5.3). */
    static DecompressorConfig
    optimized()
    {
        DecompressorConfig cfg;
        cfg.indexCacheLines = 64;
        cfg.indexesPerLine = 4;
        cfg.burstIndexFill = true;
        cfg.decodeRate = 2;
        return cfg;
    }
};

/** Words per I-cache line (32-byte lines of 4-byte instructions). */
constexpr unsigned kLineWords = 8;

/** Timing of one I-cache line fill produced by the decompressor. */
struct LineFill
{
    /** Cycle each word of the requested line becomes available. */
    std::array<Cycle, kLineWords> wordReady{};
    /** When the complete line has been delivered. */
    Cycle fillDone = 0;
    /** The request was served from the output buffer (prefetch hit). */
    bool fromBuffer = false;
};

/** Event trace of the most recent miss (drives the Figure 2 bench). */
struct MissTrace
{
    Cycle requestCycle = 0;
    bool bufferHit = false;
    bool indexHit = false;
    bool indexPerfect = false;
    Cycle indexStart = 0;
    Cycle indexDone = 0;          ///< when the index entry was available
    std::vector<Cycle> codeBeats; ///< arrival of each compressed-code beat
    std::array<Cycle, kBlockInsns> decodeDone{};
    unsigned criticalInsn = 0;    ///< block-relative index of missed word
};

/** The decompression engine's timing model. */
class DecompressorModel
{
  public:
    /**
     * @param img compressed image of the running program
     * @param mem the memory channel shared with the rest of the machine
     * @param cfg hardware configuration
     * @param stats counters registered under "decomp."
     */
    DecompressorModel(const CompressedImage &img, MainMemory &mem,
                      const DecompressorConfig &cfg, StatSet &stats);

    /**
     * Services an I-cache miss for the 32-byte line at @p line_addr.
     * @param now cycle the miss was detected
     * @return per-word availability of the requested line
     */
    LineFill handleMiss(Addr line_addr, Cycle now);

    /** Clears buffer and index-cache state (not statistics). */
    void reset();

    /** Trace of the most recent handleMiss (for timeline dumps). */
    const MissTrace &lastTrace() const { return trace_; }

    const DecompressorConfig &config() const { return cfg_; }

    /**
     * An unrecoverable in-memory corruption was hit on the fetch path.
     * Latched (reset() does not clear it): every cycle count produced
     * after the fault is meaningless, so the machine must abort the
     * run with RunStatus::DecodeFault.
     */
    bool softError() const { return softError_; }

    /** Diagnosis of the latched soft error (block and bit position). */
    const DecodeError &softErrorDetail() const { return softErrorDetail_; }

  private:
    const CompressedImage &img_;
    // Host-side memo: simulated hardware re-decodes a block on every
    // miss, but its geometry never changes, so the host decodes each
    // block once. reset() deliberately leaves the memo alone — it holds
    // pure functions of the (immutable) image, not simulated state.
    GeometryMemo geo_;
    MainMemory &mem_;
    DecompressorConfig cfg_;
    IndexCache idxCache_;

    /**
     * Output buffers. Slot 0 is the demand buffer (the paper's single
     * 16-instruction output buffer); slots 1..prefetchDepth hold
     * speculatively decoded blocks when a prefetcher is configured.
     */
    struct BlockBuffer
    {
        bool valid = false;
        bool prefetched = false; ///< speculative fill, not yet claimed
        u32 group = 0;
        u32 block = 0;
        std::array<Cycle, kBlockInsns> ready{};
    };
    std::vector<BlockBuffer> buffers_;
    unsigned pfRotor_ = 0; ///< round-robin prefetch-slot allocator

    // Stride predictor over the demanded flat-block sequence.
    bool havePrevReq_ = false;
    u32 prevReqFlat_ = 0;
    s64 lastStride_ = 0;
    unsigned strideConf_ = 0;
    /** When the serial decode engine last finished (prefetches queue). */
    Cycle engineBusyUntil_ = 0;

    /**
     * Geometry of flat block @p flat, verified through the soft-error
     * domain when one is attached; sets @p check to the verdict. Null
     * after latching an unrecoverable corruption.
     */
    const BlockGeometry *fetchGeometry(u32 flat, FetchCheck &check);
    /** Decodes one block's timing: burst + serial decode from @p start. */
    std::array<Cycle, kBlockInsns> decodeTiming(u32 group, u32 block,
                                                Cycle idx_ready,
                                                BurstResult *code_out);
    /** Issues speculative decodes predicted after demanding @p flat. */
    void issuePrefetches(u32 flat, Cycle now);

    MissTrace trace_;

    bool softError_ = false;
    DecodeError softErrorDetail_;

    Counter &statMisses_;
    Counter &statBufferHits_;
    Counter &statIdxLookups_;
    Counter &statIdxHits_;
    Counter &statInsnsDecoded_;
    Counter &statPfIssued_;
    Counter &statPfHits_;
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_TIMING_HH
