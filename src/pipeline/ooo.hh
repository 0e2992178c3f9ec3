/**
 * @file
 * The RUU-based out-of-order pipeline model (paper Table 2, "4-issue" and
 * "8-issue").
 *
 * This follows SimpleScalar's sim-outorder structure: a unified Register
 * Update Unit (reorder buffer + reservation stations), a load/store
 * queue, per-class function-unit pools, W-wide fetch/issue/commit, and a
 * front end with the paper's direction predictors. The model is
 * timing-directed along the correct path: the functional executor
 * supplies the instruction stream. On a misprediction the correct-path
 * fetch stalls until the branch resolves; meanwhile simulateWrongPath
 * fetches down the predicted (wrong) path through the I-cache, so
 * wrong-path misses pollute the cache and occupy the memory channel.
 * Wrong-path instructions never enter the RUU.
 *
 * Cycle phases: commit -> issue -> fetch/dispatch, then the clock
 * advances (skipping provably idle cycles).
 *
 * Scheduling is event-driven, as in sim-outorder: dispatch links each
 * entry to the producers of its operands (and, for a load, to the
 * youngest older store to the same word); a producer's issue wakes its
 * consumers, and an entry whose last producer has issued is ready from
 * that producer's completion cycle on. Each cycle the issue stage walks
 * only the ready entries, oldest first, so it never revisits entries
 * that have issued or still wait on a producer.
 */

#ifndef CPS_PIPELINE_OOO_HH
#define CPS_PIPELINE_OOO_HH

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "config.hh"
#include "core/trace.hh"
#include "frontend.hh"
#include "inorder.hh"
#include "paths.hh"

namespace cps
{

/** Per-instruction out-of-order timing record (optional tracing). */
struct OooTraceEntry
{
    Addr pc = 0;
    Inst inst;
    Cycle fetchedAt = 0;   ///< cycle the op entered the RUU
    Cycle issuedAt = 0;    ///< cycle it began execution
    Cycle doneAt = 0;      ///< cycle its result was produced
    Cycle committedAt = 0; ///< cycle it retired
};

/** Out-of-order superscalar timing model. */
class OoOPipeline
{
  public:
    /** Drives an arbitrary instruction stream (live or replayed). */
    OoOPipeline(const PipelineConfig &cfg, TraceSource &src,
                FetchPath &fetch, DataPath &data, StatSet &stats);

    /** Convenience: drives @p exec through an owned live source. */
    OoOPipeline(const PipelineConfig &cfg, Executor &exec, FetchPath &fetch,
                DataPath &data, StatSet &stats);

    /** Runs until @p max_insns instructions commit or the program exits. */
    RunResult run(u64 max_insns);

    /** Streams per-instruction timing into @p sink while running (must
     *  outlive the run). Pass nullptr to disable. */
    void setTraceSink(std::vector<OooTraceEntry> *sink) { trace_ = sink; }

  private:
    OoOPipeline(const PipelineConfig &cfg,
                std::unique_ptr<LiveTraceSource> owned_src,
                TraceSource *src, FetchPath &fetch, DataPath &data,
                StatSet &stats);

    std::vector<OooTraceEntry> *trace_ = nullptr;
    /** Function-unit pools, indexed by FuPool. */
    enum FuPool : unsigned
    {
        kFuAlu = 0,
        kFuMult,
        kFuMem,
        kFuFpAlu,
        kFuFpMult,
        kNumFuPools,
    };

    static constexpr u64 kNoSeq = ~static_cast<u64>(0);

    /**
     * A dependence edge, (consumer ring slot << 2) | dependence slot.
     * Dependence slots 0-2 are the register sources, 3 the blocking
     * store of a load.
     */
    using Link = u32;
    static constexpr Link kNoLink = ~static_cast<Link>(0);
    static constexpr unsigned kDepSlots = 4;

    /** One RUU entry. The instruction's static properties are copied
     *  in at dispatch so the issue and commit walks never chase them. */
    struct Entry
    {
        Addr pc = 0;
        const Inst *inst = nullptr; ///< for tracing
        Cycle fetchedAt = 0;       ///< dispatch cycle, for tracing
        Cycle issuedAt = 0;        ///< issue cycle, for tracing
        Addr memAddr = 0;
        Cycle readyAt = 0;         ///< latest completion among producers
        Cycle doneAt = kCycleNever;
        Link consumers = kNoLink;  ///< first entry waiting on this one
        Link next[kDepSlots] = {kNoLink, kNoLink, kNoLink, kNoLink};
        unsigned waiting = 0;      ///< producers that have not issued
        unsigned latency = 1;
        InstClass cls = InstClass::Invalid;
        u8 pool = kFuAlu;
        bool isMem = false;
        bool issued = false;
        bool mispredict = false; ///< resolving this entry restarts fetch
        bool serialize = false;  ///< syscall: drain before/after
        Addr wrongPath = kAddrInvalid; ///< where fetch runs until resolve
    };

    /**
     * One function-unit pool. Units are interchangeable, so the pool
     * keeps counts instead of a free cycle per unit: a pipelined op
     * holds its unit for its issue cycle only, a non-pipelined one until
     * a recorded cycle.
     */
    struct Pool
    {
        unsigned units = 0;
        Cycle pipeCycle = kCycleNever; ///< cycle pipeUsed counts for
        unsigned pipeUsed = 0;         ///< pipelined issues that cycle
        /** Free cycles of units held by non-pipelined ops; entries at or
         *  before the current cycle are stale and ignored. */
        std::vector<Cycle> heldUntil;
        Cycle lastHeldUntil = 0; ///< latest of heldUntil

        bool
        hasFreeUnit(Cycle clock) const
        {
            unsigned busy = pipeCycle == clock ? pipeUsed : 0;
            if (lastHeldUntil > clock) {
                for (Cycle f : heldUntil)
                    busy += f > clock;
            }
            return busy < units;
        }

        /** Takes a unit at @p clock; a non-pipelined op holds it until
         *  @p free_at. */
        void
        take(Cycle clock, bool pipelined, Cycle free_at)
        {
            if (pipelined) {
                if (pipeCycle != clock) {
                    pipeCycle = clock;
                    pipeUsed = 0;
                }
                ++pipeUsed;
                return;
            }
            std::erase_if(heldUntil, [&](Cycle f) { return f <= clock; });
            heldUntil.push_back(free_at);
            lastHeldUntil = std::max(lastHeldUntil, free_at);
        }
    };

    /** An in-flight store, for the load/store ordering lookup. */
    struct InFlightStore
    {
        u64 seq;
        Addr word;
    };

    using TimedSlot = std::pair<Cycle, u32>;

    unsigned slotOf(u64 seq) const
    {
        return static_cast<unsigned>(seq) & ruuMask_;
    }
    Entry &at(u64 seq) { return ruu_[slotOf(seq)]; }

    void dependOn(u64 producer, unsigned consumer_slot, unsigned dep);
    void markReady(unsigned slot, Cycle clock);
    void wakeConsumers(const Entry &producer, Cycle clock);
    u64 youngestStoreTo(Addr word) const;
    FuPool poolFor(InstClass cls) const;
    bool nonPipelined(InstClass cls) const;

    PipelineConfig cfg_;
    std::unique_ptr<LiveTraceSource> ownedSrc_; ///< Executor-ctor wrapper
    TraceSource &src_;
    FetchPath &fetch_;
    DataPath &data_;
    FrontEnd frontend_;
    Counter &statInsns_;
    Counter &statCycles_;

    /** Ring of RUU entries; its power-of-two size is >= cfg.ruuSize. */
    std::vector<Entry> ruu_;
    unsigned ruuMask_ = 0;
    u64 headSeq_ = 0;
    u64 tailSeq_ = 0;
    unsigned lsqCount_ = 0;
    unsigned unissued_ = 0;
    /** Ring slots of unissued entries whose producers have all issued
     *  and whose operands arrive by the next cycle. */
    std::vector<u64> readyMask_;
    /** The other entries whose producers have all issued, by the cycle
     *  their operands arrive. */
    std::priority_queue<TimedSlot, std::vector<TimedSlot>,
                        std::greater<>> wakeups_;
    /** Completion cycles of issued entries not yet counted as done. */
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>>
        completions_;
    /** Issued, uncommitted entries done by the cycle after the last
     *  completions_ drain (they pin the idle skip to one cycle). */
    unsigned completedUncommitted_ = 0;
    std::array<Pool, kNumFuPools> pools_;
    std::array<u64, kNumUnifiedRegs> regProducer_{};
    /** In-flight stores, oldest first (a FIFO ring, committed in order). */
    std::vector<InFlightStore> stores_;
    unsigned storeHead_ = 0;
    unsigned storeCount_ = 0;
};

} // namespace cps

#endif // CPS_PIPELINE_OOO_HH
