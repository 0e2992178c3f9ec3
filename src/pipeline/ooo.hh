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
 * supplies the instruction stream; on a misprediction fetch stalls until
 * the branch resolves (wrong-path fetch is not simulated — the cycle
 * penalty matches, wrong-path cache pollution is not modelled, which the
 * paper's relative comparisons do not depend on).
 *
 * Cycle phases: commit -> issue -> fetch/dispatch, then the clock
 * advances (skipping provably idle cycles).
 */

#ifndef CPS_PIPELINE_OOO_HH
#define CPS_PIPELINE_OOO_HH

#include <memory>
#include <unordered_map>
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

    struct Entry
    {
        Addr pc = 0;
        const InstInfo *info = nullptr;
        Inst inst;                 ///< copy, for tracing
        Cycle fetchedAt = 0;       ///< dispatch cycle, for tracing
        Cycle issuedAt = 0;        ///< issue cycle, for tracing
        Op op = Op::Invalid;
        Addr memAddr = 0;
        u64 src[3] = {kNoSeq, kNoSeq, kNoSeq}; ///< producer sequence nums
        u64 blockingStore = kNoSeq; ///< for loads: older same-word store
        bool issued = false;
        Cycle doneAt = kCycleNever;
        bool mispredict = false; ///< resolving this entry restarts fetch
        Addr wrongPath = kAddrInvalid; ///< where fetch runs until resolve
        bool serialize = false;  ///< syscall: drain before/after
    };

    Entry &at(u64 seq) { return ruu_[seq % ruu_.size()]; }

    bool producerDone(u64 seq, Cycle clock);
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

    std::vector<Entry> ruu_;
    u64 headSeq_ = 0;
    u64 tailSeq_ = 0;
    unsigned lsqCount_ = 0;
    std::vector<Cycle> fuFree_[kNumFuPools];
    std::array<u64, kNumUnifiedRegs> regProducer_{};
    std::unordered_map<Addr, u64> lastStoreToWord_;
};

} // namespace cps

#endif // CPS_PIPELINE_OOO_HH
