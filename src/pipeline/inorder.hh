/**
 * @file
 * The 1-issue in-order 5-stage pipeline model (paper Table 2, "1-issue").
 *
 * A timing-directed event-timeline model: the functional executor
 * supplies the retired instruction stream; for each instruction the model
 * computes its fetch, execute and result times under the structural and
 * data constraints of a classic scalar 5-stage pipe with full bypassing:
 *
 *   - one fetch per cycle, through the FetchPath (I-cache + miss path);
 *   - one instruction enters EX per cycle; multi-cycle EX blocks the pipe;
 *   - load results available after MEM (one load-use bubble on a hit);
 *   - conditional branches resolve in EX; a misprediction restarts fetch
 *     the following cycle; direct-jump targets resolve in decode.
 */

#ifndef CPS_PIPELINE_INORDER_HH
#define CPS_PIPELINE_INORDER_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "config.hh"
#include "core/trace.hh"
#include "frontend.hh"
#include "paths.hh"

namespace cps
{

/** Per-instruction timing record (optional tracing; see setTraceSink). */
struct PipeTraceEntry
{
    Addr pc = 0;
    Inst inst;           ///< by value: the trace may outlive the machine
    Cycle fetchDone = 0; ///< cycle IF completed
    Cycle execute = 0;   ///< cycle the op entered EX
    Cycle resultAt = 0;  ///< cycle the result (or store accept) was ready
};

/** Scalar in-order pipeline timing model. */
class InOrderPipeline
{
  public:
    /** Drives an arbitrary instruction stream (live or replayed). */
    InOrderPipeline(const PipelineConfig &cfg, TraceSource &src,
                    FetchPath &fetch, DataPath &data, StatSet &stats);

    /** Convenience: drives @p exec through an owned live source. */
    InOrderPipeline(const PipelineConfig &cfg, Executor &exec,
                    FetchPath &fetch, DataPath &data, StatSet &stats);

    /**
     * Runs until @p max_insns instructions retire or the program exits.
     */
    RunResult run(u64 max_insns);

    /**
     * Streams per-instruction timing into @p sink while running (the
     * pipeline-viewer example uses this). Pass nullptr to disable.
     * The sink must outlive the run.
     */
    void setTraceSink(std::vector<PipeTraceEntry> *sink) { trace_ = sink; }

  private:
    std::vector<PipeTraceEntry> *trace_ = nullptr;
    PipelineConfig cfg_;
    std::unique_ptr<LiveTraceSource> ownedSrc_; ///< Executor-ctor wrapper
    TraceSource &src_;
    FetchPath &fetch_;
    DataPath &data_;
    FrontEnd frontend_;
    Counter &statInsns_;
    Counter &statCycles_;
};

} // namespace cps

#endif // CPS_PIPELINE_INORDER_HH
