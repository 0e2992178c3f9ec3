#include "inorder.hh"

#include <algorithm>
#include <array>

namespace cps
{

InOrderPipeline::InOrderPipeline(const PipelineConfig &cfg, TraceSource &src,
                                 FetchPath &fetch, DataPath &data,
                                 StatSet &stats)
    : cfg_(cfg), src_(src), fetch_(fetch), data_(data),
      frontend_(cfg.predictor, stats),
      statInsns_(stats.scalar("pipeline.insns")),
      statCycles_(stats.scalar("pipeline.cycles"))
{}

InOrderPipeline::InOrderPipeline(const PipelineConfig &cfg, Executor &exec,
                                 FetchPath &fetch, DataPath &data,
                                 StatSet &stats)
    : cfg_(cfg), ownedSrc_(std::make_unique<LiveTraceSource>(exec)),
      src_(*ownedSrc_), fetch_(fetch), data_(data),
      frontend_(cfg.predictor, stats),
      statInsns_(stats.scalar("pipeline.insns")),
      statCycles_(stats.scalar("pipeline.cycles"))
{}

RunResult
InOrderPipeline::run(u64 max_insns)
{
    // Result-availability time per unified register (bypass network).
    std::array<Cycle, kNumUnifiedRegs> reg_ready{};
    reg_ready.fill(0);

    Cycle fetch_slot = 0; ///< earliest cycle of the next fetch
    Cycle last_ex = 0;    ///< EX-stage structural hazard horizon
    Cycle end_time = 0;   ///< latest completion seen
    u64 retired = 0;
    bool exited = false;

    while (retired < max_insns) {
        if (src_.halted()) {
            exited = true;
            break;
        }
        StepRecord rec = src_.step();
        const InstInfo &info = *rec.info;

        // IF: one instruction per cycle through the I-cache.
        Cycle avail = fetch_.fetchWord(rec.pc, fetch_slot);
        Cycle fetch_done = std::max(fetch_slot, avail);
        fetch_slot = fetch_done + 1;

        // EX: wait for decode (+1), operands, and the EX stage itself.
        Cycle ex = std::max(fetch_done + 2, last_ex + 1);
        auto need = [&](int reg) {
            if (reg != kRegNone)
                ex = std::max(ex, reg_ready[reg]);
        };
        need(info.src1);
        need(info.src2);
        need(info.src3);

        Cycle result_at = ex + info.latency;
        if (info.isMem) {
            Cycle mem_done =
                data_.access(rec.memAddr, info.cls == InstClass::Store,
                             ex + 1);
            if (info.cls == InstClass::Load)
                result_at = mem_done;
            else
                result_at = ex + 1; // store: write buffer absorbs it
        }

        if (info.dest != kRegNone)
            reg_ready[info.dest] = result_at;

        // A multi-cycle EX blocks the single pipe.
        last_ex = ex + (info.latency > 1 ? info.latency - 1 : 0);

        if (info.isControl) {
            ControlOutcome out = frontend_.handleControl(rec);
            if (out.mispredict) {
                // Fetch runs the wrong path until the branch resolves in
                // EX, then restarts the next cycle.
                simulateWrongPath(fetch_, out.wrongPath,
                                  src_.text().base(), src_.text().end(),
                                  fetch_done + 1, ex + 1, 1);
                fetch_slot = std::max(fetch_slot,
                                      ex + 1 + cfg_.mispredictExtra);
            } else if (out.minorBubble) {
                // Target produced by decode: one lost fetch slot.
                fetch_slot = std::max(fetch_slot, fetch_done + 2);
            } else if (rec.taken) {
                // Correctly predicted taken: fetch continues at the
                // target next cycle (no penalty beyond the slot shift).
                fetch_slot = std::max(fetch_slot, fetch_done + 1);
            }
        }

        if (info.cls == InstClass::Syscall) {
            // Syscalls serialise the pipe.
            fetch_slot = std::max(fetch_slot, result_at + 1);
        }

        if (trace_) {
            PipeTraceEntry entry;
            entry.pc = rec.pc;
            entry.inst = *rec.inst;
            entry.fetchDone = fetch_done;
            entry.execute = ex;
            entry.resultAt = result_at;
            trace_->push_back(entry);
        }

        end_time = std::max({end_time, result_at, fetch_done + 4});
        ++retired;
        if (rec.halted)
            exited = true;
    }

    RunResult res;
    res.instructions = retired;
    res.cycles = end_time;
    res.programExited = exited;
    statInsns_.set(retired);
    statCycles_.set(end_time);
    return res;
}

} // namespace cps
