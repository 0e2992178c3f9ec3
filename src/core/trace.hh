/**
 * @file
 * Trace-once / replay-many execution.
 *
 * Every timed run of the same benchmark retires the same architected
 * instruction stream — the machine configuration changes only *when*
 * instructions move, never *which* instructions move. A full experiment
 * matrix (Table 5 runs each benchmark under 9+ configurations) therefore
 * re-executes the functional core N times for identical answers.
 *
 * This component batches that work: one functional pass records each
 * retired instruction as a compact 16-byte TraceEntry, and any number of
 * timing runs replay the immutable buffer instead of driving the
 * Executor. Both pipelines consume the stream through the TraceSource
 * interface, so live and replayed runs are cycle-for-cycle identical by
 * construction (test_trace_replay asserts it stat-for-stat).
 *
 * Thread safety: a TraceBuffer is immutable after recording; publishing
 * it under a lock (harness::Suite does) makes concurrent replays safe.
 */

#ifndef CPS_CORE_TRACE_HH
#define CPS_CORE_TRACE_HH

#include <vector>

#include "common/result.hh"
#include "executor.hh"

namespace cps
{

/**
 * One retired instruction, 16 bytes. The decoded Inst/InstInfo are not
 * stored: the word index recovers both from the (shared, read-only)
 * DecodedText at replay time.
 */
struct TraceEntry
{
    Addr pc = 0;
    Addr nextPc = 0;
    Addr memAddr = 0; ///< effective address when the op is a memory op
    /** Text word index << 2 | halted << 1 | taken. */
    u32 meta = 0;

    static constexpr u32 kTakenBit = 1u;
    static constexpr u32 kHaltedBit = 2u;

    u32 wordIndex() const { return meta >> 2; }
    bool taken() const { return (meta & kTakenBit) != 0; }
    bool halted() const { return (meta & kHaltedBit) != 0; }
};

static_assert(sizeof(TraceEntry) == 16, "TraceEntry must stay compact");
static_assert(std::is_trivially_copyable_v<TraceEntry>,
              "TraceEntry must be POD");

/** An immutable (after recording) sequence of retired instructions. */
class TraceBuffer
{
  public:
    /** Appends the record of one executed instruction. */
    void
    append(const StepRecord &rec, Addr text_base)
    {
        u32 idx = (rec.pc - text_base) >> 2;
        cps_assert(idx < (1u << 30), "text too large for TraceEntry meta");
        TraceEntry e;
        e.pc = rec.pc;
        e.nextPc = rec.nextPc;
        e.memAddr = rec.memAddr;
        e.meta = (idx << 2) | (rec.taken ? TraceEntry::kTakenBit : 0) |
                 (rec.halted ? TraceEntry::kHaltedBit : 0);
        entries_.push_back(e);
    }

    /** Appends an already-packed entry (trace deserialization). */
    void appendEntry(const TraceEntry &e) { entries_.push_back(e); }

    /** Marks that the trace ends because the program exited. */
    void markComplete() { complete_ = true; }

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const TraceEntry &entry(size_t i) const { return entries_[i]; }

    /** True when the recorded program halted within the recording cap. */
    bool complete() const { return complete_; }

    /**
     * True when a replayed run that retires up to @p max_insns
     * instructions can never read past the end of the buffer.
     * @param lookahead functional steps a pipeline may consume beyond
     *        the retired count (OoO fetch-ahead: RUU depth + 1)
     */
    bool
    covers(u64 max_insns, u64 lookahead) const
    {
        return complete_ || entries_.size() >= max_insns + lookahead;
    }

    /** Heap bytes held by the entry storage (memory-cap accounting). */
    size_t byteSize() const { return entries_.capacity() * sizeof(TraceEntry); }

    void reserve(size_t n) { entries_.reserve(n); }

  private:
    std::vector<TraceEntry> entries_;
    bool complete_ = false;
};

/**
 * The instruction stream a timing pipeline consumes: either a live
 * Executor or a pre-recorded trace. Mirrors the three Executor calls the
 * pipelines make, no more.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** True once the program has exited. */
    virtual bool halted() const = 0;

    /** Produces the next retired instruction. */
    virtual StepRecord step() = 0;

    /** The decoded text the stream runs over (wrong-path bounds). */
    virtual const DecodedText &text() const = 0;
};

/** Live source: each step() functionally executes one instruction. */
class LiveTraceSource final : public TraceSource
{
  public:
    explicit LiveTraceSource(Executor &exec) : exec_(exec) {}

    bool halted() const override { return exec_.halted(); }
    StepRecord step() override { return exec_.step(); }
    const DecodedText &text() const override { return exec_.text(); }

  private:
    Executor &exec_;
};

/**
 * Replay source: step() streams pre-recorded entries, rebuilding each
 * StepRecord from the trace and the decoded text. The caller must have
 * checked TraceBuffer::covers() for its run length; stepping past the
 * end of a truncated trace is a harness bug and panics.
 */
class TraceReplaySource final : public TraceSource
{
  public:
    /**
     * @param trace recorded stream (must outlive the source)
     * @param text decoded text of the same program the trace was
     *        recorded from (indices must agree)
     */
    TraceReplaySource(const TraceBuffer &trace, const DecodedText &text)
        : trace_(trace), text_(text)
    {}

    bool halted() const override { return halted_; }

    StepRecord
    step() override
    {
        cps_assert(cursor_ < trace_.size(),
                   "replay ran past the end of a truncated trace "
                   "(%zu entries)", trace_.size());
        const TraceEntry &e = trace_.entry(cursor_++);
        size_t idx = e.wordIndex();
        StepRecord rec;
        rec.pc = e.pc;
        rec.inst = &text_.instAt(idx);
        rec.info = &text_.infoAt(idx);
        rec.nextPc = e.nextPc;
        rec.taken = e.taken();
        rec.memAddr = e.memAddr;
        rec.halted = e.halted();
        halted_ = rec.halted;
        return rec;
    }

    const DecodedText &text() const override { return text_; }

    /** Restarts the stream from the first entry. */
    void
    rewind()
    {
        cursor_ = 0;
        halted_ = false;
    }

  private:
    const TraceBuffer &trace_;
    const DecodedText &text_;
    size_t cursor_ = 0;
    bool halted_ = false;
};

/**
 * Runs @p prog functionally (a fresh Executor over a fresh memory, the
 * same initial state every Machine builds) and records up to
 * @p max_entries retired instructions. The result is complete() when the
 * program exited within the cap; otherwise it is truncated and only
 * covers() shorter timed runs.
 */
TraceBuffer recordTrace(const Program &prog, u64 max_entries);

/**
 * Serializes @p trace for the on-disk artifact cache (little-endian:
 * magic "CPSTRC1", entry count, completeness flag, packed entries, then
 * a CRC-32 over everything before it).
 */
std::vector<u8> encodeTrace(const TraceBuffer &trace);

/**
 * Checked inverse of encodeTrace. Cached traces are untrusted input
 * (another process wrote them; the disk may have corrupted them), so
 * rejection is a structured DecodeError and the declared entry count is
 * validated against the bytes present before anything is allocated.
 */
Result<TraceBuffer> decodeTraceChecked(const std::vector<u8> &bytes);

} // namespace cps

#endif // CPS_CORE_TRACE_HH
