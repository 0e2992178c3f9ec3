#include "ooo.hh"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/watchdog.hh"

namespace cps
{

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, TraceSource &src,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : OoOPipeline(cfg, nullptr, &src, fetch, data, stats)
{}

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, Executor &exec,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : OoOPipeline(cfg, std::make_unique<LiveTraceSource>(exec), nullptr,
                  fetch, data, stats)
{}

OoOPipeline::OoOPipeline(const PipelineConfig &cfg,
                         std::unique_ptr<LiveTraceSource> owned_src,
                         TraceSource *src, FetchPath &fetch, DataPath &data,
                         StatSet &stats)
    : cfg_(cfg), ownedSrc_(std::move(owned_src)),
      src_(src ? *src : *ownedSrc_), fetch_(fetch), data_(data),
      frontend_(cfg.predictor, stats),
      statInsns_(stats.scalar("pipeline.insns")),
      statCycles_(stats.scalar("pipeline.cycles"))
{
    cps_assert(cfg.ruuSize >= cfg.width, "RUU smaller than machine width");
    ruu_.resize(std::bit_ceil(cfg.ruuSize));
    ruuMask_ = static_cast<unsigned>(ruu_.size() - 1);
    readyMask_.resize((ruu_.size() + 63) / 64);
    stores_.resize(std::bit_ceil(std::max(cfg.lsqSize, 1u)));
    pools_[kFuAlu].units = cfg.numAlu;
    pools_[kFuMult].units = cfg.numMult;
    pools_[kFuMem].units = cfg.numMemPorts;
    pools_[kFuFpAlu].units = cfg.numFpAlu;
    pools_[kFuFpMult].units = cfg.numFpMult;
}

OoOPipeline::FuPool
OoOPipeline::poolFor(InstClass cls) const
{
    switch (cls) {
      case InstClass::IntMult:
      case InstClass::IntDiv:
        return kFuMult;
      case InstClass::Load:
      case InstClass::Store:
        return kFuMem;
      case InstClass::FpAlu:
      case InstClass::FpCvt:
        return kFuFpAlu;
      case InstClass::FpMult:
      case InstClass::FpDiv:
        return kFuFpMult;
      default:
        return kFuAlu;
    }
}

bool
OoOPipeline::nonPipelined(InstClass cls) const
{
    // Divides occupy their unit for the full latency (SimpleScalar's
    // default issue rates); everything else is fully pipelined.
    return cls == InstClass::IntDiv || cls == InstClass::FpDiv;
}

inline void
OoOPipeline::dependOn(u64 producer, unsigned consumer_slot, unsigned dep)
{
    if (producer == kNoSeq || producer < headSeq_)
        return; // never tracked, or already committed
    Entry &p = at(producer);
    Entry &c = ruu_[consumer_slot];
    if (p.issued) {
        c.readyAt = std::max(c.readyAt, p.doneAt);
        return;
    }
    c.next[dep] = p.consumers;
    p.consumers = static_cast<Link>(consumer_slot << 2 | dep);
    ++c.waiting;
}

inline void
OoOPipeline::markReady(unsigned slot, Cycle clock)
{
    // Nearly every operand arrives by the next cycle: such an entry joins
    // the ready set at once, and the issue walk skips it until its cycle.
    Cycle ready_at = ruu_[slot].readyAt;
    if (ready_at <= clock + 1)
        readyMask_[slot >> 6] |= u64{1} << (slot & 63);
    else
        wakeups_.emplace(ready_at, slot);
}

inline void
OoOPipeline::wakeConsumers(const Entry &producer, Cycle clock)
{
    for (Link l = producer.consumers; l != kNoLink;) {
        unsigned slot = l >> 2;
        Entry &c = ruu_[slot];
        l = c.next[l & 3];
        c.readyAt = std::max(c.readyAt, producer.doneAt);
        if (--c.waiting == 0)
            markReady(slot, clock);
    }
}

u64
OoOPipeline::youngestStoreTo(Addr word) const
{
    const unsigned mask = static_cast<unsigned>(stores_.size() - 1);
    for (unsigned i = storeCount_; i-- > 0;) {
        const InFlightStore &s = stores_[(storeHead_ + i) & mask];
        if (s.word == word)
            return s.seq;
    }
    return kNoSeq;
}

RunResult
OoOPipeline::run(u64 max_insns)
{
    Cycle clock = 0;
    Cycle fetch_blocked_until = 0;
    u64 retired = 0;
    bool exited = false;
    std::optional<StepRecord> pending;

    headSeq_ = tailSeq_ = 0;
    lsqCount_ = 0;
    unissued_ = 0;
    regProducer_.fill(kNoSeq);
    std::fill(readyMask_.begin(), readyMask_.end(), 0);
    wakeups_ = decltype(wakeups_){};
    completions_ = decltype(completions_){};
    completedUncommitted_ = 0;
    storeHead_ = storeCount_ = 0;
    for (Pool &pool : pools_) {
        pool.pipeCycle = kCycleNever;
        pool.heldUntil.clear();
        pool.lastHeldUntil = 0;
    }
    const unsigned store_mask = static_cast<unsigned>(stores_.size() - 1);

    auto ruu_empty = [&] { return headSeq_ == tailSeq_; };
    auto ruu_full = [&] { return tailSeq_ - headSeq_ == cfg_.ruuSize; };

    // Livelock guard: the deadlock assert below catches a cycle that
    // cannot advance, but a bug where the clock advances forever with
    // nothing ever committing would spin silently. The watchdog turns
    // that into a structured, deterministic abort.
    ProgressWatchdog watchdog(cfg_.watchdogInterval,
                              cfg_.watchdogStallLimit);
    bool stalled = false;

    while (retired < max_insns) {
        if (watchdog.tick(retired)) {
            stalled = true;
            break;
        }
        bool progress = false;

        // ------------------------------------------------------- commit
        unsigned committed = 0;
        while (committed < cfg_.width && !ruu_empty()) {
            Entry &e = at(headSeq_);
            if (!e.issued || e.doneAt >= clock)
                break;
            if (trace_) {
                OooTraceEntry t;
                t.pc = e.pc;
                t.inst = *e.inst;
                t.fetchedAt = e.fetchedAt;
                t.issuedAt = e.issuedAt;
                t.doneAt = e.doneAt;
                t.committedAt = clock;
                trace_->push_back(t);
            }
            if (e.cls == InstClass::Store) {
                // Stores update the cache at commit; the write buffer
                // hides the latency from the core.
                data_.access(e.memAddr, true, clock);
                storeHead_ = (storeHead_ + 1) & store_mask;
                --storeCount_;
            }
            if (e.isMem)
                --lsqCount_;
            --completedUncommitted_;
            ++headSeq_;
            ++retired;
            ++committed;
            progress = true;
            if (retired >= max_insns)
                break;
        }
        if (retired >= max_insns)
            break;

        // -------------------------------------------------------- issue
        // Entries whose last operand arrives this cycle join the ready
        // set; the walk below visits only ready entries, oldest first
        // (from the head's ring slot to the end of the ring, then the
        // wrapped-around part).
        while (!wakeups_.empty() && wakeups_.top().first <= clock) {
            unsigned slot = wakeups_.top().second;
            readyMask_[slot >> 6] |= u64{1} << (slot & 63);
            wakeups_.pop();
        }
        // Every result arrives at least a cycle after its issue, so no
        // entry woken below can issue this cycle: walking a snapshot of
        // each mask word is exact.
        unsigned issued = 0;
        const unsigned words = static_cast<unsigned>(readyMask_.size());
        const unsigned head = slotOf(headSeq_);
        const u64 head_part = ~u64{0} << (head & 63);
        for (unsigned k = 0, w = head >> 6; k <= words && issued < cfg_.width;
             ++k, w = w + 1 == words ? 0 : w + 1) {
            u64 bits = readyMask_[w];
            if (k == 0)
                bits &= head_part;
            else if (k == words)
                bits &= ~head_part;
            for (; bits != 0 && issued < cfg_.width; bits &= bits - 1) {
                const unsigned slot = w << 6 | std::countr_zero(bits);
                Entry &e = ruu_[slot];
                if (e.readyAt > clock)
                    continue; // an operand arrives next cycle
                Pool &pool = pools_[e.pool];
                if (!pool.hasFreeUnit(clock))
                    continue; // every unit of the pool is busy

                readyMask_[w] &= ~(u64{1} << (slot & 63));
                e.issued = true;
                e.issuedAt = clock;
                --unissued_;
                ++issued;
                progress = true;
                const InstClass cls = e.cls;
                if (cls == InstClass::Load) {
                    e.doneAt = data_.access(e.memAddr, false, clock);
                } else if (cls == InstClass::Store) {
                    e.doneAt = clock + 1; // address + data into the LSQ
                } else {
                    e.doneAt = clock + e.latency;
                }
                pool.take(clock, !nonPipelined(cls), clock + e.latency);
                if (e.doneAt <= clock + 1)
                    ++completedUncommitted_;
                else
                    completions_.push(e.doneAt);
                wakeConsumers(e, clock);

                if (e.mispredict) {
                    // Between now and resolution, fetch runs down the
                    // wrong path (cache pollution + memory-channel
                    // occupancy).
                    simulateWrongPath(fetch_, e.wrongPath,
                                      src_.text().base(), src_.text().end(),
                                      clock + 1, e.doneAt, cfg_.width);
                    // The redirect reaches fetch the cycle after
                    // resolution, plus front-end refill.
                    fetch_blocked_until = e.doneAt + 1 + cfg_.mispredictExtra;
                }
                if (e.serialize)
                    fetch_blocked_until = e.doneAt + 1;
            }
        }

        // ----------------------------------------------- fetch/dispatch
        unsigned fetched = 0;
        while (clock >= fetch_blocked_until && fetched < cfg_.width) {
            if (!pending) {
                if (src_.halted()) {
                    exited = true;
                    break;
                }
                pending = src_.step();
            }
            if (ruu_full())
                break;
            const InstInfo &info = *pending->info;
            if (info.isMem && lsqCount_ >= cfg_.lsqSize)
                break;
            if (info.cls == InstClass::Syscall && !ruu_empty())
                break; // drain before a serialising op

            Cycle avail = fetch_.fetchWord(pending->pc, clock);
            if (avail > clock) {
                fetch_blocked_until = avail;
                break;
            }

            // Dispatch into the RUU, linked to the producers it waits on.
            u64 seq = tailSeq_++;
            const unsigned slot = slotOf(seq);
            Entry &e = ruu_[slot];
            e = Entry{};
            e.pc = pending->pc;
            e.inst = pending->inst;
            e.fetchedAt = clock;
            e.memAddr = pending->memAddr;
            e.latency = info.latency;
            e.cls = info.cls;
            e.pool = poolFor(info.cls);
            e.isMem = info.isMem;
            ++unissued_;

            auto bind = [&](int reg, unsigned dep) {
                if (reg != kRegNone)
                    dependOn(regProducer_[reg], slot, dep);
            };
            bind(info.src1, 0);
            bind(info.src2, 1);
            bind(info.src3, 2);
            if (info.dest != kRegNone)
                regProducer_[info.dest] = seq;

            if (info.isMem) {
                ++lsqCount_;
                Addr word = pending->memAddr >> 2;
                if (info.cls == InstClass::Load) {
                    // Memory-order dependence on the youngest older
                    // store to the same word.
                    dependOn(youngestStoreTo(word), slot, 3);
                } else {
                    stores_[(storeHead_ + storeCount_++) & store_mask] =
                        InFlightStore{seq, word};
                }
            }
            if (e.waiting == 0)
                markReady(slot, clock);

            bool is_control = info.isControl;
            StepRecord rec = *pending;
            pending.reset();
            ++fetched;
            progress = true;

            if (info.cls == InstClass::Syscall) {
                e.serialize = true;
                fetch_blocked_until = kCycleNever;
                break;
            }
            if (is_control) {
                ControlOutcome out = frontend_.handleControl(rec);
                if (out.mispredict) {
                    e.mispredict = true;
                    e.wrongPath = out.wrongPath;
                    fetch_blocked_until = kCycleNever; // until resolve
                    break;
                }
                if (out.minorBubble) {
                    fetch_blocked_until = clock + 2;
                    break;
                }
                if (rec.taken) {
                    // Cannot fetch past a taken branch in the same cycle.
                    fetch_blocked_until = clock + 1;
                    break;
                }
            }
        }

        // --------------------------------------------- termination test
        if (ruu_empty() && !pending && src_.halted()) {
            exited = true;
            break;
        }

        // -------------------------------------------------------- clock
        // Issued entries done by the next cycle leave the completion
        // heap: the earliest result still outstanding is then its top.
        while (!completions_.empty() && completions_.top() <= clock + 1) {
            completions_.pop();
            ++completedUncommitted_;
        }
        if (progress) {
            ++clock;
        } else {
            // Nothing moved: jump to the next event.
            Cycle next = kCycleNever;
            if (completedUncommitted_ > 0)
                next = clock + 1;
            else if (!completions_.empty())
                next = completions_.top();
            if (unissued_ > 0) {
                // An unissued op may be waiting on a non-pipelined unit.
                for (const Pool &pool : pools_) {
                    for (Cycle f : pool.heldUntil) {
                        if (f > clock)
                            next = std::min(next, f);
                    }
                }
            }
            if (fetch_blocked_until != kCycleNever &&
                (pending || !src_.halted()) && !ruu_full()) {
                next = std::min(next, fetch_blocked_until);
            }
            cps_assert(next != kCycleNever,
                       "pipeline deadlock at cycle %llu (ruu %llu..%llu)",
                       static_cast<unsigned long long>(clock),
                       static_cast<unsigned long long>(headSeq_),
                       static_cast<unsigned long long>(tailSeq_));
            clock = std::max(clock + 1, next);
        }
    }

    RunResult res;
    res.instructions = retired;
    res.cycles = clock;
    res.programExited = exited;
    if (stalled) {
        res.status = RunStatus::Stalled;
        res.statusDetail = strfmt(
            "no instruction retired for %u watchdog checks "
            "(%llu iterations each) at cycle %llu, %llu retired",
            watchdog.stalledChecks(),
            static_cast<unsigned long long>(cfg_.watchdogInterval),
            static_cast<unsigned long long>(clock),
            static_cast<unsigned long long>(retired));
    }
    statInsns_.set(retired);
    statCycles_.set(clock);
    return res;
}

} // namespace cps
