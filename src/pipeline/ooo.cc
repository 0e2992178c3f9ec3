#include "ooo.hh"

#include <algorithm>
#include <optional>

#include "common/watchdog.hh"

namespace cps
{

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, TraceSource &src,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : cfg_(cfg), src_(src), fetch_(fetch), data_(data),
      frontend_(cfg.predictor, stats),
      statInsns_(stats.scalar("pipeline.insns")),
      statCycles_(stats.scalar("pipeline.cycles"))
{
    cps_assert(cfg.ruuSize >= cfg.width, "RUU smaller than machine width");
    ruu_.resize(cfg.ruuSize);
    fuFree_[kFuAlu].assign(cfg.numAlu, 0);
    fuFree_[kFuMult].assign(cfg.numMult, 0);
    fuFree_[kFuMem].assign(cfg.numMemPorts, 0);
    fuFree_[kFuFpAlu].assign(cfg.numFpAlu, 0);
    fuFree_[kFuFpMult].assign(cfg.numFpMult, 0);
    regProducer_.fill(kNoSeq);
}

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, Executor &exec,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : cfg_(cfg), ownedSrc_(std::make_unique<LiveTraceSource>(exec)),
      src_(*ownedSrc_), fetch_(fetch), data_(data),
      frontend_(cfg.predictor, stats),
      statInsns_(stats.scalar("pipeline.insns")),
      statCycles_(stats.scalar("pipeline.cycles"))
{
    cps_assert(cfg.ruuSize >= cfg.width, "RUU smaller than machine width");
    ruu_.resize(cfg.ruuSize);
    fuFree_[kFuAlu].assign(cfg.numAlu, 0);
    fuFree_[kFuMult].assign(cfg.numMult, 0);
    fuFree_[kFuMem].assign(cfg.numMemPorts, 0);
    fuFree_[kFuFpAlu].assign(cfg.numFpAlu, 0);
    fuFree_[kFuFpMult].assign(cfg.numFpMult, 0);
    regProducer_.fill(kNoSeq);
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

bool
OoOPipeline::producerDone(u64 seq, Cycle clock)
{
    if (seq == kNoSeq || seq < headSeq_)
        return true; // never tracked, or already committed
    const Entry &e = at(seq);
    return e.issued && e.doneAt <= clock;
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
    regProducer_.fill(kNoSeq);
    lastStoreToWord_.clear();

    auto ruu_empty = [&] { return headSeq_ == tailSeq_; };
    auto ruu_full = [&] { return tailSeq_ - headSeq_ == ruu_.size(); };

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
                t.inst = e.inst;
                t.fetchedAt = e.fetchedAt;
                t.issuedAt = e.issuedAt;
                t.doneAt = e.doneAt;
                t.committedAt = clock;
                trace_->push_back(t);
            }
            if (e.info->cls == InstClass::Store) {
                // Stores update the cache at commit; the write buffer
                // hides the latency from the core.
                data_.access(e.memAddr, true, clock);
            }
            if (e.info->isMem)
                --lsqCount_;
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
        unsigned issued = 0;
        for (u64 seq = headSeq_; seq < tailSeq_ && issued < cfg_.width;
             ++seq) {
            Entry &e = at(seq);
            if (e.issued)
                continue;
            if (!producerDone(e.src[0], clock) ||
                !producerDone(e.src[1], clock) ||
                !producerDone(e.src[2], clock)) {
                continue;
            }
            if (e.info->cls == InstClass::Load &&
                !producerDone(e.blockingStore, clock)) {
                continue; // memory-order dependence on an older store
            }

            // Function-unit availability.
            FuPool pool = poolFor(e.info->cls);
            Cycle *unit = nullptr;
            for (Cycle &f : fuFree_[pool]) {
                if (f <= clock) {
                    unit = &f;
                    break;
                }
            }
            if (!unit)
                continue;

            e.issued = true;
            e.issuedAt = clock;
            ++issued;
            progress = true;
            unsigned latency = e.info->latency;
            if (e.info->cls == InstClass::Load) {
                e.doneAt = data_.access(e.memAddr, false, clock);
            } else if (e.info->cls == InstClass::Store) {
                e.doneAt = clock + 1; // address + data into the LSQ
            } else {
                e.doneAt = clock + latency;
            }
            *unit = nonPipelined(e.info->cls) ? clock + latency : clock + 1;

            if (e.mispredict) {
                // Between now and resolution, fetch runs down the wrong
                // path (cache pollution + memory-channel occupancy).
                simulateWrongPath(fetch_, e.wrongPath,
                                  src_.text().base(), src_.text().end(),
                                  clock + 1, e.doneAt, cfg_.width);
                // The redirect reaches fetch the cycle after resolution,
                // plus front-end refill.
                fetch_blocked_until = e.doneAt + 1 + cfg_.mispredictExtra;
            }
            if (e.serialize)
                fetch_blocked_until = e.doneAt + 1;
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

            // Dispatch into the RUU.
            u64 seq = tailSeq_++;
            Entry &e = at(seq);
            e = Entry{};
            e.pc = pending->pc;
            e.info = pending->info;
            e.inst = *pending->inst;
            e.fetchedAt = clock;
            e.op = pending->inst->op;
            e.memAddr = pending->memAddr;

            auto bind = [&](int reg, unsigned slot) {
                if (reg == kRegNone)
                    return;
                u64 p = regProducer_[reg];
                if (p != kNoSeq && p >= headSeq_)
                    e.src[slot] = p;
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
                    auto it = lastStoreToWord_.find(word);
                    if (it != lastStoreToWord_.end() &&
                        it->second >= headSeq_) {
                        e.blockingStore = it->second;
                    }
                } else {
                    lastStoreToWord_[word] = seq;
                }
            }

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
        if (progress) {
            ++clock;
        } else {
            // Nothing moved: jump to the next event.
            Cycle next = kCycleNever;
            bool have_unissued = false;
            for (u64 seq = headSeq_; seq < tailSeq_; ++seq) {
                const Entry &e = at(seq);
                if (e.issued)
                    next = std::min(next, e.doneAt);
                else
                    have_unissued = true;
            }
            if (have_unissued) {
                // An unissued op may be waiting on a non-pipelined unit.
                for (const auto &pool : fuFree_) {
                    for (Cycle f : pool) {
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
