#include "block_fetcher.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cps
{
namespace codepack
{

BlockFetcher::BlockFetcher(const Decompressor &decomp, Options opts,
                           SoftErrorDomain *domain)
    : decomp_(decomp), opts_(opts), domain_(domain)
{
    if (opts_.slots < 1)
        opts_.slots = 1;
    slab_.resize(opts_.slots);
    map_.assign(decomp_.image().numBlocks(), kInvalid);
}

const DecodedBlock &
BlockFetcher::get(u32 group, u32 block)
{
    return getFlat(group * kBlocksPerGroup + block);
}

const DecodedBlock &
BlockFetcher::getFlat(u32 flat)
{
    Result<const DecodedBlock *> r = tryGetFlat(flat);
    if (!r)
        cps_panic("getFlat on a failed soft-error domain: %s",
                  r.error().describe().c_str());
    return **r;
}

Result<const DecodedBlock *>
BlockFetcher::tryGetFlat(u32 flat)
{
    lastCheck_ = FetchCheck::Clean;
    if (domain_) {
        lastCheck_ = domain_->verifyBlock(flat);
        if (lastCheck_ == FetchCheck::Unrecoverable) {
            // Whatever copy the cache holds was fetched from memory
            // now known corrupt beyond repair; never serve it.
            poisonSlot(flat);
            return domain_->lastError();
        }
    }
    train(flat);
    u32 i = map_[flat];
    if (i != kInvalid) {
        if (lastCheck_ == FetchCheck::Clean) {
            if (head_ != i) {
                unlink(i);
                pushFront(i);
            }
            Entry &e = slab_[i];
            if (e.prefetched) {
                e.prefetched = false;
                ++pfHits_;
            } else {
                ++hits_;
            }
            // The entry stays MRU through the speculative round (at
            // most slots-1 inserts), so the returned block outlives it.
            issuePrefetches(flat);
            return &e.blk;
        }
        // The cached decode predates the repair (correction/refetch)
        // of this block's memory: poison it and demand-decode the
        // repaired bytes below. The access accounts as a fill — the
        // decode really runs — so hits+fills+prefetchHits still sum
        // to successful accesses.
        poisonSlot(flat);
    }

    u32 slot = claimSlot(flat);
    Entry &e = slab_[slot];
    if (domain_) {
        // Checked even though verification passed: a weak detect-only
        // code (CRC-8 especially) can miss a multi-bit pattern, and
        // the decoder must then fail structurally, not panic.
        Result<DecodedBlock> blk = decomp_.tryDecompressBlock(
            flat / kBlocksPerGroup, flat % kBlocksPerGroup);
        if (!blk) {
            poisonSlot(flat);
            return blk.error();
        }
        e.blk = *blk;
    } else {
        e.blk = decomp_.decompressFlatBlock(flat);
    }
    pushFront(slot);
    ++fills_;
    issuePrefetches(flat);
    return &e.blk;
}

void
BlockFetcher::poisonSlot(u32 flat)
{
    u32 i = map_[flat];
    if (i == kInvalid)
        return;
    unlink(i);
    Entry &e = slab_[i];
    map_[flat] = kInvalid;
    e.flat = kInvalid;
    e.prefetched = false;
    // Park at the LRU tail: the invalidated slot is the next victim,
    // so poisoning never shrinks the effective cache.
    e.prev = tail_;
    e.next = kInvalid;
    if (tail_ != kInvalid)
        slab_[tail_].next = i;
    else
        head_ = i;
    tail_ = i;
    ++poisons_;
}

void
BlockFetcher::unlink(u32 i)
{
    Entry &e = slab_[i];
    if (e.prev != kInvalid)
        slab_[e.prev].next = e.next;
    else
        head_ = e.next;
    if (e.next != kInvalid)
        slab_[e.next].prev = e.prev;
    else
        tail_ = e.prev;
    e.prev = e.next = kInvalid;
}

void
BlockFetcher::pushFront(u32 i)
{
    Entry &e = slab_[i];
    e.prev = kInvalid;
    e.next = head_;
    if (head_ != kInvalid)
        slab_[head_].prev = i;
    head_ = i;
    if (tail_ == kInvalid)
        tail_ = i;
}

u32
BlockFetcher::claimSlot(u32 flat)
{
    u32 i = map_[flat];
    if (i != kInvalid) {
        // Replacing a resident block (a frontier-tracked span can
        // cover one that survived an earlier run): reuse its slot so
        // the map stays one-slot-per-flat.
        unlink(i);
    } else if (live_ < opts_.slots) {
        i = live_++;
    } else {
        i = tail_;
        unlink(i);
        if (slab_[i].flat != kInvalid) // poisoned victims left no map entry
            map_[slab_[i].flat] = kInvalid;
    }
    Entry &e = slab_[i];
    e.flat = flat;
    e.prefetched = false;
    map_[flat] = i;
    return i;
}

void
BlockFetcher::train(u32 flat)
{
    if (haveLast_ && lastFlat_ == flat)
        return;
    if (haveLast_) {
        s64 s = static_cast<s64>(flat) - static_cast<s64>(lastFlat_);
        if (s == stride_)
            ++conf_;
        else {
            stride_ = s;
            conf_ = 1;
            frontier_ = 0; // new run: re-anchor at the next trigger
        }
    }
    haveLast_ = true;
    lastFlat_ = flat;
}

void
BlockFetcher::issuePrefetches(u32 flat)
{
    if (!opts_.prefetch || conf_ < 2 || stride_ == 0)
        return;
    // Clamp the window to half the cache. Beyond that, speculative
    // inserts land on top of predicted-but-unclaimed entries — the
    // next blocks the caller will ask for — and the whole window
    // becomes wasted decode (measured: a 48-deep window in a 64-slot
    // cache turns ~100% of predictions into evict-before-claim). The
    // clamp also keeps the entry the caller holds a reference to MRU
    // through the round.
    unsigned depth = std::min(opts_.depth, opts_.slots / 2);
    if (depth == 0)
        return;

    s64 nblocks = static_cast<s64>(map_.size());

    // Unit stride (sequential code) is the hot shape: a frontier marks
    // how far the current run has already been covered, so each access
    // extends coverage instead of rescanning the cache, and decodes
    // run only in full spans to amortize the batched kernel's setup
    // (the partial tail re-qualifies once the window slides).
    if (stride_ == 1) {
        s64 lo = std::max<s64>(frontier_, static_cast<s64>(flat) + 1);
        s64 hi =
            std::min<s64>(nblocks, static_cast<s64>(flat) + 1 + depth);
        u32 flats[kSpanBlocks];
        while (hi - lo >= kSpanBlocks) {
            for (unsigned l = 0; l < kSpanBlocks; ++l)
                flats[l] = static_cast<u32>(lo) + l;
            issueSpan(flats, kSpanBlocks, true);
            lo += kSpanBlocks;
        }
        frontier_ = static_cast<u32>(std::max<s64>(frontier_, lo));
        return;
    }

    // Non-unit strides predict far fewer blocks per round; gather the
    // not-yet-resident predictions into one (non-contiguous) span.
    u32 preds[kSpanBlocks];
    unsigned n = 0;
    unsigned ndepth = std::min(depth, kSpanBlocks);
    for (unsigned k = 1; k <= ndepth; ++k) {
        s64 p = static_cast<s64>(flat) + stride_ * static_cast<s64>(k);
        if (p < 0 || p >= nblocks)
            break;
        if (map_[static_cast<u32>(p)] == kInvalid)
            preds[n++] = static_cast<u32>(p);
    }
    if (n > 0)
        issueSpan(preds, n, false);
}

void
BlockFetcher::issueSpan(const u32 *flats, unsigned count,
                        bool contiguous)
{
    pfIssued_ += count;

    // Batched decode into the reusable scratch, then park each block in
    // its slab entry. No allocation.
    std::array<bool, kSpanBlocks> ok;
    ok.fill(true);
    if (domain_) {
        // Speculative decodes race ahead of verification, so they may
        // chew on corrupt bytes; the checked decoder turns that into a
        // lane that is simply not parked — the demand fetch will
        // verify, repair, and decode it.
        for (unsigned l = 0; l < count; ++l) {
            Result<DecodedBlock> r = decomp_.tryDecompressBlock(
                flats[l] / kBlocksPerGroup, flats[l] % kBlocksPerGroup);
            ok[l] = r.ok();
            if (ok[l])
                scratch_[l] = *r;
        }
    } else if (contiguous) {
        decomp_.decompressBlocks(flats[0], count, scratch_.data());
    } else {
        for (unsigned l = 0; l < count; ++l)
            scratch_[l] = decomp_.decompressFlatBlock(flats[l]);
    }
    for (unsigned l = 0; l < count; ++l) {
        if (!ok[l])
            continue;
        u32 slot = claimSlot(flats[l]);
        Entry &e = slab_[slot];
        e.prefetched = true;
        e.blk = scratch_[l];
        pushFront(slot);
    }
}

} // namespace codepack
} // namespace cps
