/**
 * @file
 * Scored host-side prefetch cache over the functional decompressor:
 * the decode memo the functional consumers (the soft-error campaign,
 * the benches) fetch whole decoded blocks through. The simulated miss
 * path does not use it; it reads static block geometry (geometry.hh).
 *
 * The fetcher watches the flat-block access sequence, confirms a
 * stride (sequential fetch is stride 1), and speculatively decodes the
 * predicted next blocks inline with the batched multi-lane kernel
 * (Decompressor::decompressBlocks). Decoded blocks live in an LRU-of-N
 * cache.
 *
 * The hot path is allocation-free: entries live in a fixed slab with
 * intrusive LRU links, the flat->slot map is a dense vector (flat
 * block numbers are small and bounded by the image), and speculative
 * decodes run in up-to-16-block spans into a reused scratch array.
 * Every cache decision and counter is a pure function of the access
 * sequence.
 */

#ifndef CPS_CODEPACK_BLOCK_FETCHER_HH
#define CPS_CODEPACK_BLOCK_FETCHER_HH

#include <array>
#include <vector>

#include "decompressor.hh"
#include "resilience.hh"

namespace cps
{
namespace codepack
{

/** Scored prefetching LRU memo of decoded blocks. */
class BlockFetcher
{
  public:
    struct Options
    {
        /** LRU cache capacity in blocks (min 1). */
        unsigned slots = 64;
        /** Speculatively decode predicted blocks at all. */
        bool prefetch = true;
        /**
         * Prediction window in blocks ahead of the last access.
         * Clamped to slots/2 so speculative inserts can never evict
         * predicted-but-unclaimed blocks (which would turn the whole
         * window into wasted decode).
         */
        unsigned depth = 32;
    };

    /** Blocks decoded per speculative span (one batched decode). */
    static constexpr unsigned kSpanBlocks = 16;

    /**
     * @param decomp decompressor to memoize (must outlive the fetcher)
     * @param opts cache geometry and speculation
     * @param domain optional soft-error domain; when given, it must
     *        wrap the image @p decomp decodes, every fetch is verified
     *        through it first, cached copies of a block whose memory
     *        was repaired are poison-invalidated and re-decoded, and
     *        all decodes run checked (a corruption that slips past a
     *        weak CRC surfaces as a structured error, never a panic).
     */
    BlockFetcher(const Decompressor &decomp, Options opts,
                 SoftErrorDomain *domain = nullptr);

    /** Default options, no domain. (Options{} cannot be a default
     *  argument here: its member initializers are not yet parsed.) */
    explicit BlockFetcher(const Decompressor &decomp)
        : BlockFetcher(decomp, Options{})
    {}

    BlockFetcher(const BlockFetcher &) = delete;
    BlockFetcher &operator=(const BlockFetcher &) = delete;

    /**
     * The decoded block, from the cache when present. The reference
     * stays valid until the next get().
     */
    const DecodedBlock &get(u32 group, u32 block);

    /** As get(group, block), keyed by flat block number. */
    const DecodedBlock &getFlat(u32 flat);

    /**
     * Checked fetch for soft-error callers: an unrecoverable
     * corruption (or a decode failure that slipped past a weak check)
     * comes back as the structured DecodeError instead of a panic. The
     * returned pointer follows getFlat's lifetime contract. Without a
     * domain this never fails.
     */
    Result<const DecodedBlock *> tryGetFlat(u32 flat);

    /**
     * ECC/CRC verdict of the most recent (try)getFlat when a domain is
     * attached; Clean otherwise.
     */
    FetchCheck lastCheck() const { return lastCheck_; }

    u64 hits() const { return hits_; }
    u64 fills() const { return fills_; }
    u64 prefetchIssued() const { return pfIssued_; }
    /** First-touch claims of speculatively decoded blocks. */
    u64 prefetchHits() const { return pfHits_; }
    /** Cached copies discarded after their memory was found corrupt. */
    u64 poisons() const { return poisons_; }

  private:
    struct Entry
    {
        u32 flat = kInvalid;
        bool prefetched = false; ///< speculative, not yet claimed
        DecodedBlock blk;
        u32 prev = kInvalid, next = kInvalid; ///< intrusive LRU chain
    };
    static constexpr u32 kInvalid = ~0u;

    void unlink(u32 i);
    void pushFront(u32 i);
    /** A slot for @p flat: its resident slot, a fresh one, or the LRU
     *  victim; unlinked from the chain, map updated. */
    u32 claimSlot(u32 flat);
    /** Discards @p flat's cached copy (its memory was corrupt) and
     *  parks the slot at the LRU tail as the next eviction victim. */
    void poisonSlot(u32 flat);
    void train(u32 flat);
    void issuePrefetches(u32 flat);
    void issueSpan(const u32 *flats, unsigned count, bool contiguous);

    const Decompressor &decomp_;
    Options opts_;

    std::vector<Entry> slab_;  ///< fixed; intrusive links, no realloc
    u32 head_ = kInvalid;      ///< most recently used
    u32 tail_ = kInvalid;      ///< least recently used
    u32 live_ = 0;             ///< slab entries handed out so far
    std::vector<u32> map_;     ///< flat -> slab index (dense)

    // Access scorer.
    bool haveLast_ = false;
    u32 lastFlat_ = 0;
    s64 stride_ = 0;
    unsigned conf_ = 0;
    /** One past the highest flat covered by the current unit-stride
     *  prefetch run; avoids rescanning the cache every access. */
    u32 frontier_ = 0;

    /** Speculative decode target: reused, so no per-span allocation. */
    std::array<DecodedBlock, kSpanBlocks> scratch_;

    SoftErrorDomain *domain_ = nullptr;
    FetchCheck lastCheck_ = FetchCheck::Clean;

    u64 hits_ = 0;
    u64 fills_ = 0;
    u64 pfIssued_ = 0;
    u64 pfHits_ = 0;
    u64 poisons_ = 0;
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_BLOCK_FETCHER_HH
