#include "compressor.hh"

#include <algorithm>
#include <memory>

#include "common/bitstream.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "isa/isa.hh"

namespace cps
{
namespace codepack
{

namespace
{

/** Result of compressing one 16-instruction block. */
struct BlockBits
{
    std::vector<u8> bytes;
    bool raw = false;
    // Table 4 accounting for this block.
    u64 compressedTagBits = 0;
    u64 dictIndexBits = 0;
    u64 rawTagBits = 0;
    u64 rawBits = 0;
    u64 padBits = 0;
};

BlockBits
compressBlock(const u32 *insns, const Dictionary &high,
              const Dictionary &low, bool allow_raw_blocks)
{
    BlockBits out;
    BitWriter bw;
    // A useful block never exceeds the raw escape size by much; one
    // upfront reservation keeps the put() loop allocation-free.
    bw.reserve(kRawBlockBytes + 8);

    // The match loop: resolve each halfword's encoding once (a hash
    // lookup in the dictionary) and reuse it for both the emit and the
    // Table 4 accounting.
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        const u16 hi = static_cast<u16>(insns[i] >> 16);
        const u16 lo = static_cast<u16>(insns[i] & 0xffff);
        HalfEncoding he = high.encode(hi);
        Dictionary::writeEncoded(bw, he, hi);
        if (he.raw) {
            out.rawTagBits += he.tagBits;
            out.rawBits += kRawLiteralBits;
        } else {
            out.compressedTagBits += he.tagBits;
            out.dictIndexBits += he.indexBits;
        }

        HalfEncoding le = low.encode(lo);
        Dictionary::writeEncoded(bw, le, lo);
        if (le.raw) {
            out.rawTagBits += le.tagBits;
            out.rawBits += kRawLiteralBits;
        } else {
            out.compressedTagBits += le.tagBits;
            out.dictIndexBits += le.indexBits;
        }
    }
    out.padBits = bw.alignByte();
    out.bytes = bw.take();

    if (allow_raw_blocks && out.bytes.size() > kRawBlockBytes) {
        // Escape: the block expands under compression; store it native.
        BlockBits raw;
        raw.raw = true;
        raw.bytes.reserve(kRawBlockBytes);
        for (unsigned i = 0; i < kBlockInsns; ++i) {
            raw.bytes.push_back(static_cast<u8>(insns[i]));
            raw.bytes.push_back(static_cast<u8>(insns[i] >> 8));
            raw.bytes.push_back(static_cast<u8>(insns[i] >> 16));
            raw.bytes.push_back(static_cast<u8>(insns[i] >> 24));
        }
        raw.rawBits = u64{kRawBlockBytes} * 8;
        return raw;
    }
    return out;
}

/**
 * Halfword frequencies over @p words: one full-range count array per
 * half. With a pool, each worker histograms a contiguous chunk into
 * private counters which are then summed in chunk order — the totals
 * are exactly the serial ones (counts are order-independent), so the
 * dictionaries built from them are too.
 */
void
histogramHalves(const std::vector<u32> &words, ThreadPool *pool,
                std::vector<u64> &hi, std::vector<u64> &lo)
{
    hi.assign(65536, 0);
    lo.assign(65536, 0);
    auto accumulate = [](const u32 *w, size_t n, u64 *h, u64 *l) {
        for (size_t i = 0; i < n; ++i) {
            ++h[w[i] >> 16];
            ++l[w[i] & 0xffff];
        }
    };
    size_t chunks = pool ? std::min<size_t>(pool->size(), 16) : 1;
    if (chunks > 1 && words.size() >= 4096) {
        std::vector<std::vector<u64>> hi_part(chunks), lo_part(chunks);
        size_t per = (words.size() + chunks - 1) / chunks;
        pool->parallelFor(chunks, [&](size_t c) {
            std::vector<u64> &h = hi_part[c];
            std::vector<u64> &l = lo_part[c];
            h.assign(65536, 0);
            l.assign(65536, 0);
            size_t begin = c * per;
            size_t end = std::min(words.size(), begin + per);
            accumulate(words.data() + begin, end - begin, h.data(),
                       l.data());
        });
        for (size_t c = 0; c < chunks; ++c)
            for (size_t v = 0; v < 65536; ++v) {
                hi[v] += hi_part[c][v];
                lo[v] += lo_part[c][v];
            }
    } else {
        accumulate(words.data(), words.size(), hi.data(), lo.data());
    }
}

} // namespace

CompressedImage
compressWords(const std::vector<u32> &words, Addr text_base,
              const CompressorConfig &cfg)
{
    CompressedImage img;
    img.textBase = text_base;
    img.origTextBytes = static_cast<u32>(words.size() * 4);

    // Pad to a whole compression group with NOPs.
    std::vector<u32> padded = words;
    while (padded.size() % kGroupInsns != 0)
        padded.push_back(kNopWord);
    img.paddedInsns = static_cast<u32>(padded.size());

    u32 num_groups = img.paddedInsns / kGroupInsns;
    size_t num_blocks = size_t{num_groups} * kBlocksPerGroup;

    unsigned threads = cfg.threads ? cfg.threads : defaultThreadCount();
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1 && num_blocks > 1)
        pool = std::make_unique<ThreadPool>(threads);

    // Phase 1: halfword frequencies over the (padded) text, reduced
    // from per-chunk counters when a pool is available.
    std::vector<u64> hi_arr, lo_arr;
    histogramHalves(padded, pool.get(), hi_arr, lo_arr);
    std::unordered_map<u16, u64> hi_counts, lo_counts;
    for (u32 v = 0; v < 65536; ++v) {
        if (hi_arr[v])
            hi_counts[static_cast<u16>(v)] = hi_arr[v];
        if (lo_arr[v])
            lo_counts[static_cast<u16>(v)] = lo_arr[v];
    }
    img.highDict = Dictionary::build(Dictionary::Kind::High, hi_counts);
    img.lowDict = Dictionary::build(Dictionary::Kind::Low, lo_counts);

    // Phase 2: per-block encode. Blocks are independently indexed by
    // construction (each starts byte-aligned and is located through the
    // index table), so they encode in parallel; stitching below is the
    // only order-dependent step, which keeps the output byte-identical
    // to the serial path at any worker count.
    std::vector<BlockBits> encoded(num_blocks);
    auto encodeOne = [&](size_t b) {
        encoded[b] = compressBlock(padded.data() + b * kBlockInsns,
                                   img.highDict, img.lowDict,
                                   cfg.allowRawBlocks);
    };
    if (pool)
        pool->parallelFor(num_blocks, encodeOne);
    else
        for (size_t b = 0; b < num_blocks; ++b)
            encodeOne(b);

    // Phase 3 (serial): concatenate the blocks, build the index table
    // and sum the Table 4 accounting in group order.
    u64 stream_bytes = 0;
    for (const BlockBits &bb : encoded)
        stream_bytes += bb.bytes.size();
    img.bytes.reserve(stream_bytes);
    img.indexTable.reserve(num_groups);
    img.blocks.reserve(num_blocks);

    for (u32 g = 0; g < num_groups; ++g) {
        u32 first_off = static_cast<u32>(img.bytes.size());
        cps_assert(first_off <= kIdxFirstOffsetMask,
                   "compressed region exceeds the %u-bit index offset",
                   kIdxFirstOffsetBits);

        bool flags[kBlocksPerGroup] = {};
        u32 lens[kBlocksPerGroup] = {};
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            BlockBits &bb =
                encoded[size_t{g} * kBlocksPerGroup + b];
            BlockExtent ext;
            ext.byteOffset = static_cast<u32>(img.bytes.size());
            ext.byteLen = static_cast<u32>(bb.bytes.size());
            ext.raw = bb.raw;
            img.blocks.push_back(ext);
            img.bytes.insert(img.bytes.end(), bb.bytes.begin(),
                             bb.bytes.end());
            flags[b] = bb.raw;
            lens[b] = ext.byteLen;

            img.comp.compressedTagBits += bb.compressedTagBits;
            img.comp.dictIndexBits += bb.dictIndexBits;
            img.comp.rawTagBits += bb.rawTagBits;
            img.comp.rawBits += bb.rawBits;
            img.comp.padBits += bb.padBits;
        }

        u32 second_off = lens[0];
        cps_assert(second_off < (1u << kIdxSecondOffsetBits),
                   "block 0 of group %u too long (%u bytes) for the "
                   "second-block offset field", g, second_off);
        img.indexTable.push_back(
            makeIndexEntry(first_off, flags[0], second_off, flags[1]));
    }

    img.comp.indexTableBits = u64{num_groups} * 32;
    img.comp.dictionaryBits =
        img.highDict.storageBits() + img.lowDict.storageBits();
    return img;
}

CompressedImage
compress(const Program &prog, const CompressorConfig &cfg)
{
    std::vector<u32> words;
    words.reserve(prog.textWords());
    for (size_t i = 0; i < prog.textWords(); ++i)
        words.push_back(prog.word(i));
    return compressWords(words, prog.text.base, cfg);
}

} // namespace codepack
} // namespace cps
