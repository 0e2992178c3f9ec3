#include "decompressor.hh"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/bitstream.hh"
#include "common/logging.hh"

namespace cps
{
namespace codepack
{

DecodeKernel
defaultDecodeKernel()
{
    static const DecodeKernel kernel = [] {
        const char *env = std::getenv("CPS_DECODE_KERNEL");
        if (!env || !*env)
            return DecodeKernel::Lut2;
        std::string v(env);
        if (v == "checked")
            return DecodeKernel::Checked;
        if (v == "lut")
            return DecodeKernel::Lut;
        if (v == "lut2")
            return DecodeKernel::Lut2;
        envWarnOnce("CPS_DECODE_KERNEL", env, "checked|lut|lut2");
        return DecodeKernel::Lut2;
    }();
    return kernel;
}

const char *
decodeKernelName(DecodeKernel kernel)
{
    switch (kernel) {
      case DecodeKernel::Checked:
        return "checked";
      case DecodeKernel::Lut:
        return "lut";
      case DecodeKernel::Lut2:
        return "lut2";
    }
    return "?";
}

Result<DecodedBlock>
Decompressor::tryDecompressBlock(u32 group, u32 block) const
{
    if (group >= img_.numGroups())
        return decodeErrorAtByte(DecodeStatus::RangeError, 0,
                                 "group %u block %u: group out of range "
                                 "(image has %u groups)",
                                 group, block, img_.numGroups());
    if (block >= kBlocksPerGroup)
        return decodeErrorAtByte(DecodeStatus::RangeError, 0,
                                 "group %u block %u: block out of range "
                                 "(groups hold %u blocks)",
                                 group, block, kBlocksPerGroup);

    u32 entry = img_.indexTable[group];
    DecodedBlock out;
    u32 first = idxFirstOffset(entry);
    if (block == 0) {
        out.byteOffset = first;
        out.raw = idxFirstRaw(entry);
        out.byteLen = idxSecondOffset(entry);
        // A raw first block always occupies exactly 64 bytes.
        if (out.raw)
            out.byteLen = kRawBlockBytes;
    } else {
        out.byteOffset = first + idxSecondOffset(entry);
        out.raw = idxSecondRaw(entry);
        // The second block's length is not in the index entry; the
        // hardware just decodes 16 instructions. We recover the length
        // from decoding below (raw blocks are fixed-size).
        out.byteLen = out.raw ? kRawBlockBytes : 0;
    }

    if (out.byteOffset > img_.bytes.size())
        return decodeErrorAtByte(
            DecodeStatus::RangeError, out.byteOffset,
            "group %u block %u offset %u beyond compressed region "
            "(%zu bytes)",
            group, block, out.byteOffset, img_.bytes.size());

    if (out.raw) {
        if (out.byteOffset + kRawBlockBytes > img_.bytes.size())
            return decodeErrorAtByte(
                DecodeStatus::Truncated, out.byteOffset,
                "group %u block %u raw extent [%u, %u) beyond "
                "compressed region (%zu bytes)",
                group, block, out.byteOffset,
                out.byteOffset + kRawBlockBytes, img_.bytes.size());
        const u8 *p = img_.bytes.data() + out.byteOffset;
        for (unsigned i = 0; i < kBlockInsns; ++i) {
            out.words[i] = static_cast<u32>(p[i * 4]) |
                           (static_cast<u32>(p[i * 4 + 1]) << 8) |
                           (static_cast<u32>(p[i * 4 + 2]) << 16) |
                           (static_cast<u32>(p[i * 4 + 3]) << 24);
            out.endBit[i] = (i + 1) * 32;
        }
        return out;
    }

    BitReader br(img_.bytes.data() + out.byteOffset,
                 img_.bytes.size() - out.byteOffset);
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        Result<u16> hi = img_.highDict.tryRead(br);
        if (!hi) {
            DecodeError err = hi.error();
            err.bitOffset += u64{out.byteOffset} * 8;
            err.message = strfmt("group %u block %u insn %u: %s", group,
                                 block, i, err.message.c_str());
            return err;
        }
        Result<u16> lo = img_.lowDict.tryRead(br);
        if (!lo) {
            DecodeError err = lo.error();
            err.bitOffset += u64{out.byteOffset} * 8;
            err.message = strfmt("group %u block %u insn %u: %s", group,
                                 block, i, err.message.c_str());
            return err;
        }
        out.words[i] = (static_cast<u32>(*hi) << 16) | *lo;
        out.endBit[i] = static_cast<u32>(br.bitPos());
    }
    u32 used_bytes = static_cast<u32>((br.bitPos() + 7) / 8);
    if (block == 0) {
        // Cross-check: the index entry's second-block offset doubles as
        // the first block's length. A disagreement means either the
        // entry or the stream is corrupt.
        if (out.byteLen != used_bytes)
            return decodeErrorAtByte(
                DecodeStatus::Malformed,
                u64{out.byteOffset} + used_bytes,
                "group %u block 0: index entry says first block is "
                "%u bytes but decode consumed %u",
                group, out.byteLen, used_bytes);
    } else {
        out.byteLen = used_bytes;
    }
    return out;
}

bool
Decompressor::frameFastBlock(u32 group, u32 block, DecodedBlock &out,
                             bool &done) const
{
    done = false;
    if (group >= img_.numGroups() || block >= kBlocksPerGroup)
        return false;

    u32 entry = img_.indexTable[group];
    u32 first = idxFirstOffset(entry);
    if (block == 0) {
        out.byteOffset = first;
        out.raw = idxFirstRaw(entry);
        out.byteLen = out.raw ? kRawBlockBytes : idxSecondOffset(entry);
    } else {
        out.byteOffset = first + idxSecondOffset(entry);
        out.raw = idxSecondRaw(entry);
        out.byteLen = out.raw ? kRawBlockBytes : 0;
    }
    if (out.byteOffset > img_.bytes.size())
        return false;

    if (out.raw) {
        if (out.byteOffset + kRawBlockBytes > img_.bytes.size())
            return false;
        const u8 *p = img_.bytes.data() + out.byteOffset;
        for (unsigned i = 0; i < kBlockInsns; ++i) {
            u32 w;
            std::memcpy(&w, p + i * 4, 4);
            if constexpr (std::endian::native == std::endian::big)
                w = __builtin_bswap32(w);
            out.words[i] = w;
            out.endBit[i] = (i + 1) * 32;
        }
        done = true;
    }
    return true;
}

bool
Decompressor::fastDecompressBlock(u32 group, u32 block,
                                  DecodedBlock &out) const
{
    bool done = false;
    if (!frameFastBlock(group, block, out, done))
        return false;
    if (done)
        return true;

    BitReader br(img_.bytes.data() + out.byteOffset,
                 img_.bytes.size() - out.byteOffset);
    constexpr unsigned kLut = Dictionary::kLutBits;
    const u32 *hlut = img_.highDict.lutData();
    const u32 *llut = img_.lowDict.lutData();
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        // Fused probe: one peek covers both halfword codewords (the
        // high codeword is at most kLut bits, so the low probe always
        // fits inside a 2*kLut-bit window). Raw escapes, unpopulated
        // indexes and end-of-stream truncation drop to the per-symbol
        // readFast path, which re-peeks from the same position.
        u32 bits = br.peekPadded(2 * kLut);
        u32 eh = hlut[bits >> kLut];
        if (Dictionary::lutIsValue(eh)) {
            unsigned lh = Dictionary::lutLen(eh);
            u32 el = llut[(bits >> (kLut - lh)) & ((1u << kLut) - 1)];
            if (Dictionary::lutIsValue(el)) {
                unsigned ll = Dictionary::lutLen(el);
                if (br.trySkip(lh + ll)) {
                    out.words[i] =
                        (static_cast<u32>(Dictionary::lutValue(eh))
                         << 16) |
                        Dictionary::lutValue(el);
                    out.endBit[i] = static_cast<u32>(br.bitPos());
                    continue;
                }
            }
        }
        u16 hi, lo;
        if (!img_.highDict.readFast(br, hi) ||
            !img_.lowDict.readFast(br, lo))
            return false;
        out.words[i] = (static_cast<u32>(hi) << 16) | lo;
        out.endBit[i] = static_cast<u32>(br.bitPos());
    }
    u32 used_bytes = static_cast<u32>((br.bitPos() + 7) / 8);
    if (block == 0) {
        if (out.byteLen != used_bytes)
            return false; // index/stream disagreement
    } else {
        out.byteLen = used_bytes;
    }
    return true;
}

bool
Decompressor::fastDecompressBlock2(u32 group, u32 block,
                                   DecodedBlock &out) const
{
    bool done = false;
    if (!frameFastBlock(group, block, out, done))
        return false;
    if (done)
        return true;

    // The batched kernel holds the bitstream in a register-resident
    // 64-bit window (next bits MSB-aligned in `buf`, `have` of them
    // valid, low bits zero) instead of going through BitReader: every
    // instruction needs at most 19 + 19 bits, and the refill keeps
    // >= 56 valid while bytes remain, so a whole instruction — pair
    // probe, low probe, even both raw literals — always resolves from
    // the window without a reload in between.
    const u8 *p = img_.bytes.data() + out.byteOffset;
    const size_t byte_count = img_.bytes.size() - out.byteOffset;
    u64 buf = 0;
    unsigned have = 0;
    size_t next_byte = 0;
    u32 used = 0;
    auto refill = [&] {
        if (next_byte + 8 <= byte_count) {
            // Branch-light top-up: append the next 8 bytes below the
            // valid bits and advance by the whole bytes that fit; the
            // fractional-byte overlap re-ORs identical bits next time.
            u64 w;
            std::memcpy(&w, p + next_byte, 8);
            if constexpr (std::endian::native == std::endian::little)
                w = __builtin_bswap64(w);
            buf |= w >> have;
            next_byte += (63 - have) >> 3;
            have |= 56;
        } else {
            while (have <= 56 && next_byte < byte_count) {
                buf |= u64{p[next_byte++]} << (56 - have);
                have += 8;
            }
        }
    };

    constexpr unsigned kLut = Dictionary::kLutBits;
    constexpr unsigned kRawLen = 3 + kRawLiteralBits;
    constexpr unsigned kMaxInsnBits = 2 * kRawLen;
    // The four possible non-raw high codeword lengths, fixed by the
    // bank layout. The low-LUT probe index depends on how many bits
    // the high codeword consumed, which arrives only after the pair
    // probe's load resolves; probing speculatively at all four
    // lengths keeps those loads independent of the pair load, so the
    // resolved high length picks a ready value (a short cmov chain)
    // instead of starting a second dependent load.
    constexpr unsigned kHL0 = kHighBanks[0].codeBits();
    constexpr unsigned kHL1 = kHighBanks[1].codeBits();
    constexpr unsigned kHL2 = kHighBanks[2].codeBits();
    constexpr unsigned kHL3 = kHighBanks[3].codeBits();
    const u64 *pair = pair_.data();
    const u32 *hlut = img_.highDict.lutData();
    const u32 *llut = img_.lowDict.lutData();
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        // Top up only once the window can no longer cover a worst-case
        // (double-raw) instruction: typical codewords run ~11 bits, so
        // the 8-byte load amortizes over several instructions.
        if (have < kMaxInsnBits)
            refill();
        // The top PairLut::kBits window bits probe the fused pair
        // table; escape slots are the all-zero word, so the populated
        // (1- or 2-symbol) fast path branches on a plain truth test.
        u64 e = pair[static_cast<u32>(buf >> (64 - PairLut::kBits))];
        u32 word;
        unsigned need;
        if (e != 0) [[likely]] {
            u32 el0 =
                llut[static_cast<u32>((buf << kHL0) >> (64 - kLut))];
            u32 el1 =
                llut[static_cast<u32>((buf << kHL1) >> (64 - kLut))];
            u32 el2 =
                llut[static_cast<u32>((buf << kHL2) >> (64 - kLut))];
            u32 el3 =
                llut[static_cast<u32>((buf << kHL3) >> (64 - kLut))];
            need = PairLut::lenBits(e);
            if (PairLut::symbols(e) == 2) {
                word = PairLut::word(e);
            } else {
                unsigned lh = need;
                u32 el = lh == kHL0   ? el0
                         : lh == kHL1 ? el1
                         : lh == kHL2 ? el2
                                      : el3;
                u32 hi16 = static_cast<u32>(PairLut::highHalf(e))
                           << 16;
                if (Dictionary::lutIsValue(el)) [[likely]] {
                    word = hi16 | Dictionary::lutValue(el);
                    need = lh + Dictionary::lutLen(el);
                } else if (Dictionary::lutIsRaw(el)) {
                    word = hi16 |
                           static_cast<u16>((buf << (lh + 3)) >> 48);
                    need = lh + kRawLen;
                } else {
                    return false;
                }
            }
        } else {
            // Escape slot: a raw high halfword decodes inline from
            // the window; an unpopulated index goes to the checked
            // path for its diagnostic.
            u32 wh = static_cast<u32>(buf >> (64 - kLut));
            if (!Dictionary::lutIsRaw(hlut[wh]))
                return false;
            u32 hi16 =
                static_cast<u32>((buf << 3) >> 48) << 16;
            u32 el = llut[static_cast<u32>((buf << kRawLen) >>
                                           (64 - kLut))];
            if (Dictionary::lutIsValue(el)) {
                word = hi16 | Dictionary::lutValue(el);
                need = kRawLen + Dictionary::lutLen(el);
            } else if (Dictionary::lutIsRaw(el)) {
                word = hi16 | static_cast<u16>(
                                  (buf << (kRawLen + 3)) >> 48);
                need = 2 * kRawLen;
            } else {
                return false;
            }
        }
        if (need > have)
            return false; // truncated: the checked path names the bit
        buf <<= need;
        have -= need;
        used += need;
        out.words[i] = word;
        out.endBit[i] = used;
    }
    u32 used_bytes = (used + 7) / 8;
    if (block == 0) {
        if (out.byteLen != used_bytes)
            return false; // index/stream disagreement
    } else {
        out.byteLen = used_bytes;
    }
    return true;
}

namespace
{

/**
 * Interleaved register-buffer decode of @p W independent block
 * bitstreams. Each lane carries the same state as the single-block
 * fast kernel (64-bit MSB-aligned window, valid-bit count, byte
 * cursor); the lanes' load chains (bit window -> high-LUT probe ->
 * low-LUT probe -> window advance) are serial within a lane but
 * independent across lanes, so the round-robin loop keeps W chains in
 * flight and the per-block latency approaches 1/W of the solo kernel.
 * Lanes probe the per-dictionary LUTs rather than the PairLut: two 8
 * KiB tables stay L1-resident under W-way pressure where the 32 KiB
 * pair table does not, and measured throughput favors them.
 *
 * Preconditions (enforced by the caller): all W blocks framed, none
 * raw. Returns false when any lane hits a pattern the checked decoder
 * owns (unpopulated index, truncation, length cross-check failure).
 */
template <unsigned W>
bool
decodeInterleaved(const CompressedImage &img, DecodedBlock *outs,
                  const bool *is_first)
{
    constexpr unsigned kLut = Dictionary::kLutBits;
    constexpr unsigned kRawLen = 3 + kRawLiteralBits;
    const u32 *hlut = img.highDict.lutData();
    const u32 *llut = img.lowDict.lutData();
    const u8 *base = img.bytes.data();
    const size_t total = img.bytes.size();

    const u8 *p[W];
    size_t cnt[W], next_byte[W];
    u64 buf[W];
    unsigned have[W];
    u32 used[W];
    for (unsigned w = 0; w < W; ++w) {
        p[w] = base + outs[w].byteOffset;
        cnt[w] = total - outs[w].byteOffset;
        next_byte[w] = 0;
        buf[w] = 0;
        have[w] = 0;
        used[w] = 0;
    }
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        for (unsigned w = 0; w < W; ++w) {
            if (next_byte[w] + 8 <= cnt[w]) {
                u64 x;
                std::memcpy(&x, p[w] + next_byte[w], 8);
                if constexpr (std::endian::native ==
                              std::endian::little)
                    x = __builtin_bswap64(x);
                buf[w] |= x >> have[w];
                next_byte[w] += (63 - have[w]) >> 3;
                have[w] |= 56;
            } else {
                while (have[w] <= 56 && next_byte[w] < cnt[w]) {
                    buf[w] |= u64{p[w][next_byte[w]++]}
                              << (56 - have[w]);
                    have[w] += 8;
                }
            }
            u64 b = buf[w];
            u32 eh = hlut[static_cast<u32>(b >> (64 - kLut))];
            u16 hi;
            unsigned lh;
            if (Dictionary::lutIsValue(eh)) [[likely]] {
                hi = Dictionary::lutValue(eh);
                lh = Dictionary::lutLen(eh);
            } else if (Dictionary::lutIsRaw(eh)) {
                hi = static_cast<u16>((b << 3) >> 48);
                lh = kRawLen;
            } else {
                return false;
            }
            u32 el = llut[static_cast<u32>((b << lh) >> (64 - kLut))];
            u16 lo;
            unsigned ll;
            if (Dictionary::lutIsValue(el)) [[likely]] {
                lo = Dictionary::lutValue(el);
                ll = Dictionary::lutLen(el);
            } else if (Dictionary::lutIsRaw(el)) {
                lo = static_cast<u16>((b << (lh + 3)) >> 48);
                ll = kRawLen;
            } else {
                return false;
            }
            unsigned need = lh + ll;
            if (need > have[w])
                return false;
            buf[w] = b << need;
            have[w] -= need;
            used[w] += need;
            outs[w].words[i] = (static_cast<u32>(hi) << 16) | lo;
            outs[w].endBit[i] = used[w];
        }
    }
    for (unsigned w = 0; w < W; ++w) {
        u32 used_bytes = (used[w] + 7) / 8;
        if (is_first[w]) {
            if (outs[w].byteLen != used_bytes)
                return false; // index/stream disagreement
        } else {
            outs[w].byteLen = used_bytes;
        }
    }
    return true;
}

} // namespace

bool
Decompressor::fastDecodeBatch(u32 first, unsigned width,
                              DecodedBlock *outs) const
{
    bool is_first[4];
    for (unsigned w = 0; w < width; ++w) {
        u32 flat = first + w;
        bool done = false;
        if (!frameFastBlock(flat / kBlocksPerGroup,
                            flat % kBlocksPerGroup, outs[w], done))
            return false;
        if (done)
            return false; // raw block: the per-block path handles it
        is_first[w] = flat % kBlocksPerGroup == 0;
    }
    switch (width) {
      case 2:
        return decodeInterleaved<2>(img_, outs, is_first);
      case 4:
        return decodeInterleaved<4>(img_, outs, is_first);
    }
    return false;
}

void
Decompressor::decompressBlocks(u32 first, u32 count,
                               DecodedBlock *outs) const
{
    auto solo = [&](u32 at, u32 n) {
        for (u32 w = 0; w < n; ++w)
            outs[at + w] = decompressFlatBlock(first + at + w);
    };
    u32 i = 0;
    if (kernel_ == DecodeKernel::Lut2) {
        for (; i + 4 <= count; i += 4)
            if (!fastDecodeBatch(first + i, 4, outs + i))
                solo(i, 4); // raw block or checked-path decline
        if (i + 2 <= count) {
            if (!fastDecodeBatch(first + i, 2, outs + i))
                solo(i, 2);
            i += 2;
        }
    }
    solo(i, count - i);
}

DecodedBlock
Decompressor::decompressBlock(u32 group, u32 block) const
{
    DecodedBlock out;
    switch (kernel_) {
      case DecodeKernel::Lut2:
        if (fastDecompressBlock2(group, block, out))
            return out;
        break;
      case DecodeKernel::Lut:
        if (fastDecompressBlock(group, block, out))
            return out;
        break;
      case DecodeKernel::Checked:
        break;
    }
    // The fast kernel bailed (or was never selected): decode through
    // the checked bit-serial reference path. Trusted path: the image
    // was produced in-process, so a decode failure here is a simulator
    // bug, not bad input — panic with the checked diagnostic.
    Result<DecodedBlock> r = tryDecompressBlock(group, block);
    if (!r)
        cps_panic("decompressBlock on corrupt image: %s",
                  r.error().describe().c_str());
    return *r;
}

std::vector<u32>
Decompressor::decompressAll() const
{
    std::vector<u32> out;
    out.reserve(img_.paddedInsns);
    for (u32 g = 0; g < img_.numGroups(); ++g) {
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            DecodedBlock blk = decompressBlock(g, b);
            out.insert(out.end(), blk.words.begin(), blk.words.end());
        }
    }
    out.resize(img_.origTextBytes / 4); // drop the NOP padding
    return out;
}

Result<std::vector<u32>>
Decompressor::tryDecompressAll() const
{
    Result<void> valid = validateImage(img_);
    if (!valid)
        return valid.error();
    std::vector<u32> out;
    out.reserve(img_.paddedInsns);
    for (u32 g = 0; g < img_.numGroups(); ++g) {
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            Result<DecodedBlock> blk = tryDecompressBlock(g, b);
            if (!blk)
                return blk.error();
            out.insert(out.end(), blk->words.begin(), blk->words.end());
        }
    }
    out.resize(img_.origTextBytes / 4); // drop the NOP padding
    return out;
}

Result<void>
validateImage(const CompressedImage &img)
{
    if (img.paddedInsns % kGroupInsns != 0)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "paddedInsns %u is not a multiple of "
                                 "the group size %u",
                                 img.paddedInsns, kGroupInsns);
    u32 groups = img.paddedInsns / kGroupInsns;
    if (img.numGroups() != groups)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "index table has %u entries for %u "
                                 "groups",
                                 img.numGroups(), groups);
    if (!img.blocks.empty() &&
        img.blocks.size() != size_t{groups} * kBlocksPerGroup)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "%zu block extents for %u groups",
                                 img.blocks.size(), groups);
    if (img.origTextBytes % 4 != 0 ||
        img.origTextBytes > u64{img.paddedInsns} * 4)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "origTextBytes %u inconsistent with "
                                 "%u padded instructions",
                                 img.origTextBytes, img.paddedInsns);
    if (img.textBase % 4 != 0)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "text base 0x%x is not word aligned",
                                 img.textBase);

    for (u32 g = 0; g < groups; ++g) {
        u32 entry = img.indexTable[g];
        u64 first = idxFirstOffset(entry);
        u64 second = first + idxSecondOffset(entry);
        if (first > img.bytes.size() || second > img.bytes.size())
            return decodeErrorAtByte(
                DecodeStatus::RangeError, first,
                "index entry %u points beyond the compressed region "
                "(%zu bytes)",
                g, img.bytes.size());
    }
    for (size_t i = 0; i < img.blocks.size(); ++i) {
        const BlockExtent &b = img.blocks[i];
        if (u64{b.byteOffset} + b.byteLen > img.bytes.size())
            return decodeErrorAtByte(
                DecodeStatus::RangeError, b.byteOffset,
                "block extent %zu [%u, %u) beyond the compressed "
                "region (%zu bytes)",
                i, b.byteOffset, b.byteOffset + b.byteLen,
                img.bytes.size());
    }

    // Protection annex consistency: every block and index entry owns
    // exactly the check bytes its kind dictates, and the offset table
    // matches the extents it was derived from.
    if (img.isProtected()) {
        std::vector<u32> off = blockCheckOffsets(img.protectKind,
                                                 img.blocks);
        if (img.blockCheckOff != off ||
            img.blockCheck.size() != off.back())
            return decodeErrorAtByte(
                DecodeStatus::BadHeader, 0,
                "%s block-check array (%zu bytes) inconsistent with "
                "the block extents (%u expected)",
                protectKindName(img.protectKind), img.blockCheck.size(),
                off.back());
        if (img.indexCheck.size() !=
            img.indexTable.size() * indexCheckBytes(img.protectKind))
            return decodeErrorAtByte(
                DecodeStatus::BadHeader, 0,
                "%s index-check array (%zu bytes) inconsistent with "
                "%u index entries",
                protectKindName(img.protectKind), img.indexCheck.size(),
                img.numGroups());
    } else if (!img.blockCheck.empty() || !img.indexCheck.empty()) {
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "check arrays present on an "
                                 "unprotected image");
    }
    return {};
}

} // namespace codepack
} // namespace cps
