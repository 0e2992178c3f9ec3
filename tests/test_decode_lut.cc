/**
 * @file
 * Decode-LUT equivalence tests. The trusted decompressBlock path decodes
 * through a precomputed single-pass LUT; the checked tryDecompressBlock
 * path stays bit-serial. These tests pin the contract between them:
 *
 *  - on every block of every benchmark profile the two decoders agree
 *    bit for bit (words, end-bit positions, framing metadata), and the
 *    miss-path geometry memo holds exactly that geometry;
 *  - on streams the LUT cannot resolve (truncations, unpopulated
 *    dictionary indexes) readFast declines without consuming anything,
 *    and the checked path reports the precise DecodeStatus;
 *  - the trusted path reproduces the checked path's diagnostic when it
 *    is fed a corrupt image (a simulator bug by definition);
 *  - the windowed 64-bit BitReader matches a bit-at-a-time shadow
 *    reader on random streams, including backward seeks and the
 *    zero-padded peek used by the LUT probe.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "codepack/compressor.hh"
#include "codepack/decompressor.hh"
#include "codepack/geometry.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "harness/suite.hh"

namespace cps
{
namespace codepack
{
namespace
{

/** Asserts @p fast equals the checked result @p want, with context. */
void
expectBlockEq(const DecodedBlock &fast, const DecodedBlock &want,
              const std::string &ctx)
{
    EXPECT_EQ(fast.byteOffset, want.byteOffset) << ctx;
    EXPECT_EQ(fast.byteLen, want.byteLen) << ctx;
    EXPECT_EQ(fast.raw, want.raw) << ctx;
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        ASSERT_EQ(fast.words[i], want.words[i]) << ctx << " insn " << i;
        ASSERT_EQ(fast.endBit[i], want.endBit[i])
            << ctx << " insn " << i;
    }
}

/**
 * Every rung of the kernel ladder — and the batched multi-block path —
 * decodes every block of @p img identically to the checked bit-serial
 * reference.
 */
void
expectAllKernelsMatchChecked(const CompressedImage &img,
                             const std::string &name)
{
    constexpr DecodeKernel kKernels[] = {
        DecodeKernel::Checked, DecodeKernel::Lut, DecodeKernel::Lut2};
    Decompressor ref(img, DecodeKernel::Checked);
    for (DecodeKernel k : kKernels) {
        Decompressor d(img, k);
        ASSERT_EQ(d.kernel(), k);
        for (u32 g = 0; g < img.numGroups(); ++g) {
            for (u32 b = 0; b < kBlocksPerGroup; ++b) {
                Result<DecodedBlock> want = ref.tryDecompressBlock(g, b);
                ASSERT_TRUE(want.ok()) << name << " group " << g;
                expectBlockEq(d.decompressBlock(g, b), want.value(),
                              strfmt("%s kernel=%s group %u block %u",
                                     name.c_str(), decodeKernelName(k),
                                     g, b));
            }
        }
        // The batched entry point must agree block for block — both
        // over the whole image (exercising the 4-wide interleave and
        // its raw-block/tail fallbacks) and from an odd first block
        // (unaligned batch start).
        u32 blocks = img.numBlocks();
        std::vector<DecodedBlock> batch(blocks);
        d.decompressBlocks(0, blocks, batch.data());
        for (u32 fb = 0; fb < blocks; ++fb)
            expectBlockEq(batch[fb], ref.decompressFlatBlock(fb),
                          strfmt("%s kernel=%s batched flat block %u",
                                 name.c_str(), decodeKernelName(k), fb));
        if (blocks > 1) {
            std::vector<DecodedBlock> odd(blocks - 1);
            d.decompressBlocks(1, blocks - 1, odd.data());
            for (u32 fb = 1; fb < blocks; ++fb)
                expectBlockEq(odd[fb - 1], ref.decompressFlatBlock(fb),
                              strfmt("%s kernel=%s odd batch block %u",
                                     name.c_str(), decodeKernelName(k),
                                     fb));
        }
    }
}

/**
 * The miss-path geometry memo, filled by trusted and by checked decode,
 * must hold exactly the checked decoder's geometry for every block of
 * @p img — which in turn must match the image's own block extents.
 */
void
expectGeometryMatchesChecked(const CompressedImage &img,
                             const std::string &name)
{
    Decompressor ref(img, DecodeKernel::Checked);
    GeometryMemo trusted(img), checked(img);
    for (u32 f = 0; f < img.numBlocks(); ++f) {
        std::string where = strfmt("%s flat block %u", name.c_str(), f);
        Result<DecodedBlock> want =
            ref.tryDecompressBlock(f / kBlocksPerGroup, f % kBlocksPerGroup);
        ASSERT_TRUE(want.ok()) << where;
        Result<const BlockGeometry *> viaChecked = checked.tryGet(f);
        ASSERT_TRUE(viaChecked.ok()) << where;
        for (const BlockGeometry *g : {&trusted.get(f), *viaChecked}) {
            ASSERT_EQ(g->byteOffset, want->byteOffset) << where;
            ASSERT_EQ(g->byteLen, want->byteLen) << where;
            ASSERT_EQ(g->endBit, want->endBit) << where;
            ASSERT_EQ(g->byteOffset, img.blocks[f].byteOffset) << where;
            ASSERT_EQ(g->byteLen, img.blocks[f].byteLen) << where;
        }
    }
}

TEST(DecodeLut, TrustedMatchesCheckedOnEveryProfileBlock)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        expectAllKernelsMatchChecked(suite.get(name).image, name);
        expectGeometryMatchesChecked(suite.get(name).image, name);
    }
}

/**
 * Stitches @p words into a CompressedImage over explicit dictionaries,
 * mimicking the compressor's phase 3 (per-block encode, byte-align,
 * index-table build; no raw-block escapes). Lets tests decode under
 * adversarial dictionaries the frequency-ranked builder would never
 * produce.
 */
CompressedImage
imageOverDicts(const std::vector<u32> &words, Dictionary high,
               Dictionary low)
{
    CompressedImage img;
    img.textBase = 0;
    img.origTextBytes = static_cast<u32>(words.size() * 4);
    std::vector<u32> padded = words;
    while (padded.size() % kGroupInsns != 0)
        padded.push_back(kNopWord);
    img.paddedInsns = static_cast<u32>(padded.size());
    img.highDict = std::move(high);
    img.lowDict = std::move(low);

    u32 groups = img.paddedInsns / kGroupInsns;
    for (u32 g = 0; g < groups; ++g) {
        u32 first_off = static_cast<u32>(img.bytes.size());
        u32 lens[kBlocksPerGroup] = {};
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            const u32 *insns =
                padded.data() +
                (size_t{g} * kBlocksPerGroup + b) * kBlockInsns;
            BitWriter bw;
            for (unsigned i = 0; i < kBlockInsns; ++i) {
                u16 hi = static_cast<u16>(insns[i] >> 16);
                u16 lo = static_cast<u16>(insns[i]);
                Dictionary::writeEncoded(bw, img.highDict.encode(hi),
                                         hi);
                Dictionary::writeEncoded(bw, img.lowDict.encode(lo),
                                         lo);
            }
            bw.alignByte();
            BlockExtent ext;
            ext.byteOffset = static_cast<u32>(img.bytes.size());
            std::vector<u8> bytes = bw.take();
            ext.byteLen = static_cast<u32>(bytes.size());
            img.blocks.push_back(ext);
            img.bytes.insert(img.bytes.end(), bytes.begin(),
                             bytes.end());
            lens[b] = ext.byteLen;
        }
        img.indexTable.push_back(
            makeIndexEntry(first_off, false, lens[0], false));
    }
    return img;
}

/** Deterministic mixed instruction stream drawing halves from @p picks. */
std::vector<u32>
mixedWords(const std::vector<u16> &high_picks,
           const std::vector<u16> &low_picks, size_t count, u32 seed)
{
    Rng rng(seed);
    std::vector<u32> words;
    words.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        // Mostly dictionary hits, with raw halves and zero lows mixed
        // in so every decode rung (pair, single, raw escape, low-zero)
        // appears in every stream.
        u16 hi = rng.below(4) == 0
                     ? static_cast<u16>(rng.below(65536))
                     : high_picks[rng.below(
                           static_cast<u32>(high_picks.size()))];
        u16 lo;
        switch (rng.below(4)) {
          case 0:
            lo = static_cast<u16>(rng.below(65536));
            break;
          case 1:
            lo = 0;
            break;
          default:
            lo = low_picks[rng.below(
                static_cast<u32>(low_picks.size()))];
        }
        words.push_back((static_cast<u32>(hi) << 16) | lo);
    }
    return words;
}

TEST(DecodeLut, AllRawDictionariesNeverDoublePack)
{
    // Empty dictionaries: every halfword escapes raw (19 + 19 bits per
    // instruction, 76-byte blocks — still under the 128-byte index
    // limit for block 0). The PairLut must be all escape slots.
    Dictionary high(Dictionary::Kind::High);
    Dictionary low(Dictionary::Kind::Low);
    EXPECT_EQ(PairLut(high, low).pairSlots(), 0u);

    std::vector<u32> words =
        mixedWords({0xdead}, {0xbeef}, 4 * kGroupInsns, 0xa11);
    CompressedImage img =
        imageOverDicts(words, std::move(high), std::move(low));
    expectAllKernelsMatchChecked(img, "all-raw");
}

TEST(DecodeLut, SingleEntryDictionaries)
{
    // One bank-0 entry per dictionary: the only double-packable window
    // is that 6-bit high code followed by the low zero code or the one
    // 6-bit low code.
    Dictionary high = Dictionary::fromBankEntries(
        Dictionary::Kind::High, {{0x4242}, {}, {}, {}});
    Dictionary low = Dictionary::fromBankEntries(Dictionary::Kind::Low,
                                                 {{0x1771}, {}, {}});
    EXPECT_GT(PairLut(high, low).pairSlots(), 0u);

    std::vector<u32> words =
        mixedWords({0x4242}, {0x1771}, 6 * kGroupInsns, 0x5e1);
    CompressedImage img =
        imageOverDicts(words, std::move(high), std::move(low));
    expectAllKernelsMatchChecked(img, "single-entry");
}

TEST(DecodeLut, MaxLengthCodewordsNeverDoublePack)
{
    // Only the last bank populated: every dictionary codeword is the
    // maximum 11 bits, so no high+low combination — not even 11 bits
    // plus the 2-bit low zero code — fits the PairLut window. Double
    // packing must never apply, and decode must still agree.
    std::vector<u16> high_vals, low_vals;
    for (u16 v = 0; v < 32; ++v) {
        high_vals.push_back(static_cast<u16>(0x8000 + v));
        low_vals.push_back(static_cast<u16>(0x4000 + v));
    }
    Dictionary high = Dictionary::fromBankEntries(
        Dictionary::Kind::High, {{}, {}, {}, high_vals});
    Dictionary low = Dictionary::fromBankEntries(
        Dictionary::Kind::Low, {{}, {}, low_vals});
    EXPECT_EQ(PairLut(high, low).pairSlots(), 0u);

    std::vector<u32> words =
        mixedWords(high_vals, low_vals, 6 * kGroupInsns, 0x3aa);
    CompressedImage img =
        imageOverDicts(words, std::move(high), std::move(low));
    expectAllKernelsMatchChecked(img, "max-length");
}

/** A dictionary with a couple of populated banks for stream tests. */
Dictionary
smallHighDict()
{
    std::unordered_map<u16, u64> counts;
    counts[0x1111] = 1000; // lands in bank 0
    counts[0x2222] = 900;
    counts[0x3333] = 800;
    return Dictionary::build(Dictionary::Kind::High, counts);
}

TEST(DecodeLut, ReadFastMatchesTryReadOnValidStreams)
{
    Dictionary d = smallHighDict();
    const u16 vals[] = {0x1111, 0x2222, 0xbeef, 0x3333, 0x1111, 0xffff};
    BitWriter bw;
    for (u16 v : vals)
        d.write(bw, v);
    bw.alignByte();
    std::vector<u8> bytes = bw.take();

    BitReader fast(bytes.data(), bytes.size());
    BitReader ref(bytes.data(), bytes.size());
    for (u16 want : vals) {
        u16 got = 0;
        ASSERT_TRUE(d.readFast(fast, got));
        EXPECT_EQ(got, want);
        Result<u16> checked = d.tryRead(ref);
        ASSERT_TRUE(checked.ok());
        EXPECT_EQ(checked.value(), want);
        EXPECT_EQ(fast.bitPos(), ref.bitPos())
            << "LUT and bit-serial decode must consume identical bits";
    }
}

TEST(DecodeLut, TruncatedStreamDeclinesAndChecksAsTruncated)
{
    Dictionary d = smallHighDict();
    BitWriter bw;
    d.write(bw, 0xbeef); // raw escape: 3 tag bits + 16 literal bits
    std::vector<u8> bytes = bw.take();

    // Chop the stream so the literal cannot complete.
    BitReader fast(bytes.data(), 1);
    u16 out = 0;
    EXPECT_FALSE(d.readFast(fast, out));
    EXPECT_EQ(fast.bitPos(), 0u) << "a declined readFast consumes nothing";

    BitReader ref(bytes.data(), 1);
    Result<u16> checked = d.tryRead(ref);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.error().status, DecodeStatus::Truncated);
}

TEST(DecodeLut, UnpopulatedIndexDeclinesAndChecksAsRangeError)
{
    // Bank 0 holds 3 entries; fabricate the codeword for index 9.
    Dictionary d = smallHighDict();
    BitWriter bw;
    bw.put(0b00, 2); // bank-0 tag (high dictionary)
    bw.put(9, 4);    // index beyond the population
    bw.alignByte();
    std::vector<u8> bytes = bw.take();

    BitReader fast(bytes.data(), bytes.size());
    u16 out = 0;
    EXPECT_FALSE(d.readFast(fast, out));
    EXPECT_EQ(fast.bitPos(), 0u);

    BitReader ref(bytes.data(), bytes.size());
    Result<u16> checked = d.tryRead(ref);
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.error().status, DecodeStatus::RangeError);
}

TEST(DecodeLutDeathTest, TrustedPathReproducesCheckedDiagnostic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const BenchProgram &bench = Suite::instance().get("pegwit");
    CompressedImage img = bench.image;
    ASSERT_FALSE(img.bytes.empty());
    // Scribble over the first group's stream until the checked decoder
    // objects, then insist the trusted path dies with that diagnostic.
    Rng rng(0x517e);
    for (int attempt = 0; attempt < 200; ++attempt) {
        CompressedImage bad = img;
        size_t at = rng.below(static_cast<u32>(bad.bytes.size()));
        bad.bytes[at] ^= static_cast<u8>(1u << rng.below(8));
        Decompressor d(bad);
        for (u32 g = 0; g < bad.numGroups(); ++g) {
            for (u32 b = 0; b < kBlocksPerGroup; ++b) {
                Result<DecodedBlock> ref = d.tryDecompressBlock(g, b);
                if (ref.ok()) {
                    // Both decoders still accept this block — and then
                    // they must agree exactly.
                    DecodedBlock fast = d.decompressBlock(g, b);
                    for (unsigned i = 0; i < kBlockInsns; ++i)
                        ASSERT_EQ(fast.words[i], ref.value().words[i]);
                    continue;
                }
                EXPECT_DEATH(d.decompressBlock(g, b),
                             "decompressBlock on corrupt image");
                return; // one fault that reached decode is enough
            }
        }
    }
    FAIL() << "no corruption ever produced a checked decode error";
}

/** Reads @p width bits at absolute bit @p pos, one bit at a time. */
u32
shadowRead(const std::vector<u8> &bytes, size_t pos, unsigned width)
{
    u32 out = 0;
    for (unsigned i = 0; i < width; ++i, ++pos) {
        unsigned bit = (bytes[pos >> 3] >> (7 - (pos & 7))) & 1u;
        out = (out << 1) | bit;
    }
    return out;
}

TEST(BitReaderWindow, MatchesBitSerialShadowOnRandomStreams)
{
    Rng rng(0x51dd);
    std::vector<u8> bytes(257);
    for (u8 &b : bytes)
        b = static_cast<u8>(rng.below(256));

    BitReader br(bytes.data(), bytes.size());
    size_t pos = 0;
    while (br.remaining() >= 32) {
        unsigned width = 1 + rng.below(32);
        if (width > br.remaining())
            width = static_cast<unsigned>(br.remaining());
        ASSERT_EQ(br.peek(width), shadowRead(bytes, pos, width));
        ASSERT_EQ(br.get(width), shadowRead(bytes, pos, width));
        pos += width;
        ASSERT_EQ(br.bitPos(), pos);
    }
}

TEST(BitReaderWindow, BackwardSeekRefillsTheWindow)
{
    Rng rng(0xcafe);
    std::vector<u8> bytes(64);
    for (u8 &b : bytes)
        b = static_cast<u8>(rng.below(256));

    BitReader br(bytes.data(), bytes.size());
    u32 first = br.get(13);
    br.get(24); // march the window forward
    ASSERT_TRUE(br.seekBit(0));
    EXPECT_EQ(br.get(13), first)
        << "a backward seek must not reuse the advanced window";
}

TEST(BitReaderWindow, PeekPaddedZeroFillsPastTheEnd)
{
    std::vector<u8> bytes{0xff, 0xff};
    BitReader br(bytes.data(), bytes.size());
    br.skip(8);
    // 8 real bits remain; a 12-bit padded peek reads them into the top
    // of the field with zeros below.
    EXPECT_EQ(br.peekPadded(12), 0xffu << 4);
    br.skip(8);
    EXPECT_EQ(br.remaining(), 0u);
    EXPECT_EQ(br.peekPadded(11), 0u);
}

TEST(BitReaderWindow, TrySkipChecksAvailability)
{
    std::vector<u8> bytes{0xab, 0xcd};
    BitReader br(bytes.data(), bytes.size());
    EXPECT_TRUE(br.trySkip(10));
    EXPECT_EQ(br.bitPos(), 10u);
    EXPECT_FALSE(br.trySkip(7));
    EXPECT_EQ(br.bitPos(), 10u) << "a failed trySkip must not move";
    EXPECT_TRUE(br.trySkip(6));
    EXPECT_EQ(br.remaining(), 0u);
}

} // namespace
} // namespace codepack
} // namespace cps
