/**
 * @file
 * Cycle-level decompressor-model tests.
 *
 * The central fixture reproduces the arithmetic of the paper's Figure 2:
 * with the baseline memory (10-cycle first access, 2-cycle beat rate,
 * 64-bit bus) and a block that streams in at ~21 bits per instruction,
 * the baseline decompressor delivers the 5th instruction of a block at
 * exactly t=25 after an index miss at t=0 — the very number the paper
 * quotes — and the optimized engine's index-cache hit plus doubled
 * decode rate pull the critical word into the t=11..15 range.
 */

#include <gtest/gtest.h>

#include "codepack/resilience.hh"
#include "codepack/timing.hh"
#include "common/rng.hh"
#include "isa/isa.hh"

namespace cps
{
namespace codepack
{
namespace
{

/**
 * Builds an image whose every instruction encodes in exactly 21 bits:
 * a unique (raw, 3+16 bits) high halfword plus the 2-bit low-zero
 * codeword. @p groups compression groups are generated.
 */
CompressedImage
rawHiImage(u32 groups)
{
    std::vector<u32> words;
    for (u32 i = 0; i < groups * kGroupInsns; ++i)
        words.push_back(((0x4000u + i) << 16) | 0x0000u);
    CompressedImage img = compressWords(words, kTextBase);
    // Sanity: the construction must give 21-bit instructions.
    EXPECT_EQ(img.highDict.totalEntries(), 0u);
    EXPECT_EQ(img.blocks[0].byteLen, (kBlockInsns * 21 + 7) / 8);
    return img;
}

struct Fixture
{
    CompressedImage img;
    MainMemory mem;
    StatSet stats;

    explicit Fixture(u32 groups = 4) : img(rawHiImage(groups)) {}

    DecompressorModel
    model(const DecompressorConfig &cfg)
    {
        return DecompressorModel(img, mem, cfg, stats);
    }
};

TEST(DecompTiming, Figure2BaselineIndexMiss)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    LineFill fill = m.handleMiss(kTextBase, 0);

    // Index entry arrives at t=10 (one memory access); compressed beats
    // at t=20,22,24,...; serial decode at 1/cycle delivers instruction
    // k at 20+k. The paper's Figure 2-b example: critical instruction
    // number 5 available at t=25.
    std::array<Cycle, 8> expect{21, 22, 23, 24, 25, 26, 27, 28};
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], expect[w]) << "word " << w;
    EXPECT_EQ(fill.wordReady[4], 25u) << "the paper's t=25 anchor";
    EXPECT_FALSE(fill.fromBuffer);
    EXPECT_EQ(fill.fillDone, 28u);

    const MissTrace &t = m.lastTrace();
    EXPECT_FALSE(t.bufferHit);
    EXPECT_FALSE(t.indexHit);
    EXPECT_EQ(t.indexDone, 10u);
    ASSERT_FALSE(t.codeBeats.empty());
    EXPECT_EQ(t.codeBeats[0], 20u);
    EXPECT_EQ(t.codeBeats[1], 22u);
}

TEST(DecompTiming, PerfectIndexCacheSkipsTheIndexFetch)
{
    Fixture f;
    DecompressorConfig cfg;
    cfg.perfectIndexCache = true;
    DecompressorModel m = f.model(cfg);
    LineFill fill = m.handleMiss(kTextBase, 0);
    // Beats at t=10,12,...; decode at 1/cycle -> word k ready at 10+k+1.
    std::array<Cycle, 8> expect{11, 12, 13, 14, 15, 16, 17, 18};
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], expect[w]);
    EXPECT_TRUE(m.lastTrace().indexPerfect);
}

TEST(DecompTiming, TwoDecodersOverlapWithBeats)
{
    Fixture f;
    DecompressorConfig cfg;
    cfg.perfectIndexCache = true;
    cfg.decodeRate = 2;
    DecompressorModel m = f.model(cfg);
    LineFill fill = m.handleMiss(kTextBase, 0);
    // Beats: insns 1-3 at t=10, 4-6 at t=12, 7-8 at t=14. Two decoders:
    // t=11: {1,2}; t=12: {3}; t=13: {4,5}; t=14: {6}; t=15: {7,8}.
    std::array<Cycle, 8> expect{11, 11, 12, 13, 13, 14, 15, 15};
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], expect[w]) << "word " << w;
}

TEST(DecompTiming, SixteenDecodersAreArrivalLimited)
{
    Fixture f;
    DecompressorConfig cfg;
    cfg.perfectIndexCache = true;
    cfg.decodeRate = 16;
    DecompressorModel m = f.model(cfg);
    LineFill fill = m.handleMiss(kTextBase, 0);
    // Decode is now purely limited by beat arrival + 1 cycle.
    std::array<Cycle, 8> expect{11, 11, 11, 13, 13, 13, 15, 15};
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], expect[w]) << "word " << w;
}

TEST(DecompTiming, OutputBufferServesTheBlocksOtherLine)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0); // decodes the whole first block
    // The block's second line streams from the buffer at the output
    // port rate (1/cycle), with no memory traffic.
    u64 bursts_before = f.mem.numBursts();
    LineFill fill = m.handleMiss(kTextBase + 32, 100);
    EXPECT_TRUE(fill.fromBuffer);
    EXPECT_EQ(f.mem.numBursts(), bursts_before);
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], 101u + w);
    EXPECT_EQ(f.stats.value("decomp.buffer_hits"), 1u);
}

TEST(DecompTiming, BufferHitWaitsForOngoingDecode)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0); // line-1 insns decode at t=29..36
    LineFill fill = m.handleMiss(kTextBase + 32, 5);
    EXPECT_TRUE(fill.fromBuffer);
    // Port would deliver at 6..13 but decode finishes at 29..36.
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], 29u + w);
}

TEST(DecompTiming, BufferMissesAcrossBlocks)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0);
    // The group's other *block* is not in the buffer.
    LineFill fill = m.handleMiss(kTextBase + 64, 100);
    EXPECT_FALSE(fill.fromBuffer);
    EXPECT_EQ(f.stats.value("decomp.buffer_hits"), 0u);
}

TEST(DecompTiming, BaselineIndexCacheRemembersLastGroup)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0);        // group 0: index miss
    m.handleMiss(kTextBase + 64, 100); // group 0, block 1: index hit
    EXPECT_EQ(f.stats.value("decomp.index_lookups"), 2u);
    EXPECT_EQ(f.stats.value("decomp.index_hits"), 1u);
    m.handleMiss(kTextBase + 128, 200); // group 1: index miss
    m.handleMiss(kTextBase, 300);       // group 0 again: displaced
    EXPECT_EQ(f.stats.value("decomp.index_lookups"), 4u);
    EXPECT_EQ(f.stats.value("decomp.index_hits"), 1u);
}

TEST(DecompTiming, IndexHitAddsNoLatency)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0);
    // Same group, other block, long after the channel quiesced: the
    // index probe is parallel with the L1 so beats start at now+10.
    LineFill fill = m.handleMiss(kTextBase + 64, 1000);
    EXPECT_EQ(m.lastTrace().indexDone, 1000u);
    EXPECT_EQ(m.lastTrace().codeBeats[0], 1010u);
    EXPECT_EQ(fill.wordReady[0], 1011u);
}

TEST(DecompTiming, BurstIndexFillFetchesWholeLine)
{
    Fixture f;
    DecompressorConfig cfg;
    cfg.indexCacheLines = 4;
    cfg.indexesPerLine = 4;
    cfg.burstIndexFill = true;
    DecompressorModel m = f.model(cfg);
    m.handleMiss(kTextBase, 0);
    // 16 bytes of indexes = 2 beats on the 64-bit bus: ready at t=12,
    // so code beats start at 22.
    EXPECT_EQ(m.lastTrace().indexDone, 12u);
    // Groups 1..3 are now covered by the fetched line.
    m.handleMiss(kTextBase + 128, 1000);
    EXPECT_TRUE(m.lastTrace().indexHit);
    m.handleMiss(kTextBase + 3 * 128, 2000);
    EXPECT_TRUE(m.lastTrace().indexHit);
}

TEST(DecompTiming, OptimizedConfigMatchesPaperSection53)
{
    DecompressorConfig cfg = DecompressorConfig::optimized();
    EXPECT_EQ(cfg.indexCacheLines, 64u);
    EXPECT_EQ(cfg.indexesPerLine, 4u);
    EXPECT_EQ(cfg.decodeRate, 2u);
    EXPECT_FALSE(cfg.perfectIndexCache);
}

TEST(DecompTiming, SharedChannelSerializesWithOtherTraffic)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    // Another agent (e.g. a D-cache fill) holds the channel until t=50.
    f.mem.burstRead(0, 320); // 40 beats: done at 10+39*2 = 88
    Cycle channel_free = f.mem.busyUntil();
    LineFill fill = m.handleMiss(kTextBase, 20);
    EXPECT_GT(fill.wordReady[0], channel_free);
}

TEST(DecompTiming, NarrowBusStretchesDecode)
{
    Fixture f;
    f.mem.setTiming(MemTimingConfig{16, 10, 2}); // 16-bit bus
    DecompressorConfig cfg;
    cfg.perfectIndexCache = true;
    DecompressorModel m = f.model(cfg);
    LineFill fill = m.handleMiss(kTextBase, 0);
    // 42 bytes over a 2-byte bus: 21 beats, last at 10+20*2=50. The
    // requested line's 8th instruction ends at byte 21 -> beat 10
    // (t=30), decoded at t=31.
    EXPECT_EQ(fill.wordReady[7], 31u);
    // Insn 1 ends at byte 3 -> beat 1 (t=12), decoded t=13.
    EXPECT_EQ(fill.wordReady[0], 13u);
}

TEST(DecompTiming, RawEscapedBlockStillDecodes)
{
    // An image of incompressible words: blocks stored raw (64 bytes).
    Rng rng(5);
    std::vector<u32> words;
    for (u32 i = 0; i < kGroupInsns; ++i)
        words.push_back(static_cast<u32>(rng.next()));
    CompressedImage img = compressWords(words, kTextBase);
    ASSERT_TRUE(img.blocks[0].raw);
    MainMemory mem;
    StatSet stats;
    DecompressorConfig cfg;
    cfg.perfectIndexCache = true;
    DecompressorModel m(img, mem, cfg, stats);
    LineFill fill = m.handleMiss(kTextBase, 0);
    // 64 bytes = 8 beats at t=10..24; insns pass through at 1/cycle:
    // insn k ends at byte 4k -> beat (4k-1)/8.
    EXPECT_EQ(fill.wordReady[0], 11u);
    EXPECT_GE(fill.fillDone, fill.wordReady[0]);
}

TEST(DecompTiming, ResetClearsBufferAndIndexCache)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0);
    m.reset();
    LineFill fill = m.handleMiss(kTextBase + 32, 100);
    EXPECT_FALSE(fill.fromBuffer);
    EXPECT_FALSE(m.lastTrace().indexHit);
}

TEST(DecompTiming, StatsCountEveryMiss)
{
    Fixture f;
    DecompressorModel m = f.model(DecompressorConfig{});
    m.handleMiss(kTextBase, 0);
    m.handleMiss(kTextBase + 32, 50);  // buffer hit
    m.handleMiss(kTextBase + 64, 100); // new block
    EXPECT_EQ(f.stats.value("decomp.misses"), 3u);
    EXPECT_EQ(f.stats.value("decomp.buffer_hits"), 1u);
    EXPECT_EQ(f.stats.value("decomp.insns_decoded"), 2u * kBlockInsns);
}

TEST(DecompTiming, ProtectionChargesCheckLatencyUniformly)
{
    // A clean checked fetch delays every word by exactly
    // eccCheckCycles relative to the paper's unprotected timing —
    // and charging zero check cycles reproduces it bit-identically.
    Fixture base_f;
    LineFill base =
        base_f.model(DecompressorConfig{}).handleMiss(kTextBase, 0);
    for (unsigned check : {0u, 1u, 3u}) {
        Fixture f;
        protectImage(f.img, ProtectKind::SecDed);
        DecompressorConfig cfg;
        cfg.protect = ProtectKind::SecDed;
        cfg.eccCheckCycles = check;
        DecompressorModel m = f.model(cfg);
        LineFill fill = m.handleMiss(kTextBase, 0);
        for (unsigned w = 0; w < 8; ++w)
            EXPECT_EQ(fill.wordReady[w], base.wordReady[w] + check)
                << "check=" << check << " word " << w;
        EXPECT_FALSE(m.softError());
    }
}

TEST(DecompTiming, CorrectedUpsetPaysCorrectLatency)
{
    Fixture base_f;
    LineFill base =
        base_f.model(DecompressorConfig{}).handleMiss(kTextBase, 0);

    Fixture f;
    protectImage(f.img, ProtectKind::SecDed);
    SoftErrorDomain domain(f.img, /*seed=*/3, /*flip_rate_ppm=*/0, 2);
    DecompressorConfig cfg;
    cfg.protect = ProtectKind::SecDed;
    cfg.softErrorDomain = &domain;
    // Upset the first stream bit of block 0: SEC-DED corrects it in
    // place during the fetch, costing check + correct cycles.
    f.img.bytes[f.img.blocks[0].byteOffset] ^= 0x01;
    domain.noteCorruption();
    DecompressorModel m = f.model(cfg);
    LineFill fill = m.handleMiss(kTextBase, 0);
    Cycle lat = cfg.eccCheckCycles + cfg.eccCorrectCycles;
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], base.wordReady[w] + lat);
    EXPECT_EQ(domain.stats().corrected, 1u);
    EXPECT_FALSE(m.softError());
}

TEST(DecompTiming, RepairedBlockRefetchPaysCorrectLatency)
{
    Fixture base_f;
    LineFill base =
        base_f.model(DecompressorConfig{}).handleMiss(kTextBase, 0);

    Fixture f;
    protectImage(f.img, ProtectKind::SecDed);
    SoftErrorDomain domain(f.img, /*seed=*/3, /*flip_rate_ppm=*/0, 2);
    DecompressorConfig cfg;
    cfg.protect = ProtectKind::SecDed;
    cfg.softErrorDomain = &domain;
    DecompressorModel m = f.model(cfg);

    // Block 0 misses clean, filling the model's geometry memo.
    LineFill clean = m.handleMiss(kTextBase, 0);
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(clean.wordReady[w],
                  base.wordReady[w] + cfg.eccCheckCycles);

    // Upset the block in memory. The next miss repairs it in place,
    // drops the memo entry and re-decodes the repaired bytes: the
    // timing is the clean timing plus the correction pass.
    f.img.bytes[f.img.blocks[0].byteOffset] ^= 0x01;
    domain.noteCorruption();
    m.reset(); // empty the output buffer so block 0 misses again
    const Cycle later = 1000; // the channel has long gone idle
    LineFill fill = m.handleMiss(kTextBase, later);
    Cycle lat = cfg.eccCheckCycles + cfg.eccCorrectCycles;
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(fill.wordReady[w], later + base.wordReady[w] + lat)
            << "word " << w;
    EXPECT_EQ(domain.stats().corrected, 1u);
    EXPECT_FALSE(m.softError());
}

TEST(DecompTiming, UnrecoverableUpsetLatchesSoftError)
{
    Fixture f;
    protectImage(f.img, ProtectKind::Crc8);
    SoftErrorDomain domain(f.img, /*seed=*/3, /*flip_rate_ppm=*/0, 1);
    DecompressorConfig cfg;
    cfg.protect = ProtectKind::Crc8;
    cfg.softErrorDomain = &domain;
    // Same upset in the working copy and the refetch source: CRC-8
    // detects on every retry and the model must refuse the block.
    f.img.bytes[f.img.blocks[0].byteOffset] ^= 0x01;
    domain.corruptBacking(0, 0);
    domain.noteCorruption();
    DecompressorModel m = f.model(cfg);
    LineFill fill = m.handleMiss(kTextBase, 0);
    EXPECT_TRUE(m.softError());
    EXPECT_NE(m.softErrorDetail().describe().find("group 0 block 0"),
              std::string::npos)
        << m.softErrorDetail().describe();
    // The fill is still finite so the pipeline drains; the machine
    // layer condemns the run to RunStatus::DecodeFault afterwards.
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_GT(fill.wordReady[w], 0u);
    EXPECT_EQ(domain.stats().unrecoverable, 1u);
}


/** Model invariants must hold for every bus width. */
class DecompTimingBusSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DecompTimingBusSweep, InvariantsHoldAcrossBusWidths)
{
    Fixture f;
    f.mem.setTiming(MemTimingConfig{GetParam(), 10, 2});
    DecompressorModel m = f.model(DecompressorConfig{});

    Cycle now = 0;
    for (u32 line = 0; line < 8; ++line) {
        LineFill fill = m.handleMiss(kTextBase + line * 32, now);
        // Serial decode: word availability is non-decreasing within a
        // non-buffer fill, and every word is ready no earlier than the
        // request.
        for (unsigned w = 0; w < kLineWords; ++w) {
            EXPECT_GE(fill.wordReady[w], now);
            if (w > 0 && !fill.fromBuffer) {
                EXPECT_GE(fill.wordReady[w], fill.wordReady[w - 1]);
            }
            EXPECT_LE(fill.wordReady[w], fill.fillDone);
        }
        // Alternating lines of a block hit the output buffer.
        EXPECT_EQ(fill.fromBuffer, line % 2 == 1);
        now = fill.fillDone + 50;
    }
}

INSTANTIATE_TEST_SUITE_P(BusWidths, DecompTimingBusSweep,
                         ::testing::Values(16u, 32u, 64u, 128u));

/** Wider decode never delivers any word later. */
class DecompTimingRateSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DecompTimingRateSweep, MoreDecodersNeverSlower)
{
    Fixture base_f, fast_f;
    DecompressorConfig base_cfg;
    base_cfg.perfectIndexCache = true;
    DecompressorConfig fast_cfg = base_cfg;
    fast_cfg.decodeRate = GetParam();
    DecompressorModel base = base_f.model(base_cfg);
    DecompressorModel fast = fast_f.model(fast_cfg);
    LineFill a = base.handleMiss(kTextBase, 0);
    LineFill b = fast.handleMiss(kTextBase, 0);
    for (unsigned w = 0; w < kLineWords; ++w)
        EXPECT_LE(b.wordReady[w], a.wordReady[w]) << "word " << w;
}

INSTANTIATE_TEST_SUITE_P(Rates, DecompTimingRateSweep,
                         ::testing::Values(2u, 4u, 8u, 16u));

} // namespace
} // namespace codepack
} // namespace cps
