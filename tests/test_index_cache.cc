/**
 * @file
 * Index-cache tests (the structure behind the paper's Tables 6 and 7).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/index_cache.hh"
#include "common/rng.hh"

namespace cps
{
namespace
{

TEST(IndexCache, BaselineCachesLastEntryOnly)
{
    IndexCache ic(1, 1); // the paper's baseline CodePack
    EXPECT_FALSE(ic.access(5));
    ic.fill(5);
    EXPECT_TRUE(ic.access(5));
    ic.fill(6);
    EXPECT_TRUE(ic.access(6));
    EXPECT_FALSE(ic.access(5)); // displaced
}

TEST(IndexCache, LineCoversConsecutiveGroups)
{
    IndexCache ic(1, 4);
    ic.fill(8); // covers groups 8..11
    EXPECT_TRUE(ic.access(8));
    EXPECT_TRUE(ic.access(9));
    EXPECT_TRUE(ic.access(11));
    EXPECT_FALSE(ic.access(12));
    EXPECT_FALSE(ic.access(7));
}

TEST(IndexCache, LineAlignmentIsByTag)
{
    IndexCache ic(1, 4);
    ic.fill(10); // tag 2 -> groups 8..11
    EXPECT_TRUE(ic.access(8));
    EXPECT_TRUE(ic.access(11));
}

TEST(IndexCache, FullyAssociativeLru)
{
    IndexCache ic(2, 1);
    ic.fill(1);
    ic.fill(2);
    EXPECT_TRUE(ic.access(1)); // refresh 1
    ic.fill(3);                // evicts 2
    EXPECT_TRUE(ic.access(1));
    EXPECT_FALSE(ic.access(2));
    EXPECT_TRUE(ic.access(3));
}

TEST(IndexCache, OptimizedGeometryBytes)
{
    // The paper: a 64-line x 4-index cache holds 1KB of index entries.
    IndexCache ic(64, 4);
    EXPECT_EQ(ic.dataBytes(), 1024u);
    EXPECT_EQ(ic.numLines(), 64u);
    EXPECT_EQ(ic.indexesPerLine(), 4u);
}

TEST(IndexCache, InvalidateAll)
{
    IndexCache ic(4, 2);
    ic.fill(0);
    ic.fill(2);
    ic.invalidateAll();
    EXPECT_FALSE(ic.access(0));
    EXPECT_FALSE(ic.access(2));
}

/** Table 6 sweep shapes: bigger caches and longer lines miss less on a
 *  sequential group walk with periodic revisits. */
class IndexCacheSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(IndexCacheSweep, SequentialWalkMissRatio)
{
    auto [lines, per_line] = GetParam();
    IndexCache ic(lines, per_line);
    u64 misses = 0, accesses = 0;
    // Walk 4096 groups sequentially (the common I-stream pattern).
    for (u32 g = 0; g < 4096; ++g) {
        ++accesses;
        if (!ic.access(g)) {
            ++misses;
            ic.fill(g);
        }
    }
    // Sequential walk misses exactly once per line worth of groups.
    EXPECT_EQ(misses, 4096u / per_line);
    (void)accesses;
}

INSTANTIATE_TEST_SUITE_P(
    Table6Geometries, IndexCacheSweep,
    ::testing::Combine(::testing::Values(4u, 16u, 32u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(IndexCache, CapacityRetainsWorkingSet)
{
    IndexCache ic(64, 4); // maps 256 groups
    for (u32 g = 0; g < 256; ++g) {
        if (!ic.access(g))
            ic.fill(g);
    }
    // The whole working set is now resident.
    for (u32 g = 0; g < 256; ++g)
        EXPECT_TRUE(ic.access(g)) << g;
}

TEST(IndexCache, FifoIgnoresAccessRecency)
{
    // Under LRU, touching line 1 protects it from the next eviction;
    // under FIFO it is still the oldest fill and goes first.
    IndexCache lru(2, 1, IndexReplacement::Lru);
    lru.fill(1);
    lru.fill(2);
    EXPECT_TRUE(lru.access(1));
    lru.fill(3); // evicts 2
    EXPECT_TRUE(lru.access(1));
    EXPECT_FALSE(lru.access(2));

    IndexCache fifo(2, 1, IndexReplacement::Fifo);
    fifo.fill(1);
    fifo.fill(2);
    EXPECT_TRUE(fifo.access(1));
    fifo.fill(3); // evicts 1 despite the touch
    EXPECT_FALSE(fifo.access(1));
    EXPECT_TRUE(fifo.access(2));
    EXPECT_TRUE(fifo.access(3));
}

TEST(IndexCache, RandomReplacementIsDeterministic)
{
    // Two caches with the same seed replay identical victim sequences,
    // and invalidateAll() rewinds the sequence.
    auto missPattern = [](IndexCache &ic) {
        std::vector<bool> hits;
        for (u32 g = 0; g < 512; ++g) {
            u32 group = (g * 7) % 97;
            bool hit = ic.access(group);
            hits.push_back(hit);
            if (!hit)
                ic.fill(group);
        }
        return hits;
    };
    IndexCache a(8, 1, IndexReplacement::Random);
    IndexCache b(8, 1, IndexReplacement::Random);
    std::vector<bool> first = missPattern(a);
    EXPECT_EQ(first, missPattern(b));
    a.invalidateAll();
    EXPECT_EQ(first, missPattern(a));
}

TEST(IndexCache, SetAssociativePartitionsByTag)
{
    // 4 lines in 2 sets: tags 0,2,4,... compete for one set and
    // 1,3,5,... for the other. Three even tags overflow their 2-way
    // set even though an odd-set way is idle.
    IndexCache ic(4, 1, IndexReplacement::Lru, 2);
    EXPECT_EQ(ic.numSets(), 2u);
    ic.fill(0);
    ic.fill(2);
    ic.fill(1); // other set, must not relieve the even set
    ic.fill(4); // evicts 0 (LRU within the even set)
    EXPECT_FALSE(ic.access(0));
    EXPECT_TRUE(ic.access(2));
    EXPECT_TRUE(ic.access(4));
    EXPECT_TRUE(ic.access(1));
}

TEST(IndexCache, FullyAssociativeDefaultUnchangedBySets)
{
    // sets=1 must behave exactly like the original fully-associative
    // cache on a capacity-conflict pattern.
    IndexCache flat(4, 1);
    IndexCache one_set(4, 1, IndexReplacement::Lru, 1);
    for (u32 g = 0; g < 64; ++g) {
        u32 group = (g * 5) % 11;
        bool h1 = flat.access(group);
        bool h2 = one_set.access(group);
        ASSERT_EQ(h1, h2) << "step " << g;
        if (!h1) {
            flat.fill(group);
            one_set.fill(group);
        }
    }
}

/** Seeded random group stream: mostly a hot region, some far jumps. */
std::vector<u32>
randomGroups(u64 seed, size_t count)
{
    Rng rng(seed);
    std::vector<u32> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(static_cast<u32>(rng.below(4) == 0 ? rng.below(4096)
                                                         : rng.below(96)));
    return out;
}

/** Nested loops: a body of @p body groups re-walked, drifting slowly. */
std::vector<u32>
loopingGroups(u32 body, size_t count)
{
    std::vector<u32> out;
    out.reserve(count);
    for (u32 base = 0; out.size() < count; base += body / 3 + 1)
        for (unsigned pass = 0; pass < 4 && out.size() < count; ++pass)
            for (u32 g = 0; g < body && out.size() < count; ++g)
                out.push_back(base + g);
    return out;
}

TEST(IndexCache, LruStackInclusion)
{
    // LRU is a stack algorithm: on the same demand-filled stream, the
    // lines a fully-associative LRU cache holds are always a subset of
    // what a larger one holds, so the larger cache hits wherever the
    // smaller one does.
    std::vector<std::vector<u32>> streams;
    for (u64 seed : {1ull, 7ull, 0x1dc0ull})
        streams.push_back(randomGroups(seed, 6000));
    for (u32 body : {5u, 31u, 64u, 130u, 257u})
        streams.push_back(loopingGroups(body, 6000));

    const unsigned sizes[] = {1, 2, 3, 4, 8, 16, 33, 64, 128, 512};
    for (unsigned per_line : {1u, 4u}) {
        for (size_t si = 0; si < streams.size(); ++si) {
            std::vector<IndexCache> caches;
            for (unsigned lines : sizes)
                caches.emplace_back(lines, per_line);
            std::vector<u64> hits(caches.size(), 0);
            for (size_t step = 0; step < streams[si].size(); ++step) {
                u32 group = streams[si][step];
                bool smaller_hit = false;
                for (size_t c = 0; c < caches.size(); ++c) {
                    bool hit = caches[c].access(group);
                    if (!hit)
                        caches[c].fill(group);
                    ASSERT_TRUE(hit || !smaller_hit)
                        << "stream " << si << " step " << step << ": "
                        << sizes[c] << " lines missed where "
                        << sizes[c - 1] << " hit (per_line " << per_line
                        << ")";
                    smaller_hit = hit;
                    hits[c] += hit;
                }
            }
            // The property has teeth only if the sizes actually differ.
            EXPECT_LT(hits.front(), hits.back()) << "stream " << si;
        }
    }
}

} // namespace
} // namespace cps
