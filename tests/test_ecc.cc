/**
 * @file
 * Unit tests for the soft-error protection codes (SEC-DED Hamming,
 * CRC-8/16 block checks) and the once-per-process env-knob warning.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/ecc.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace cps
{
namespace
{

/** Scoped environment override, restored on destruction. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(ProtectKind, NamesRoundTrip)
{
    for (unsigned k = 0; k < kNumProtectKinds; ++k) {
        ProtectKind kind = static_cast<ProtectKind>(k);
        ProtectKind parsed;
        ASSERT_TRUE(parseProtectKind(protectKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    ProtectKind parsed;
    EXPECT_TRUE(parseProtectKind("none", parsed));
    EXPECT_EQ(parsed, ProtectKind::None);
    EXPECT_TRUE(parseProtectKind("0", parsed));
    EXPECT_EQ(parsed, ProtectKind::None);
    EXPECT_FALSE(parseProtectKind("hamming", parsed));
    EXPECT_FALSE(parseProtectKind("", parsed));
}

TEST(ProtectKind, DefaultReadsEnvAfresh)
{
    {
        EnvGuard guard("CPS_ECC", nullptr);
        EXPECT_EQ(defaultProtectKind(), ProtectKind::None);
    }
    {
        EnvGuard guard("CPS_ECC", "secded");
        EXPECT_EQ(defaultProtectKind(), ProtectKind::SecDed);
    }
    {
        EnvGuard guard("CPS_ECC", "crc16");
        EXPECT_EQ(defaultProtectKind(), ProtectKind::Crc16);
    }
    {
        // Malformed: warns (once per process) and falls back to None.
        EnvGuard guard("CPS_ECC", "bogus");
        unsigned long before = warnCount();
        EXPECT_EQ(defaultProtectKind(), ProtectKind::None);
        EXPECT_EQ(defaultProtectKind(), ProtectKind::None);
        EXPECT_EQ(warnCount(), before + 1);
    }
}

TEST(EnvWarnOnce, WarnsOncePerName)
{
    unsigned long before = warnCount();
    envWarnOnce("CPS_TEST_KNOB_A", "junk", "an integer");
    envWarnOnce("CPS_TEST_KNOB_A", "junk", "an integer");
    envWarnOnce("CPS_TEST_KNOB_A", "other-junk", "an integer");
    EXPECT_EQ(warnCount(), before + 1);
    envWarnOnce("CPS_TEST_KNOB_B", "junk", "an integer");
    EXPECT_EQ(warnCount(), before + 2);
}

TEST(EnvWarnOnce, EnvUnsignedRejectsTrailingJunk)
{
    EnvGuard g("CPS_TEST_KNOB_JUNK", "1e3");
    unsigned long before = warnCount();
    EXPECT_EQ(envUnsigned("CPS_TEST_KNOB_JUNK", 600, 1, 1000, "n"), 600u);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(EnvWarnOnce, EnvUnsignedRejectsOutOfRange)
{
    EnvGuard g("CPS_TEST_KNOB_RANGE", "0");
    unsigned long before = warnCount();
    EXPECT_EQ(envUnsigned("CPS_TEST_KNOB_RANGE", 7, 1, 1024, "n"), 7u);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(EnvWarnOnce, EnvUnsignedAcceptsValidValue)
{
    EnvGuard g("CPS_TEST_KNOB_VALID", "1024");
    unsigned long before = warnCount();
    EXPECT_EQ(envUnsigned("CPS_TEST_KNOB_VALID", 7, 1, 1024, "n"), 1024u);
    EXPECT_EQ(warnCount(), before);
}

TEST(Crc, KnownVectors)
{
    // CRC-8 poly 0x07 of "123456789" is 0xF4; CRC-16/CCITT-FALSE of the
    // same string is 0x29B1 (the standard check values).
    const u8 msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc8(msg, sizeof(msg)), 0xF4);
    EXPECT_EQ(crc16(msg, sizeof(msg)), 0x29B1);
}

TEST(Crc, DetectsEverySingleBitFlip)
{
    Rng rng(1);
    std::vector<u8> data(37);
    for (u8 &b : data)
        b = static_cast<u8>(rng.next());
    const u8 c8 = crc8(data.data(), data.size());
    const u16 c16 = crc16(data.data(), data.size());
    for (size_t bit = 0; bit < data.size() * 8; ++bit) {
        data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        EXPECT_NE(crc8(data.data(), data.size()), c8) << "bit " << bit;
        EXPECT_NE(crc16(data.data(), data.size()), c16) << "bit " << bit;
        data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    }
}

TEST(Crc, DetectsAdjacentDoubleFlips)
{
    // The runtime BurstError fault is exactly two adjacent flipped
    // bits; any CRC with (1+x) | poly catches all bursts <= width.
    Rng rng(2);
    std::vector<u8> data(64);
    for (u8 &b : data)
        b = static_cast<u8>(rng.next());
    const u8 c8 = crc8(data.data(), data.size());
    const u16 c16 = crc16(data.data(), data.size());
    for (size_t bit = 0; bit + 1 < data.size() * 8; ++bit) {
        data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        data[(bit + 1) / 8] ^= static_cast<u8>(1u << ((bit + 1) % 8));
        EXPECT_NE(crc8(data.data(), data.size()), c8) << "bit " << bit;
        EXPECT_NE(crc16(data.data(), data.size()), c16) << "bit " << bit;
        data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        data[(bit + 1) / 8] ^= static_cast<u8>(1u << ((bit + 1) % 8));
    }
}

TEST(SecDed, CleanWordPasses)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        u64 data = rng.next();
        u8 check = secDedEncode(data);
        u64 got = data;
        u8 c = check;
        EXPECT_EQ(secDedCorrect(got, c), EccOutcome::Clean);
        EXPECT_EQ(got, data);
        EXPECT_EQ(c, check);
    }
}

TEST(SecDed, CorrectsEverySingleDataBit)
{
    Rng rng(4);
    for (int i = 0; i < 32; ++i) {
        u64 data = rng.next();
        u8 check = secDedEncode(data);
        for (unsigned bit = 0; bit < 64; ++bit) {
            u64 got = data ^ (u64{1} << bit);
            u8 c = check;
            EXPECT_EQ(secDedCorrect(got, c), EccOutcome::Corrected);
            EXPECT_EQ(got, data) << "bit " << bit;
            EXPECT_EQ(c, check) << "bit " << bit;
        }
    }
}

TEST(SecDed, CorrectsEverySingleCheckBit)
{
    Rng rng(5);
    for (int i = 0; i < 32; ++i) {
        u64 data = rng.next();
        u8 check = secDedEncode(data);
        for (unsigned bit = 0; bit < 8; ++bit) {
            u64 got = data;
            u8 c = static_cast<u8>(check ^ (1u << bit));
            EXPECT_EQ(secDedCorrect(got, c), EccOutcome::Corrected);
            EXPECT_EQ(got, data) << "check bit " << bit;
            EXPECT_EQ(c, check) << "check bit " << bit;
        }
    }
}

TEST(SecDed, DetectsEveryDoubleBitError)
{
    // The 72-bit codeword has C(72,2) = 2556 double-error patterns;
    // sweep them all for a handful of words. None may be miscorrected
    // back to "Clean" or "Corrected" — that would be silent corruption.
    Rng rng(6);
    for (int i = 0; i < 4; ++i) {
        u64 data = rng.next();
        u8 check = secDedEncode(data);
        for (unsigned a = 0; a < 72; ++a) {
            for (unsigned b = a + 1; b < 72; ++b) {
                u64 got = data;
                u8 c = check;
                if (a < 64)
                    got ^= u64{1} << a;
                else
                    c = static_cast<u8>(c ^ (1u << (a - 64)));
                if (b < 64)
                    got ^= u64{1} << b;
                else
                    c = static_cast<u8>(c ^ (1u << (b - 64)));
                EXPECT_EQ(secDedCorrect(got, c), EccOutcome::Detected)
                    << "bits " << a << "," << b;
            }
        }
    }
}

TEST(BlockCheck, SizesMatchKind)
{
    EXPECT_EQ(blockCheckBytes(ProtectKind::None, 64), 0u);
    EXPECT_EQ(blockCheckBytes(ProtectKind::Crc8, 64), 1u);
    EXPECT_EQ(blockCheckBytes(ProtectKind::Crc16, 64), 2u);
    EXPECT_EQ(blockCheckBytes(ProtectKind::SecDed, 64), 8u);
    EXPECT_EQ(blockCheckBytes(ProtectKind::SecDed, 1), 1u);
    EXPECT_EQ(blockCheckBytes(ProtectKind::SecDed, 9), 2u);
    EXPECT_EQ(indexCheckBytes(ProtectKind::None), 0u);
    EXPECT_EQ(indexCheckBytes(ProtectKind::Crc8), 1u);
    EXPECT_EQ(indexCheckBytes(ProtectKind::Crc16), 2u);
    EXPECT_EQ(indexCheckBytes(ProtectKind::SecDed), 1u);
}

TEST(BlockCheck, CleanRoundTripAllKinds)
{
    Rng rng(7);
    for (size_t len : {1u, 7u, 8u, 9u, 33u, 64u}) {
        std::vector<u8> data(len);
        for (u8 &b : data)
            b = static_cast<u8>(rng.next());
        for (unsigned k = 0; k < kNumProtectKinds; ++k) {
            ProtectKind kind = static_cast<ProtectKind>(k);
            std::vector<u8> check(blockCheckBytes(kind, len));
            computeBlockCheck(kind, data.data(), len, check.data());
            std::vector<u8> got = data;
            EXPECT_EQ(checkBlock(kind, got.data(), len, check.data()),
                      EccOutcome::Clean);
            EXPECT_EQ(got, data);
        }
    }
}

TEST(BlockCheck, SecDedCorrectsSingleBitAnywhere)
{
    Rng rng(8);
    for (size_t len : {8u, 9u, 24u, 61u}) {
        std::vector<u8> data(len);
        for (u8 &b : data)
            b = static_cast<u8>(rng.next());
        std::vector<u8> check(blockCheckBytes(ProtectKind::SecDed, len));
        computeBlockCheck(ProtectKind::SecDed, data.data(), len,
                          check.data());
        for (size_t bit = 0; bit < len * 8; ++bit) {
            std::vector<u8> got = data;
            got[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
            unsigned corrected = 0;
            EXPECT_EQ(checkBlock(ProtectKind::SecDed, got.data(), len,
                                 check.data(), &corrected),
                      EccOutcome::Corrected)
                << "len " << len << " bit " << bit;
            EXPECT_EQ(corrected, 1u);
            EXPECT_EQ(got, data);
        }
    }
}

TEST(BlockCheck, SecDedCorrectsOneBitPerWord)
{
    // Independent words carry independent code words: one flip in each
    // of three words is three corrections, not an uncorrectable error.
    Rng rng(9);
    std::vector<u8> data(24);
    for (u8 &b : data)
        b = static_cast<u8>(rng.next());
    std::vector<u8> check(blockCheckBytes(ProtectKind::SecDed, 24));
    computeBlockCheck(ProtectKind::SecDed, data.data(), 24, check.data());
    std::vector<u8> got = data;
    got[3] ^= 0x10;
    got[11] ^= 0x01;
    got[20] ^= 0x80;
    unsigned corrected = 0;
    EXPECT_EQ(checkBlock(ProtectKind::SecDed, got.data(), 24, check.data(),
                         &corrected),
              EccOutcome::Corrected);
    EXPECT_EQ(corrected, 3u);
    EXPECT_EQ(got, data);
}

TEST(BlockCheck, SecDedDetectsDoubleBitInOneWord)
{
    Rng rng(10);
    std::vector<u8> data(16);
    for (u8 &b : data)
        b = static_cast<u8>(rng.next());
    std::vector<u8> check(blockCheckBytes(ProtectKind::SecDed, 16));
    computeBlockCheck(ProtectKind::SecDed, data.data(), 16, check.data());
    std::vector<u8> got = data;
    got[4] ^= 0x03; // two adjacent bits in the same 64-bit word
    std::vector<u8> before = got;
    EXPECT_EQ(checkBlock(ProtectKind::SecDed, got.data(), 16, check.data()),
              EccOutcome::Detected);
}

TEST(BlockCheck, SecDedPaddingAliasDetected)
{
    // A syndrome pointing into the zero padding of a partial final word
    // cannot be a real single-bit flip (those bits are not stored), so
    // it must surface as Detected, never as a "correction" that writes
    // out of bounds. Forge one by encoding a word with a padding bit
    // set, then presenting the truncated buffer.
    u64 word = 0x0123456789ABCDEFull;
    const size_t len = 5; // 3 padding bytes in the final word
    u64 padded = word & 0x000000FFFFFFFFFFull;
    u64 alias = padded | (u64{1} << 47); // a bit the buffer cannot hold
    u8 check = secDedEncode(alias);
    std::vector<u8> data(len);
    for (size_t i = 0; i < len; ++i)
        data[i] = static_cast<u8>(padded >> (8 * i));
    std::vector<u8> before = data;
    EXPECT_EQ(checkBlock(ProtectKind::SecDed, data.data(), len, &check),
              EccOutcome::Detected);
    EXPECT_EQ(data, before);
}

TEST(IndexCheck, CleanAndSingleBitAllKinds)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        u32 entry = static_cast<u32>(rng.next());
        for (unsigned k = 1; k < kNumProtectKinds; ++k) {
            ProtectKind kind = static_cast<ProtectKind>(k);
            u8 check[2] = {0, 0};
            computeIndexCheck(kind, entry, check);
            u32 got = entry;
            EXPECT_EQ(checkIndexEntry(kind, got, check), EccOutcome::Clean);
            EXPECT_EQ(got, entry);
            for (unsigned bit = 0; bit < 32; ++bit) {
                got = entry ^ (1u << bit);
                EccOutcome r = checkIndexEntry(kind, got, check);
                if (kind == ProtectKind::SecDed) {
                    EXPECT_EQ(r, EccOutcome::Corrected) << "bit " << bit;
                    EXPECT_EQ(got, entry) << "bit " << bit;
                } else {
                    EXPECT_EQ(r, EccOutcome::Detected) << "bit " << bit;
                }
            }
        }
    }
}

TEST(IndexCheck, SecDedDetectsDoubleBit)
{
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        u32 entry = static_cast<u32>(rng.next());
        u8 check[1];
        computeIndexCheck(ProtectKind::SecDed, entry, check);
        for (unsigned a = 0; a < 32; ++a) {
            u32 got = entry ^ (1u << a) ^ (1u << ((a + 1) % 32));
            EXPECT_EQ(checkIndexEntry(ProtectKind::SecDed, got, check),
                      EccOutcome::Detected)
                << "bits " << a << "," << (a + 1) % 32;
        }
    }
}

} // namespace
} // namespace cps
