#include "dictionary.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cps
{
namespace codepack
{

Dictionary::Dictionary(Kind kind)
    : kind_(kind),
      banks_(kind == Kind::High ? kHighBanks : kLowBanks),
      numBanks_(kind == Kind::High ? kNumHighBanks : kNumLowBanks)
{
    entries_.resize(numBanks_);
    buildLut();
}

Dictionary
Dictionary::build(Kind kind, const std::unordered_map<u16, u64> &counts)
{
    Dictionary dict(kind);

    std::vector<std::pair<u16, u64>> ranked;
    ranked.reserve(counts.size());
    for (const auto &kv : counts) {
        if (kind == Kind::Low && kv.first == 0)
            continue; // the zero value has its own codeword
        ranked.emplace_back(kv.first, kv.second);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });

    constexpr unsigned raw_bits = 3 + kRawLiteralBits;
    size_t cursor = 0;
    for (unsigned b = 0; b < dict.numBanks_ && cursor < ranked.size(); ++b) {
        const Bank &bank = dict.banks_[b];
        unsigned code_bits = bank.codeBits();
        while (dict.entries_[b].size() < bank.entries() &&
               cursor < ranked.size()) {
            auto [value, count] = ranked[cursor];
            // Admission test: stream savings must beat the 16 bits of
            // dictionary storage the entry costs.
            if (count * (raw_bits - code_bits) <= 16)
                break; // counts only get smaller from here
            u32 index = static_cast<u32>(dict.entries_[b].size());
            dict.entries_[b].push_back(value);
            HalfEncoding enc;
            enc.bank = b;
            enc.index = index;
            enc.tagBits = bank.tagBits;
            enc.tag = bank.tag;
            enc.indexBits = bank.indexBits;
            dict.lookup_[value] = enc;
            ++cursor;
        }
    }
    dict.buildLut();
    return dict;
}

Dictionary
Dictionary::fromBankEntries(Kind kind,
                            const std::vector<std::vector<u16>> &entries)
{
    Dictionary dict(kind);
    cps_assert(entries.size() == dict.numBanks_,
               "expected %u banks, got %zu", dict.numBanks_,
               entries.size());
    for (unsigned b = 0; b < dict.numBanks_; ++b) {
        const Bank &bank = dict.banks_[b];
        cps_assert(entries[b].size() <= bank.entries(),
                   "bank %u overpopulated: %zu > %u", b,
                   entries[b].size(), bank.entries());
        dict.entries_[b] = entries[b];
        for (u32 i = 0; i < entries[b].size(); ++i) {
            HalfEncoding enc;
            enc.bank = b;
            enc.index = i;
            enc.tagBits = bank.tagBits;
            enc.tag = bank.tag;
            enc.indexBits = bank.indexBits;
            dict.lookup_[entries[b][i]] = enc;
        }
    }
    dict.buildLut();
    return dict;
}

unsigned
Dictionary::totalEntries() const
{
    unsigned n = 0;
    for (const auto &bank : entries_)
        n += static_cast<unsigned>(bank.size());
    return n;
}

HalfEncoding
Dictionary::encode(u16 half) const
{
    if (kind_ == Kind::Low && half == 0) {
        HalfEncoding enc;
        enc.zeroSpecial = true;
        enc.tagBits = kLowZeroBits;
        enc.tag = kTag0;
        return enc;
    }
    auto it = lookup_.find(half);
    if (it != lookup_.end())
        return it->second;
    HalfEncoding enc;
    enc.raw = true;
    enc.tagBits = 3;
    enc.tag = kTagRaw;
    enc.indexBits = kRawLiteralBits;
    return enc;
}

u16
Dictionary::lookup(unsigned bank, u32 index) const
{
    cps_assert(bank < numBanks_, "dictionary bank out of range");
    cps_assert(index < entries_[bank].size(),
               "dictionary index %u beyond bank %u population %zu", index,
               bank, entries_[bank].size());
    return entries_[bank][index];
}

void
Dictionary::write(BitWriter &bw, u16 half) const
{
    writeEncoded(bw, encode(half), half);
}

u16
Dictionary::read(BitReader &br) const
{
    // Tags are prefix-free: 00 / 01 / 10 are complete after 2 bits;
    // 11x needs a third bit to split the long bank from the raw escape.
    u32 two = br.get(2);
    if (two == 0b11) {
        u32 third = br.get(1);
        if (third == 1)
            return static_cast<u16>(br.get(kRawLiteralBits)); // raw
        // kTag3 bank: the last bank of either dictionary.
        unsigned bank = numBanks_ - 1;
        u32 index = br.get(banks_[bank].indexBits);
        return lookup(bank, index);
    }
    if (kind_ == Kind::Low) {
        if (two == kTag0)
            return 0; // the special zero codeword
        unsigned bank = (two == kTag1) ? 0 : 1;
        u32 index = br.get(banks_[bank].indexBits);
        return lookup(bank, index);
    }
    // High dictionary: banks 0..2 map straight onto the 2-bit tags.
    unsigned bank = two;
    u32 index = br.get(banks_[bank].indexBits);
    return lookup(bank, index);
}

void
Dictionary::buildLut()
{
    lut_.assign(1u << kLutBits, lutEntry(0, 0, kLutInvalid));
    // Every pattern whose top bits match `code` (length `len`) resolves
    // to `entry`: fill all 2^(kLutBits-len) suffix slots.
    auto fill = [&](u32 code, unsigned len, u32 entry) {
        unsigned shift = kLutBits - len;
        u32 base = code << shift;
        for (u32 s = 0; s < (1u << shift); ++s)
            lut_[base + s] = entry;
    };

    fill(kTagRaw, 3, lutEntry(0, 3, kLutRaw));
    if (kind_ == Kind::Low)
        fill(kTag0, kLowZeroBits, lutEntry(0, kLowZeroBits, kLutValue));
    for (unsigned b = 0; b < numBanks_; ++b) {
        const Bank &bank = banks_[b];
        unsigned len = bank.codeBits();
        for (u32 i = 0; i < bank.entries(); ++i) {
            u32 code = (bank.tag << bank.indexBits) | i;
            // Indexes beyond the bank's population are encodable bit
            // patterns that no valid stream contains; they go to the
            // checked path for its RangeError.
            u32 entry = i < entries_[b].size()
                            ? lutEntry(entries_[b][i], len, kLutValue)
                            : lutEntry(0, len, kLutInvalid);
            fill(code, len, entry);
        }
    }
}

Result<u16>
Dictionary::tryRead(BitReader &br) const
{
    // Mirrors read() exactly, but every get() is a checked tryRead and
    // every lookup is range-checked: this is the path fed by images we
    // did not produce ourselves.
    auto underrun = [&]() {
        return decodeErrorAtBit(DecodeStatus::Truncated, br.bitPos(),
                                "codeword truncated: %s dictionary "
                                "needed more bits",
                                kind_ == Kind::High ? "high" : "low");
    };
    auto checkedLookup = [&](unsigned bank, u32 index) -> Result<u16> {
        if (index >= entries_[bank].size())
            return decodeErrorAtBit(
                DecodeStatus::RangeError, br.bitPos(),
                "%s dictionary bank %u index %u beyond population %zu",
                kind_ == Kind::High ? "high" : "low", bank, index,
                entries_[bank].size());
        return entries_[bank][index];
    };

    u32 two = 0;
    if (!br.tryRead(2, two))
        return underrun();
    if (two == 0b11) {
        u32 third = 0;
        if (!br.tryRead(1, third))
            return underrun();
        if (third == 1) {
            u32 raw = 0;
            if (!br.tryRead(kRawLiteralBits, raw))
                return underrun();
            return static_cast<u16>(raw);
        }
        unsigned bank = numBanks_ - 1;
        u32 index = 0;
        if (!br.tryRead(banks_[bank].indexBits, index))
            return underrun();
        return checkedLookup(bank, index);
    }
    unsigned bank;
    if (kind_ == Kind::Low) {
        if (two == kTag0)
            return static_cast<u16>(0);
        bank = (two == kTag1) ? 0 : 1;
    } else {
        bank = two;
    }
    u32 index = 0;
    if (!br.tryRead(banks_[bank].indexBits, index))
        return underrun();
    return checkedLookup(bank, index);
}

const std::vector<u16> &
Dictionary::bankEntries(unsigned bank) const
{
    cps_assert(bank < numBanks_, "dictionary bank out of range");
    return entries_[bank];
}

PairLut::PairLut(const Dictionary &high, const Dictionary &low)
{
    constexpr unsigned kLut = Dictionary::kLutBits;
    constexpr u32 kMask = (1u << kBits) - 1;
    lut_.assign(size_t{1} << kBits, 0);
    const u32 *hlut = high.lutData();
    const u32 *llut = low.lutData();
    for (u32 p = 0; p <= kMask; ++p) {
        // The high probe sees the window's top kLutBits bits; every
        // high codeword fits there (max length == kLutBits).
        u32 eh = hlut[p >> (kBits - kLut)];
        if (!Dictionary::lutIsValue(eh))
            continue; // raw escape / unpopulated index: escape slot
        unsigned lh = Dictionary::lutLen(eh);
        u16 hi = Dictionary::lutValue(eh);
        lut_[p] = entry(hi, 0, lh, 1);
        unsigned visible = kBits - lh;
        // The window bits behind the high codeword, zero-padded up to a
        // full low-LUT index. A low codeword no longer than `visible`
        // is unambiguous from those bits alone (prefix-free code), so
        // the padded probe resolves it exactly; longer resolutions are
        // artifacts of the padding and stay single-symbol.
        u32 el = llut[((p << lh) & kMask) >> (kBits - kLut)];
        if (Dictionary::lutIsValue(el) &&
            Dictionary::lutLen(el) <= visible)
            lut_[p] = entry(hi, Dictionary::lutValue(el),
                            lh + Dictionary::lutLen(el), 2);
    }
}

unsigned
PairLut::pairSlots() const
{
    unsigned n = 0;
    for (u64 e : lut_)
        n += symbols(e) == 2;
    return n;
}

} // namespace codepack
} // namespace cps
