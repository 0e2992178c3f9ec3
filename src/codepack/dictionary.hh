/**
 * @file
 * CodePack halfword dictionaries.
 *
 * A dictionary assigns the most frequent 16-bit halfword values of a
 * program's text to short variable-length codewords, bank by bank (the
 * most frequent values land in the bank with the shortest codewords).
 * Dictionaries are fixed at program load time and shipped with the
 * compressed image (their bits are charged to the compressed size, as in
 * the paper's Table 4).
 */

#ifndef CPS_CODEPACK_DICTIONARY_HH
#define CPS_CODEPACK_DICTIONARY_HH

#include <unordered_map>
#include <vector>

#include "common/bitstream.hh"
#include "common/result.hh"
#include "common/types.hh"
#include "format.hh"

namespace cps
{
namespace codepack
{

/** How one halfword value is encoded. */
struct HalfEncoding
{
    bool raw = false;        ///< escape: 3-bit tag + 16 literal bits
    bool zeroSpecial = false; ///< low-half value 0: lone 2-bit tag
    unsigned bank = 0;       ///< dictionary bank (when !raw && !zeroSpecial)
    u32 index = 0;           ///< index within the bank
    unsigned tagBits = 0;
    u32 tag = 0;
    unsigned indexBits = 0;

    unsigned totalBits() const { return tagBits + indexBits; }
};

/** One of the two CodePack dictionaries (high or low halfwords). */
class Dictionary
{
  public:
    /** Which half of the instruction this dictionary serves. */
    enum class Kind { High, Low };

    /** Creates an empty dictionary (every halfword encodes raw). */
    explicit Dictionary(Kind kind);

    /**
     * Builds a dictionary from halfword frequency counts.
     *
     * Values are ranked by descending count (ties broken by value for
     * determinism) and poured into the banks in order. A value is only
     * admitted while doing so shrinks the program: admitting value v to a
     * bank with b-bit codewords saves count*(3+16-b) bits of stream and
     * costs 16 bits of dictionary storage.
     *
     * For Kind::Low the value 0 is never stored: it always has the
     * special 2-bit codeword.
     */
    static Dictionary build(Kind kind,
                            const std::unordered_map<u16, u64> &counts);

    /**
     * Reconstructs a dictionary from explicit per-bank entry lists
     * (deserialization). Bank populations must fit the bank widths.
     */
    static Dictionary fromBankEntries(
        Kind kind, const std::vector<std::vector<u16>> &entries);

    Kind kind() const { return kind_; }

    /** Number of banks (4 for high, 3 for low). */
    unsigned numBanks() const { return numBanks_; }

    /** The bank descriptors for this dictionary's kind. */
    const Bank *banks() const { return banks_; }

    /** Total entries stored across banks. */
    unsigned totalEntries() const;

    /** Bits of on-chip storage for the dictionary contents (16/entry). */
    u64 storageBits() const { return u64{totalEntries()} * 16; }

    /** How @p half would be encoded by this dictionary. */
    HalfEncoding encode(u16 half) const;

    /** The halfword stored at (@p bank, @p index). */
    u16 lookup(unsigned bank, u32 index) const;

    /** Appends the codeword for @p half to @p bw. */
    void write(BitWriter &bw, u16 half) const;

    /**
     * Appends the codeword for @p half when its encoding @p enc is
     * already in hand (the compressor's match loop resolves the
     * encoding once for both the accounting and the emit).
     */
    static void
    writeEncoded(BitWriter &bw, const HalfEncoding &enc, u16 half)
    {
        bw.put(enc.tag, enc.tagBits);
        if (enc.zeroSpecial)
            return;
        if (enc.raw) {
            bw.put(half, kRawLiteralBits);
            return;
        }
        bw.put(enc.index, enc.indexBits);
    }

    /** Decodes one halfword from @p br (tag first, then index/raw). */
    u16 read(BitReader &br) const;

    /**
     * Single-pass LUT decode for trusted streams: peeks kLutBits bits
     * and resolves {value, codeword length} in one table hit (a raw
     * escape costs one extra 16-bit read). Returns false — consuming
     * nothing — when the stream needs the checked path instead: a
     * truncated codeword or an index beyond a bank's population. The
     * caller falls back to read()/tryRead(), which reproduce the exact
     * panic or DecodeStatus the bit-serial reference decoder gives.
     */
    bool
    readFast(BitReader &br, u16 &out) const
    {
        // Inline: this runs once per halfword on the trusted decode
        // path, and an out-of-line call here costs as much as the
        // table hit itself.
        u32 e = lut_[br.peekPadded(kLutBits)];
        unsigned kind = (e >> 24) & 0x7;
        unsigned len = (e >> 16) & 0xff;
        if (kind == kLutValue) {
            if (len > br.remaining())
                return false; // truncated codeword
            br.skip(len);
            out = static_cast<u16>(e & 0xffff);
            return true;
        }
        if (kind == kLutRaw) {
            if (3 + kRawLiteralBits > br.remaining())
                return false; // truncated literal
            br.skip(3);
            out = static_cast<u16>(br.get(kRawLiteralBits));
            return true;
        }
        return false; // unpopulated dictionary index
    }

    /**
     * Checked variant of read() for untrusted bitstreams: a truncated
     * codeword or a dictionary index beyond a bank's population comes
     * back as a structured error (with the failing bit offset) instead
     * of an assert. On error the reader cursor is left wherever the
     * failure was detected.
     */
    Result<u16> tryRead(BitReader &br) const;

    /** Entries of bank @p bank (for dumps and tests). */
    const std::vector<u16> &bankEntries(unsigned bank) const;

    /** Bits the decode LUT indexes on (the longest non-raw codeword). */
    static constexpr unsigned kLutBits = 11;

    /**
     * Raw decode-LUT probe for fused decoders that peek the bits for
     * several codewords at once (see Decompressor's block kernel):
     * @p bits are the next kLutBits of stream. Decode the returned
     * entry with lutIsValue()/lutLen()/lutValue(); anything that is not
     * a plain in-bank value (raw escape, unpopulated index) must be
     * re-decoded through readFast()/tryRead().
     */
    u32 lutProbe(u32 bits) const { return lut_[bits]; }

    /**
     * The LUT itself (1 << kLutBits entries), for decode loops that
     * want the table pointer hoisted out of the per-symbol path.
     */
    const u32 *lutData() const { return lut_.data(); }

    /** Whether LUT entry @p e resolved to an in-bank halfword value. */
    static constexpr bool
    lutIsValue(u32 e)
    {
        return ((e >> 24) & 0x7) == kLutValue;
    }

    /** Whether LUT entry @p e is the raw escape (tag 111 + literal). */
    static constexpr bool
    lutIsRaw(u32 e)
    {
        return ((e >> 24) & 0x7) == kLutRaw;
    }

    /** Consumed codeword length of LUT entry @p e, in bits. */
    static constexpr unsigned lutLen(u32 e) { return (e >> 16) & 0xff; }

    /** Decoded halfword of a value-kind LUT entry @p e. */
    static constexpr u16
    lutValue(u32 e)
    {
        return static_cast<u16>(e & 0xffff);
    }

  private:
    // Decode-LUT entry layout: value in [15:0], consumed bit count in
    // [23:16], kind in [26:24].
    enum LutKind : u32 { kLutValue = 0, kLutRaw = 1, kLutInvalid = 2 };

    static constexpr u32
    lutEntry(u16 value, unsigned len, LutKind kind)
    {
        return static_cast<u32>(value) | (static_cast<u32>(len) << 16) |
               (static_cast<u32>(kind) << 24);
    }

    /** Rebuilds lut_ from entries_ (called whenever banks change). */
    void buildLut();

    Kind kind_;
    const Bank *banks_;
    unsigned numBanks_;
    std::vector<std::vector<u16>> entries_;       // per bank
    std::unordered_map<u16, HalfEncoding> lookup_; // value -> encoding
    std::vector<u32> lut_;                        // 1 << kLutBits entries
};

/**
 * Fused high+low decode LUT: the double-symbol rung of the decode
 * kernel ladder (see DESIGN.md, "Decode kernels"). One 4096-entry
 * table keyed on the next kBits bits of stream at an instruction
 * boundary; a slot resolves
 *
 *   - both codewords of the instruction (symbols() == 2) when the high
 *     codeword and the following low codeword together fit inside the
 *     kBits index window — prefix-freedom makes the low codeword
 *     unambiguous from the window's remaining bits alone;
 *   - the high codeword only (symbols() == 1) when it fits but the low
 *     codeword spills past the window; the caller finishes with one
 *     probe of the low dictionary's own LUT;
 *   - nothing (symbols() == 0, an escape marker) when the window opens
 *     with a raw escape or an unpopulated index pattern — those
 *     re-decode through readFast()/tryRead() exactly as before.
 *
 * Entry layout: high half in [15:0], low half in [31:16], consumed bit
 * count in [39:32] (both codewords for a pair, the high codeword alone
 * otherwise), symbol count in [41:40]. Escape slots are the all-zero
 * word, so a plain truth test skips them.
 */
class PairLut
{
  public:
    /**
     * Window width in bits, and the log2 table size. One bit wider
     * than the per-dictionary LUT: the most common instruction shape
     * is a bank-0 high codeword (6 bits) followed by a bank-0 low
     * codeword (6 bits), which at 12 bits just misses an 11-bit
     * window. The extra bit lifts double-pack coverage from only
     * {6,8,9}-bit highs before the 2-bit low zero code to every
     * bank-0×bank-0 pair, for a 32 KiB table that still sits in L1.
     */
    static constexpr unsigned kBits = 12;

    /** Creates an empty (never-matching) table. */
    PairLut() = default;

    /** Builds the fused table for @p high followed by @p low. */
    PairLut(const Dictionary &high, const Dictionary &low);

    bool empty() const { return lut_.empty(); }

    /** Raw probe with the next kBits bits of stream. */
    u64 probe(u32 bits) const { return lut_[bits]; }

    /** The table pointer, hoisted out of per-instruction decode loops. */
    const u64 *data() const { return lut_.data(); }

    /** Symbols entry @p e resolves: 0 (escape), 1 (high), 2 (both). */
    static constexpr unsigned
    symbols(u64 e)
    {
        return static_cast<unsigned>(e >> 40) & 0x3;
    }

    /** Consumed bits: the pair for 2-symbol slots, else the high code. */
    static constexpr unsigned
    lenBits(u64 e)
    {
        return static_cast<unsigned>(e >> 32) & 0xff;
    }

    static constexpr u16 highHalf(u64 e) { return static_cast<u16>(e); }
    static constexpr u16 lowHalf(u64 e) { return static_cast<u16>(e >> 16); }

    /** The full instruction word of a 2-symbol entry. */
    static constexpr u32
    word(u64 e)
    {
        return (static_cast<u32>(highHalf(e)) << 16) | lowHalf(e);
    }

    /** Number of slots that resolve a whole instruction (for tests). */
    unsigned pairSlots() const;

  private:
    static constexpr u64
    entry(u16 hi, u16 lo, unsigned len, unsigned syms)
    {
        return static_cast<u64>(hi) | (static_cast<u64>(lo) << 16) |
               (static_cast<u64>(len) << 32) |
               (static_cast<u64>(syms) << 40);
    }

    std::vector<u64> lut_; // 1 << kBits entries, or empty
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_DICTIONARY_HH
