/**
 * @file
 * CCRP-style compression (Wolfe & Chanin / Kozuch & Wolfe): each
 * 32-byte I-cache line is Huffman-encoded byte by byte at compile time;
 * a Line Address Table (LAT) maps native line addresses to compressed
 * offsets. Decoding is bit-serial and history-based, which is exactly
 * why the paper contrasts CodePack's halfword symbols against it (§2.2):
 * CCRP compresses comparably but decodes much more slowly.
 *
 * This is one of the two related-work baselines used by the ablation
 * benchmark (bench_ablation_compressors).
 */

#ifndef CPS_COMPRESS_CCRP_HH
#define CPS_COMPRESS_CCRP_HH

#include <vector>

#include "common/types.hh"
#include "huffman.hh"
#include "line_codec.hh"

namespace cps
{
namespace compress
{

/** A CCRP-compressed text image. */
class CcrpImage : public LineCodec
{
  public:
    /** Compresses @p words (the .text) at native base @p text_base. */
    static CcrpImage compress(const std::vector<u32> &words,
                              Addr text_base);

    /** Decompresses everything (round-trip testing). */
    std::vector<u32> decompressAll() const;

    // LineCodec interface -------------------------------------------------
    u32 numLines() const override
    {
        return static_cast<u32>(lineOffsets_.size());
    }
    Addr textBase() const override { return textBase_; }
    LineExtent extent(u32 line) const override;
    std::array<u32, 8> insnEndBytes(u32 line) const override;
    unsigned decodeCyclesPerInsn() const override { return 4; }
    const char *name() const override { return "ccrp"; }

    /** Compression ratio including LAT and code-table overheads. */
    double compressionRatio() const;

    u64 latBits() const { return u64{numLines()} * 32; }
    u64 tableBits() const { return code_.tableBits(); }
    u64 streamBits() const { return u64{bytes_.size()} * 8; }
    u32 origTextBytes() const { return origTextBytes_; }

  private:
    Addr textBase_ = 0;
    u32 origTextBytes_ = 0;
    std::vector<u8> bytes_;
    std::vector<u32> lineOffsets_; ///< LAT: per-line byte offsets
    std::vector<std::array<u32, 8>> insnEnds_; ///< per line, per insn
    HuffmanCode code_;
};

} // namespace compress
} // namespace cps

#endif // CPS_COMPRESS_CCRP_HH
