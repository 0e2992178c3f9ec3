/**
 * @file
 * Per-image memo of compressed-block geometry for the simulated
 * I-miss path.
 *
 * The timing models never read decoded words: the hardware
 * decompressor is timed by when each instruction's last codeword bit
 * arrives in the burst (paper §3.2, Figure 2), and the software
 * handler by how many bytes it copies out of the DMA buffer. Both only
 * need a block's extent and the per-instruction end bits, which are
 * static per image. The memo decodes each block once, the first time
 * it misses, and keeps just that geometry in a dense array indexed by
 * flat block number.
 *
 * The geometry comes from the decode, not from the image's block
 * extents: validateImage accepts images without extents and never
 * checks them against the index table.
 */

#ifndef CPS_CODEPACK_GEOMETRY_HH
#define CPS_CODEPACK_GEOMETRY_HH

#include <array>
#include <vector>

#include "decompressor.hh"

namespace cps
{
namespace codepack
{

/** What the miss-path timing models read of a decoded block. */
struct BlockGeometry
{
    u32 byteOffset = 0; ///< of the block within the compressed region
    u32 byteLen = 0;
    /** Bit offset just past each instruction's final codeword bit. */
    std::array<u32, kBlockInsns> endBit{};
};

/** Dense, lazily filled geometry of every block of one image. */
class GeometryMemo
{
  public:
    /** @param img the image to decode (must outlive the memo) */
    explicit GeometryMemo(const CompressedImage &img);

    /** Geometry of flat block @p flat, decoded (trusted) on first use. */
    const BlockGeometry &get(u32 flat);

    /**
     * Checked variant for images under a SoftErrorDomain: a missing
     * entry is decoded with tryDecompressBlock, so corruption that
     * slipped past a weak check fails structurally instead of
     * panicking. A failed decode leaves no entry behind.
     */
    Result<const BlockGeometry *> tryGet(u32 flat);

    /** Forgets @p flat's entry (its memory was repaired). */
    void drop(u32 flat) { known_[flat] = 0; }

  private:
    void store(u32 flat, const DecodedBlock &blk);

    Decompressor decomp_;
    std::vector<BlockGeometry> geo_;
    std::vector<u8> known_; ///< per flat block: geo_ entry is filled
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_GEOMETRY_HH
