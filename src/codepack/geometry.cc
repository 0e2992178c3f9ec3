#include "geometry.hh"

namespace cps
{
namespace codepack
{

GeometryMemo::GeometryMemo(const CompressedImage &img)
    : decomp_(img), geo_(img.numBlocks()), known_(img.numBlocks(), 0)
{
}

void
GeometryMemo::store(u32 flat, const DecodedBlock &blk)
{
    BlockGeometry &g = geo_[flat];
    g.byteOffset = blk.byteOffset;
    g.byteLen = blk.byteLen;
    g.endBit = blk.endBit;
    known_[flat] = 1;
}

const BlockGeometry &
GeometryMemo::get(u32 flat)
{
    if (!known_[flat])
        store(flat, decomp_.decompressFlatBlock(flat));
    return geo_[flat];
}

Result<const BlockGeometry *>
GeometryMemo::tryGet(u32 flat)
{
    if (!known_[flat]) {
        Result<DecodedBlock> blk = decomp_.tryDecompressBlock(
            flat / kBlocksPerGroup, flat % kBlocksPerGroup);
        if (!blk)
            return blk.error();
        store(flat, *blk);
    }
    return &geo_[flat];
}

} // namespace codepack
} // namespace cps
