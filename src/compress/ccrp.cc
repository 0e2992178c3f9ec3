#include "ccrp.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "isa/isa.hh"

namespace cps
{
namespace compress
{

CcrpImage
CcrpImage::compress(const std::vector<u32> &words, Addr text_base)
{
    CcrpImage img;
    img.textBase_ = text_base;
    img.origTextBytes_ = static_cast<u32>(words.size() * 4);

    // Pad to a whole cache line of 8 instructions.
    std::vector<u32> padded = words;
    while (padded.size() % 8 != 0)
        padded.push_back(kNopWord);

    u32 num_lines = static_cast<u32>(padded.size() / 8);

    // Pass 1: byte frequencies over the padded text.
    std::array<u64, 256> counts{};
    for (u32 w : padded) {
        ++counts[w & 0xff];
        ++counts[(w >> 8) & 0xff];
        ++counts[(w >> 16) & 0xff];
        ++counts[(w >> 24) & 0xff];
    }
    img.code_ = HuffmanCode::build(counts);

    // Pass 2: encode line by line. Every line starts byte-aligned (the
    // LAT addresses lines by byte offset). The histogram bounds the
    // stream size exactly, so one reservation covers it (alignment
    // padding adds at most 7 bits per line).
    BitWriter bw;
    bw.reserve(static_cast<size_t>(
        (img.code_.streamBits(counts) + u64{num_lines} * 7) / 8 + 1));
    img.lineOffsets_.reserve(num_lines);
    img.insnEnds_.reserve(num_lines);
    for (u32 line = 0; line < num_lines; ++line) {
        img.lineOffsets_.push_back(static_cast<u32>(bw.byteSize()));
        std::array<u32, 8> ends{};
        for (unsigned i = 0; i < 8; ++i) {
            u32 w = padded[line * 8 + i];
            img.code_.encode(bw, static_cast<u8>(w));
            img.code_.encode(bw, static_cast<u8>(w >> 8));
            img.code_.encode(bw, static_cast<u8>(w >> 16));
            img.code_.encode(bw, static_cast<u8>(w >> 24));
            ends[i] = static_cast<u32>((bw.bitSize() + 7) / 8);
        }
        img.insnEnds_.push_back(ends);
        bw.alignByte();
    }
    img.bytes_ = bw.take();
    return img;
}

LineExtent
CcrpImage::extent(u32 line) const
{
    cps_assert(line < numLines(), "CCRP line %u out of range", line);
    LineExtent ext;
    ext.byteOffset = lineOffsets_[line];
    u32 end = line + 1 < numLines() ? lineOffsets_[line + 1]
                                    : static_cast<u32>(bytes_.size());
    ext.byteLen = end - ext.byteOffset;
    return ext;
}

std::array<u32, 8>
CcrpImage::insnEndBytes(u32 line) const
{
    cps_assert(line < numLines(), "CCRP line %u out of range", line);
    return insnEnds_[line];
}

std::vector<u32>
CcrpImage::decompressAll() const
{
    std::vector<u32> out;
    out.reserve(static_cast<size_t>(numLines()) * 8);
    for (u32 line = 0; line < numLines(); ++line) {
        LineExtent ext = extent(line);
        BitReader br(bytes_.data() + ext.byteOffset,
                     bytes_.size() - ext.byteOffset);
        for (unsigned i = 0; i < 8; ++i) {
            u32 w = code_.decode(br);
            w |= static_cast<u32>(code_.decode(br)) << 8;
            w |= static_cast<u32>(code_.decode(br)) << 16;
            w |= static_cast<u32>(code_.decode(br)) << 24;
            out.push_back(w);
        }
    }
    out.resize(origTextBytes_ / 4);
    return out;
}

double
CcrpImage::compressionRatio() const
{
    u64 total_bits = streamBits() + latBits() + tableBits();
    return static_cast<double>(total_bits / 8) /
           static_cast<double>(origTextBytes_);
}

} // namespace compress
} // namespace cps
