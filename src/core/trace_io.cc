/**
 * @file
 * TraceBuffer (de)serialization for the artifact cache: pregeneration
 * records each benchmark's functional trace once, and warm runs load it
 * from disk instead of re-executing up to Suite::traceInsns() instructions.
 */

#include "trace.hh"

#include "common/byteio.hh"
#include "common/crc32.hh"

namespace cps
{

namespace
{

constexpr char kTraceMagic[8] = {'C', 'P', 'S', 'T', 'R', 'C', '1', '\0'};

/** Bytes of one serialized entry (pc, nextPc, memAddr, meta). */
constexpr size_t kEntryBytes = 16;

} // namespace

std::vector<u8>
encodeTrace(const TraceBuffer &trace)
{
    std::vector<u8> out;
    out.reserve(sizeof(kTraceMagic) + 5 + trace.size() * kEntryBytes + 4);
    for (char c : kTraceMagic)
        out.push_back(static_cast<u8>(c));
    put32(out, static_cast<u32>(trace.size()));
    put8(out, trace.complete() ? 1 : 0);
    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &e = trace.entry(i);
        put32(out, e.pc);
        put32(out, e.nextPc);
        put32(out, e.memAddr);
        put32(out, e.meta);
    }
    put32(out, crc32(out));
    return out;
}

Result<TraceBuffer>
decodeTraceChecked(const std::vector<u8> &bytes)
{
    if (bytes.size() < 4 ||
        crc32(bytes.data(), bytes.size() - 4) !=
            (static_cast<u32>(bytes[bytes.size() - 4]) |
             (static_cast<u32>(bytes[bytes.size() - 3]) << 8) |
             (static_cast<u32>(bytes[bytes.size() - 2]) << 16) |
             (static_cast<u32>(bytes[bytes.size() - 1]) << 24)))
        return decodeErrorAtByte(DecodeStatus::BadCrc, 0,
                                 "trace CRC mismatch");

    ByteCursor cur(bytes);
    if (!cur.expectMagic(kTraceMagic, sizeof(kTraceMagic)))
        return decodeErrorAtByte(DecodeStatus::BadMagic, 0,
                                 "not a recorded trace (bad magic)");
    size_t at = cur.pos();
    u32 count = cur.get32();
    u8 complete = cur.get8();
    if (!cur.ok())
        return decodeErrorAtByte(DecodeStatus::Truncated, at,
                                 "file ends inside the trace header");
    if (complete > 1)
        return decodeErrorAtByte(DecodeStatus::BadHeader, at + 4,
                                 "trace completeness flag is %u",
                                 complete);
    // Validate the declared size against the bytes actually present
    // before reserving anything (+4 for the trailing CRC).
    if (cur.remaining() != size_t{count} * kEntryBytes + 4)
        return decodeErrorAtByte(
            DecodeStatus::Truncated, cur.pos(),
            "trace declares %u entries (%zu bytes) but %zu remain",
            count, size_t{count} * kEntryBytes, cur.remaining());

    TraceBuffer trace;
    trace.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        TraceEntry e;
        e.pc = cur.get32();
        e.nextPc = cur.get32();
        e.memAddr = cur.get32();
        e.meta = cur.get32();
        trace.appendEntry(e);
    }
    if (complete)
        trace.markComplete();
    return trace;
}

} // namespace cps
