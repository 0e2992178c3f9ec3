#include "artifact_cache.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "byteio.hh"
#include "crc32.hh"
#include "logging.hh"

namespace cps
{

namespace
{

constexpr char kMagic[8] = {'C', 'P', 'S', 'A', 'R', 'T', '1', '\0'};

/** Distinguishes the temp files of concurrent writers in one process. */
std::atomic<u64> tmpSeq{0};

} // namespace

ArtifactCache::ArtifactCache(std::string dir, bool enabled, u64 max_bytes)
    : dir_(std::move(dir)), enabled_(enabled), maxBytes_(max_bytes)
{
    if (enabled_)
        maintain();
}

const ArtifactCache &
ArtifactCache::instance()
{
    static const ArtifactCache cache = [] {
        bool enabled = true;
        if (const char *env = std::getenv("CPS_ARTIFACT_CACHE"))
            enabled = std::string(env) != "0";
        std::string dir = ".cps-cache";
        if (const char *env = std::getenv("CPS_CACHE_DIR"))
            if (*env != '\0')
                dir = env;
        u64 max_bytes = envUnsigned("CPS_CACHE_MAX_BYTES", 0, 0,
                                    UINT64_MAX, "a byte count");
        return ArtifactCache(dir, enabled, max_bytes);
    }();
    return cache;
}

void
ArtifactCache::maintain(u64 tmp_age_seconds) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return; // no directory yet (or unreadable): nothing to clean

    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        u64 size;
    };
    std::vector<Entry> entries;
    u64 total = 0;
    const auto now = fs::file_time_type::clock::now();

    for (const fs::directory_entry &de : it) {
        if (!de.is_regular_file(ec))
            continue;
        const std::string name = de.path().filename().string();
        fs::file_time_type mtime = de.last_write_time(ec);
        if (ec)
            continue;
        if (name.find(".tmp.") != std::string::npos) {
            // A writer publishes its temp file within milliseconds of
            // creating it; an old one belongs to a killed process.
            auto age = std::chrono::duration_cast<std::chrono::seconds>(
                           now - mtime)
                           .count();
            if (age >= 0 && static_cast<u64>(age) >= tmp_age_seconds)
                fs::remove(de.path(), ec);
            continue;
        }
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".art") == 0) {
            u64 size = de.file_size(ec);
            if (ec)
                continue;
            entries.push_back(Entry{de.path(), mtime, size});
            total += size;
        }
    }

    if (maxBytes_ == 0 || total <= maxBytes_)
        return;
    // Evict least-recently-used first. load() touches entries, so
    // mtime approximates last use well enough for a best-effort bound.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    for (const Entry &e : entries) {
        if (total <= maxBytes_)
            break;
        if (fs::remove(e.path, ec))
            total -= e.size;
    }
}

std::string
ArtifactCache::keyHash(const std::string &key)
{
    // FNV-1a 64. Collisions are defended against by storing (and
    // checking) the full key inside the entry, so the hash only has to
    // spread file names, not be cryptographic.
    u64 h = 14695981039346656037ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
ArtifactCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + keyHash(key) + ".art";
}

std::optional<std::vector<u8>>
ArtifactCache::load(const std::string &key) const
{
    if (!enabled_)
        return std::nullopt;
    auto bytes = readFileBytes(entryPath(key));
    if (!bytes)
        return std::nullopt; // miss

    // Everything below is verification of untrusted bytes: any failure
    // is a miss, never an error (the caller recomputes and overwrites).
    const std::vector<u8> &buf = *bytes;
    if (buf.size() < sizeof(kMagic) + 4 + 4 + 4)
        return std::nullopt;
    u32 stored_crc = static_cast<u32>(buf[buf.size() - 4]) |
                     (static_cast<u32>(buf[buf.size() - 3]) << 8) |
                     (static_cast<u32>(buf[buf.size() - 2]) << 16) |
                     (static_cast<u32>(buf[buf.size() - 1]) << 24);
    if (crc32(buf.data(), buf.size() - 4) != stored_crc)
        return std::nullopt; // torn or bit-flipped entry

    ByteCursor cur(buf);
    if (!cur.expectMagic(kMagic, sizeof(kMagic)))
        return std::nullopt;
    u32 key_len = cur.get32();
    if (!cur.ok() || key_len != key.size())
        return std::nullopt;
    std::string stored_key = cur.getString(key_len);
    if (!cur.ok() || stored_key != key)
        return std::nullopt; // hash collision: treat as a miss
    u32 payload_len = cur.get32();
    if (!cur.ok() || cur.remaining() != size_t{payload_len} + 4)
        return std::nullopt;

    // Touch the entry so LRU eviction (maintain) sees it as recent.
    std::error_code ec;
    std::filesystem::last_write_time(
        entryPath(key), std::filesystem::file_time_type::clock::now(), ec);

    return cur.getBytes(payload_len);
}

bool
ArtifactCache::store(const std::string &key,
                     const std::vector<u8> &payload) const
{
    if (!enabled_)
        return false;

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return false;

    std::vector<u8> out;
    out.reserve(sizeof(kMagic) + 12 + key.size() + payload.size());
    for (char c : kMagic)
        out.push_back(static_cast<u8>(c));
    put32(out, static_cast<u32>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    put32(out, static_cast<u32>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    put32(out, crc32(out));

    // Write to a writer-private temp name in the same directory, then
    // publish with rename(2): readers see the old entry or the complete
    // new one, never a partial write, and the last concurrent writer of
    // a key wins with a valid entry.
    std::string tmp = strfmt(
        "%s/%s.tmp.%ld.%llu", dir_.c_str(), keyHash(key).c_str(),
        static_cast<long>(getpid()),
        static_cast<unsigned long long>(
            tmpSeq.fetch_add(1, std::memory_order_relaxed)));
    if (!writeFileBytes(tmp, out))
        return false;
    std::filesystem::rename(tmp, entryPath(key), ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace cps
