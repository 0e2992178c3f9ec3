#include "logging.hh"

#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace cps
{

namespace
{

std::atomic<unsigned long> numWarnings{0};
std::atomic<bool> quietMode{false};

// Diagnostics from worker threads must not interleave: each message is
// fully formatted first, then written to stderr in a single fputs under
// this mutex.
std::mutex stderrMutex;

void
writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(stderrMutex);
    std::fputs(line.c_str(), stderr);
}

} // namespace

std::string
vstrfmt(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return "<format error>";
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vstrfmt(fmt, ap);
    va_end(ap);
    return out;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine(strfmt("panic: %s (%s:%d)\n", msg.c_str(), file, line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine(strfmt("fatal: %s (%s:%d)\n", msg.c_str(), file, line));
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    numWarnings.fetch_add(1, std::memory_order_relaxed);
    if (quietMode.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine("warn: " + msg + "\n");
}

void
informImpl(const char *fmt, ...)
{
    if (quietMode.load(std::memory_order_relaxed))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    writeLine("info: " + msg + "\n");
}

unsigned long
warnCount()
{
    return numWarnings.load(std::memory_order_relaxed);
}

void
envWarnOnce(const char *name, const char *value, const char *expected)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!warned.insert(name).second)
            return;
    }
    warnImpl("ignoring malformed %s='%s' (expected %s)", name, value,
             expected);
}

u64
envUnsigned(const char *name, u64 dflt, u64 lo, u64 hi, const char *expected)
{
    const char *env = std::getenv(name);
    if (!env)
        return dflt;
    // strtoull alone would skip leading blanks and wrap a '-' sign.
    if (*env >= '0' && *env <= '9') {
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (errno == 0 && *end == '\0' && v >= lo && v <= hi)
            return v;
    }
    envWarnOnce(name, env, expected);
    return dflt;
}

void
setQuiet(bool quiet)
{
    quietMode.store(quiet, std::memory_order_relaxed);
}

} // namespace cps
