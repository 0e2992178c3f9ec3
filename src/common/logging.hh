/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a simulator bug. Aborts.
 * fatal()  - the user asked for something impossible (bad configuration,
 *            malformed input). Exits with an error code.
 * warn()   - something questionable happened but simulation can continue.
 * inform() - a status message with no negative connotation.
 */

#ifndef CPS_COMMON_LOGGING_HH
#define CPS_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "types.hh"

namespace cps
{

/** Formats printf-style arguments into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list ap);

/** Formats printf-style arguments into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Count of warn() calls so far, exposed so tests can assert on warnings. */
unsigned long warnCount();

/**
 * Warns about a malformed environment knob exactly once per process per
 * variable name, no matter how many constructions re-read it:
 * "ignoring malformed NAME='VALUE' (expected EXPECTED)". Knob parsers
 * are re-run per construction by design (tests flip knobs between
 * constructions), so their diagnostics must be deduplicated here rather
 * than by call-site statics.
 */
void envWarnOnce(const char *name, const char *value,
                 const char *expected);

/**
 * Reads environment knob @p name as a decimal integer in [@p lo, @p hi].
 * Unset returns @p dflt silently. Anything else that is not all digits
 * (empty, signed, trailing junk such as "1e3"), overflows, or falls
 * outside the range returns @p dflt after one envWarnOnce naming
 * @p expected.
 */
u64 envUnsigned(const char *name, u64 dflt, u64 lo, u64 hi,
                const char *expected);

/** Silence warn()/inform() output (counters still advance). */
void setQuiet(bool quiet);

} // namespace cps

// The macros live outside the namespace so call sites read naturally.

#define cps_panic(...) ::cps::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cps_fatal(...) ::cps::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define cps_warn(...) ::cps::warnImpl(__VA_ARGS__)
#define cps_inform(...) ::cps::informImpl(__VA_ARGS__)

/**
 * Assert that is kept in release builds; reports via panic(). A printf
 * message (with arguments) is required: cps_assert(x > 0, "bad x: %d", x).
 */
#define cps_assert(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::cps::panicImpl(__FILE__, __LINE__, __VA_ARGS__);               \
        }                                                                    \
    } while (0)

#endif // CPS_COMMON_LOGGING_HH
