/**
 * @file
 * Validated environment-variable parsing. Every PSCA_* knob goes
 * through these helpers instead of raw atoi/strcmp so that a typo
 * ("PSCA_THREADS=fuor", "PSCA_SIM_MEMO=off please") produces one
 * clear warning line and a documented fallback, never a silent
 * zero-valued surprise.
 *
 * Conventions:
 *  - unset or empty variables mean "use the default" and are never
 *    warned about;
 *  - garbage values (trailing junk, wrong type) warn once per lookup
 *    and fall back to the default;
 *  - an unknown enum token is fatal, with the allowed choices in the
 *    message: enum knobs pick what a run computes (scale, kernel
 *    dispatch), so a typo must not silently run something else;
 *  - out-of-range numbers warn and fall back to the default, so a
 *    bad value can never smuggle a 0 into a divisor or a loop bound.
 *
 * The tryParse* functions are the silent layer (no logging) for
 * callers that must not recurse into the logger — logging.cc itself
 * parses PSCA_LOG_LEVEL with them.
 */

#ifndef PSCA_COMMON_ENV_HH
#define PSCA_COMMON_ENV_HH

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

#include "common/logging.hh"

namespace psca {
namespace env {

/** Strict full-string integer parse; false on any trailing junk. */
inline bool
tryParseLong(const char *s, long long &out)
{
    if (!s || !*s)
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (errno == ERANGE || end == s || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Strict full-string double parse; false on any trailing junk. */
inline bool
tryParseDouble(const char *s, double &out)
{
    if (!s || !*s)
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (errno == ERANGE || end == s || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Boolean tokens: 1/true/on/yes and 0/false/off/no. */
inline bool
tryParseBool(const char *s, bool &out)
{
    if (!s || !*s)
        return false;
    auto any = [s](std::initializer_list<const char *> tokens) {
        for (const char *t : tokens)
            if (std::strcmp(s, t) == 0)
                return true;
        return false;
    };
    if (any({"1", "true", "on", "yes"})) {
        out = true;
        return true;
    }
    if (any({"0", "false", "off", "no"})) {
        out = false;
        return true;
    }
    return false;
}

/**
 * Integer knob: returns true and sets @p out only when @p name is
 * set to a valid integer in [lo, hi]. Garbage or out-of-range values
 * warn and return false (caller keeps its default).
 */
inline bool
intIfSet(const char *name, long long &out, long long lo, long long hi)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return false;
    long long v = 0;
    if (!tryParseLong(s, v)) {
        warn("ignoring ", name, "='", s, "': not an integer");
        return false;
    }
    if (v < lo || v > hi) {
        warn("ignoring ", name, "=", v, ": outside [", lo, ", ", hi,
             "]");
        return false;
    }
    out = v;
    return true;
}

/** Integer knob with an in-range default. */
inline long long
intOr(const char *name, long long def, long long lo, long long hi)
{
    long long v = def;
    intIfSet(name, v, lo, hi);
    return v;
}

/** Floating-point knob with an in-range default. */
inline double
doubleOr(const char *name, double def, double lo, double hi)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return def;
    double v = 0.0;
    if (!tryParseDouble(s, v)) {
        warn("ignoring ", name, "='", s, "': not a number");
        return def;
    }
    if (v < lo || v > hi) {
        warn("ignoring ", name, "=", v, ": outside [", lo, ", ", hi,
             "]");
        return def;
    }
    return v;
}

/** Boolean knob (1/true/on/yes, 0/false/off/no). */
inline bool
flagOr(const char *name, bool def)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return def;
    bool v = def;
    if (!tryParseBool(s, v)) {
        warn("ignoring ", name, "='", s,
             "': expected 0/1/true/false/on/off");
        return def;
    }
    return v;
}

/**
 * Enum knob: the value must be one of @p allowed; any other value is
 * fatal and the message lists the choices.
 */
inline std::string
enumOr(const char *name, std::initializer_list<const char *> allowed,
       const char *def)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return def;
    for (const char *token : allowed)
        if (std::strcmp(s, token) == 0)
            return s;
    std::string choices;
    for (const char *token : allowed) {
        if (!choices.empty())
            choices += "|";
        choices += token;
    }
    fatal(name, "='", s, "': expected one of ", choices);
}

/** String knob (no validation beyond non-empty). */
inline std::string
stringOr(const char *name, const char *def)
{
    const char *s = std::getenv(name);
    return s && *s ? s : def;
}

} // namespace env
} // namespace psca

#endif // PSCA_COMMON_ENV_HH
