/**
 * @file
 * Shared JSON emission helpers for the obs layer. Every producer of
 * report-shaped output (stat registry, event log, trace exporter)
 * uses these, so escaping and number formatting stay byte-identical
 * across all of them.
 */

#ifndef PSCA_OBS_JSON_HH
#define PSCA_OBS_JSON_HH

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

namespace psca {
namespace obs {

/** Minimal JSON string escaping (names are ASCII identifiers). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Print a double as JSON (finite; non-finite becomes 0). */
inline void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
}

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_JSON_HH
