/**
 * @file
 * Stat snapshots (DESIGN.md §12): a plain-data copy of a StatRegistry,
 * detached from the live atomics, and the JSON writer both the
 * end-of-run report (StatRegistry::writeJson) and the /stats.json
 * endpoint emit from, so the two share one byte layout.
 */

#ifndef PSCA_OBS_SNAPSHOT_HH
#define PSCA_OBS_SNAPSHOT_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/stats.hh"

namespace psca {
namespace obs {

/** One registry's stats, detached from the live atomic objects. */
struct StatSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Copy every stat out of @p reg (values read at call time). */
    void capture(const StatRegistry &reg);

    /**
     * The "counters"/"gauges"/"histograms" report sections, exactly
     * as StatRegistry::writeJson() emits them (two-space indent,
     * sorted names), each followed by ",\n" so the report's events
     * and phases sections can follow.
     */
    void writeSections(std::ostream &os) const;
};

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_SNAPSHOT_HH
