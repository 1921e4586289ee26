#include "obs/snapshot.hh"

#include <ostream>

#include "obs/json.hh"

namespace psca {
namespace obs {

void
StatSnapshot::capture(const StatRegistry &reg)
{
    counters.clear();
    gauges.clear();
    histograms.clear();
    reg.forEachCounter([this](const std::string &name, uint64_t v) {
        counters[name] = v;
    });
    reg.forEachGauge([this](const std::string &name, double v) {
        gauges[name] = v;
    });
    reg.forEachHistogram(
        [this](const std::string &name, const Histogram &h) {
            histograms[name] = h.snapshot();
        });
}

namespace {

void
writeHistogramJson(std::ostream &os, const HistogramSnapshot &h,
                   const std::string &indent)
{
    os << "{\n";
    os << indent << "  \"count\": " << h.count << ",\n";
    os << indent << "  \"min\": " << (h.count ? h.min : 0) << ",\n";
    os << indent << "  \"max\": " << h.max << ",\n";
    os << indent << "  \"mean\": ";
    jsonNumber(os, h.mean());
    os << ",\n" << indent << "  \"stddev\": ";
    jsonNumber(os, h.stddev());
    os << ",\n";
    os << indent << "  \"p50\": " << h.percentile(50.0) << ",\n";
    os << indent << "  \"p95\": " << h.percentile(95.0) << ",\n";
    os << indent << "  \"p99\": " << h.percentile(99.0) << ",\n";
    os << indent << "  \"buckets\": [";
    bool first = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        if (h.buckets[i] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "[" << Histogram::bucketLowerBound(i) << ", "
           << h.buckets[i] << "]";
    }
    os << "]\n" << indent << "}";
}

} // namespace

void
StatSnapshot::writeSections(std::ostream &os) const
{
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << v;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        jsonNumber(os, v);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        writeHistogramJson(os, h, "    ");
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
}

} // namespace obs
} // namespace psca
