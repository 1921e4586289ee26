/**
 * @file
 * Tests for the observability layer: log2-bucketed histogram bucket
 * boundaries, percentile queries against known distributions, Welford
 * mean/variance against closed forms, scoped-timer phase nesting, the
 * stat registry, and the JSON report dump.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/parallel.hh"
#include "obs/phase.hh"
#include "obs/report.hh"
#include "obs/stats.hh"

using namespace psca;
using obs::Histogram;

TEST(HistogramBuckets, LinearRegionIsExact)
{
    // Values below 2*kBucketFraction each own a bucket.
    for (uint64_t v = 0; v < Histogram::kLinearMax; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketLowerBound(v), v);
        EXPECT_EQ(Histogram::bucketUpperBound(v), v);
    }
}

TEST(HistogramBuckets, BoundsInvertIndex)
{
    // Every bucket's bounds map back to the bucket, contiguously.
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        const uint64_t lo = Histogram::bucketLowerBound(i);
        EXPECT_EQ(Histogram::bucketIndex(lo), i) << "bucket " << i;
        const uint64_t hi = Histogram::bucketUpperBound(i);
        if (i + 1 < Histogram::kNumBuckets) {
            EXPECT_EQ(Histogram::bucketIndex(hi), i) << "bucket " << i;
            EXPECT_EQ(Histogram::bucketLowerBound(i + 1), hi + 1);
        }
    }
}

TEST(HistogramBuckets, PowerOfTwoEdges)
{
    for (uint32_t log2v = 3; log2v < Histogram::kMaxLog2; ++log2v) {
        const uint64_t v = 1ULL << log2v;
        const size_t at = Histogram::bucketIndex(v);
        // A power of two starts its bucket...
        EXPECT_EQ(Histogram::bucketLowerBound(at), v);
        // ...and the value just below it ends the previous one.
        EXPECT_EQ(Histogram::bucketIndex(v - 1), at - 1);
    }
}

TEST(HistogramBuckets, OverflowClampsToLastBucket)
{
    EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX),
              Histogram::kNumBuckets - 1);
    EXPECT_EQ(Histogram::bucketIndex(1ULL << Histogram::kMaxLog2),
              Histogram::kNumBuckets - 1);

    Histogram h;
    h.add(0);
    h.add(UINT64_MAX);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), UINT64_MAX);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(Histogram::kNumBuckets - 1), 1u);
}

TEST(HistogramBuckets, CountMatchesBucketSum)
{
    Histogram h;
    for (uint64_t v = 0; v < 5000; v += 7)
        h.add(v);
    uint64_t sum = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i)
        sum += h.bucketCount(i);
    EXPECT_EQ(sum, h.count());
}

TEST(HistogramPercentiles, EmptyAndSingle)
{
    Histogram h;
    EXPECT_EQ(h.percentile(50.0), 0u);
    h.add(42);
    EXPECT_EQ(h.percentile(50.0), 42u);
    EXPECT_EQ(h.percentile(99.0), 42u);
}

TEST(HistogramPercentiles, UniformWithinOneBucketWidth)
{
    // 1..10000 uniformly: a percentile estimate must land inside the
    // bucket containing the exact value, i.e. within a factor of
    // (1 + 1/kBucketFraction) = 1.25 of it.
    Histogram h;
    for (uint64_t v = 1; v <= 10000; ++v)
        h.add(v);
    for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
        const double exact = p / 100.0 * 10000.0;
        const double estimate =
            static_cast<double>(h.percentile(p));
        EXPECT_GE(estimate, exact / 1.25) << "p" << p;
        EXPECT_LE(estimate, exact * 1.25) << "p" << p;
    }
    // The extremes are exact, from tracked min/max.
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(100.0), 10000u);
}

TEST(HistogramWelford, MatchesClosedForm)
{
    // Known set: mean 5, population variance 4.
    Histogram h;
    for (uint64_t v : {2, 4, 4, 4, 5, 5, 7, 9})
        h.add(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.min(), 2u);
    EXPECT_EQ(h.max(), 9u);
    EXPECT_NEAR(h.mean(), 5.0, 1e-12);
    EXPECT_NEAR(h.variance(), 4.0, 1e-12);
    EXPECT_NEAR(h.stddev(), 2.0, 1e-12);
}

TEST(HistogramWelford, LargeUniformAgainstFormula)
{
    // 0..n-1 uniform: mean (n-1)/2, variance (n^2-1)/12.
    const uint64_t n = 4096;
    Histogram h;
    for (uint64_t v = 0; v < n; ++v)
        h.add(v);
    const double nn = static_cast<double>(n);
    EXPECT_NEAR(h.mean(), (nn - 1.0) / 2.0, 1e-6);
    EXPECT_NEAR(h.variance(), (nn * nn - 1.0) / 12.0,
                h.variance() * 1e-9);
}

TEST(StatRegistry, NamesAreStableIdentities)
{
    auto &reg = obs::StatRegistry::instance();
    obs::Counter &a = reg.counter("test_obs.ctr");
    obs::Counter &b = reg.counter("test_obs.ctr");
    EXPECT_EQ(&a, &b);
    a.add(3);
    b.add(2);
    EXPECT_EQ(reg.counter("test_obs.ctr").value(), 5u);

    reg.gauge("test_obs.gauge").set(1.5);
    EXPECT_DOUBLE_EQ(reg.gauge("test_obs.gauge").value(), 1.5);

    EXPECT_EQ(reg.findCounter("test_obs.missing"), nullptr);
    EXPECT_EQ(reg.findCounter("test_obs.ctr"), &a);
}

TEST(StatRegistry, ResetZeroesButKeepsObjects)
{
    auto &reg = obs::StatRegistry::instance();
    obs::Counter &c = reg.counter("test_obs.reset_me");
    obs::Histogram &h = reg.histogram("test_obs.reset_hist");
    c.add(7);
    h.add(123);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);            // same object, zeroed
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(reg.findCounter("test_obs.reset_me"), &c);
}

TEST(PhaseTracing, ScopedPhaseNesting)
{
    auto &tracer = obs::PhaseTracer::instance();
    tracer.reset();
    {
        obs::ScopedPhase outer("outer");
        {
            obs::ScopedPhase inner("inner");
        }
        {
            obs::ScopedPhase inner("inner");
        }
        obs::ScopedPhase other("other");
    }
    {
        obs::ScopedPhase outer("outer"); // re-enter accumulates
    }

    const obs::PhaseNode &root = tracer.root();
    ASSERT_EQ(root.children.size(), 1u);
    const obs::PhaseNode &outer = *root.children[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.calls, 2u);
    ASSERT_EQ(outer.children.size(), 2u);
    EXPECT_EQ(outer.children[0]->name, "inner");
    EXPECT_EQ(outer.children[0]->calls, 2u);
    EXPECT_EQ(outer.children[1]->name, "other");
    EXPECT_EQ(outer.children[1]->calls, 1u);
    // A parent's wall time covers its children's.
    EXPECT_GE(outer.wallNs, outer.children[0]->wallNs +
                  outer.children[1]->wallNs);
    tracer.reset();
}

TEST(PhaseTracing, ScopedTimerRecordsDuration)
{
    Histogram h;
    {
        obs::ScopedTimer timer(h);
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.max(), 0u);
}

TEST(RunReport, JsonDumpCarriesStatsAndPhases)
{
    auto &reg = obs::StatRegistry::instance();
    reg.reset();
    obs::PhaseTracer::instance().reset();

    reg.counter("test_obs.json_ctr").add(11);
    reg.gauge("test_obs.json_gauge").set(2.25);
    obs::Histogram &h = reg.histogram("test_obs.json_hist");
    for (uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    {
        obs::ScopedPhase phase("json_phase");
    }

    std::ostringstream os;
    reg.writeJson(os, "test_report");
    const std::string json = os.str();

    EXPECT_NE(json.find("\"report\": \"test_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test_obs.json_ctr\": 11"),
              std::string::npos);
    EXPECT_NE(json.find("\"test_obs.json_gauge\": 2.25"),
              std::string::npos);
    EXPECT_NE(json.find("\"p50\": "), std::string::npos);
    EXPECT_NE(json.find("\"p95\": "), std::string::npos);
    EXPECT_NE(json.find("\"p99\": "), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"json_phase\""),
              std::string::npos);

    // Braces balance (cheap structural sanity without a parser).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));

    obs::PhaseTracer::instance().reset();
    reg.reset();
}

TEST(RunReport, DumpJsonWritesFile)
{
    const std::string path = "/tmp/psca_obs_report.json";
    auto &reg = obs::StatRegistry::instance();
    reg.counter("test_obs.file_ctr").add(1);
    reg.dumpJson(path, "file_report");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"file_report\""), std::string::npos);
    EXPECT_NE(ss.str().find("test_obs.file_ctr"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(RunReport, TextDumpMentionsEveryStat)
{
    auto &reg = obs::StatRegistry::instance();
    reg.counter("test_obs.text_ctr").add(5);
    reg.histogram("test_obs.text_hist").add(9);
    std::ostringstream os;
    reg.dumpText(os);
    EXPECT_NE(os.str().find("test_obs.text_ctr"), std::string::npos);
    EXPECT_NE(os.str().find("test_obs.text_hist"), std::string::npos);
}

TEST(Concurrency, StatsSurviveParallelMutation)
{
    // Counters must be exact and histograms structurally consistent
    // when many pool tasks hammer the same stat objects; this is also
    // the TSan workload for the obs layer.
    auto &reg = obs::StatRegistry::instance();
    auto &ctr = reg.counter("test_obs.par_ctr");
    auto &gauge = reg.gauge("test_obs.par_gauge");
    auto &hist = reg.histogram("test_obs.par_hist");
    ctr.reset();
    hist.reset();

    psca::ThreadPool pool(4);
    pool.parallelFor(4000, [&](size_t i) {
        ctr.add();
        gauge.set(static_cast<double>(i));
        hist.add(i % 97);
        obs::ScopedPhase phase("par_phase");
    });

    EXPECT_EQ(ctr.value(), 4000u);
    EXPECT_EQ(hist.count(), 4000u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 96u);

    // Dumping while another region mutates stats must stay coherent.
    std::ostringstream os;
    pool.parallelFor(2, [&](size_t i) {
        if (i == 0) {
            for (int r = 0; r < 50; ++r)
                reg.writeJson(os, "concurrent_dump");
        } else {
            for (int r = 0; r < 5000; ++r) {
                ctr.add();
                hist.add(r % 13);
                obs::ScopedPhase phase("par_phase2");
            }
        }
    });
    EXPECT_EQ(ctr.value(), 9000u);
    EXPECT_NE(os.str().find("test_obs.par_ctr"), std::string::npos);

    ctr.reset();
    hist.reset();
    obs::PhaseTracer::instance().reset();
}
