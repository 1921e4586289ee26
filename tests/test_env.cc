/**
 * @file
 * Tests for validated environment-variable parsing (common/env.hh):
 * strict full-string parses, warn-and-default on garbage or
 * out-of-range values, fail-fast on unknown enum tokens, and the
 * unset-means-default convention every PSCA_* knob relies on.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"

using namespace psca;

namespace {

constexpr const char *kVar = "PSCA_ENV_TEST_VAR";

class EnvTest : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv(kVar); }
    void TearDown() override { unsetenv(kVar); }

    void set(const char *v) { setenv(kVar, v, 1); }
};

} // namespace

TEST_F(EnvTest, TryParseLongAcceptsOnlyFullIntegers)
{
    long long v = 0;
    EXPECT_TRUE(env::tryParseLong("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(env::tryParseLong("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(env::tryParseLong("", v));
    EXPECT_FALSE(env::tryParseLong(nullptr, v));
    EXPECT_FALSE(env::tryParseLong("4x", v));
    EXPECT_FALSE(env::tryParseLong("4 ", v));
    EXPECT_FALSE(env::tryParseLong("3.5", v));
    EXPECT_FALSE(env::tryParseLong("99999999999999999999999", v));
}

TEST_F(EnvTest, TryParseDoubleAcceptsOnlyFullNumbers)
{
    double v = 0.0;
    EXPECT_TRUE(env::tryParseDouble("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(env::tryParseDouble("-1e3", v));
    EXPECT_DOUBLE_EQ(v, -1000.0);
    EXPECT_FALSE(env::tryParseDouble("", v));
    EXPECT_FALSE(env::tryParseDouble("0.25s", v));
    EXPECT_FALSE(env::tryParseDouble("pi", v));
}

TEST_F(EnvTest, TryParseBoolKnowsBothTokenFamilies)
{
    bool v = false;
    for (const char *t : {"1", "true", "on", "yes"}) {
        v = false;
        EXPECT_TRUE(env::tryParseBool(t, v)) << t;
        EXPECT_TRUE(v) << t;
    }
    for (const char *t : {"0", "false", "off", "no"}) {
        v = true;
        EXPECT_TRUE(env::tryParseBool(t, v)) << t;
        EXPECT_FALSE(v) << t;
    }
    EXPECT_FALSE(env::tryParseBool("TRUE", v)); // tokens are exact
    EXPECT_FALSE(env::tryParseBool("2", v));
    EXPECT_FALSE(env::tryParseBool("", v));
}

TEST_F(EnvTest, IntIfSetRespectsUnsetGarbageAndRange)
{
    long long v = 99;
    EXPECT_FALSE(env::intIfSet(kVar, v, 1, 10)); // unset
    EXPECT_EQ(v, 99);

    set("7");
    EXPECT_TRUE(env::intIfSet(kVar, v, 1, 10));
    EXPECT_EQ(v, 7);

    v = 99;
    set("seven");
    EXPECT_FALSE(env::intIfSet(kVar, v, 1, 10)); // garbage
    EXPECT_EQ(v, 99);

    set("11");
    EXPECT_FALSE(env::intIfSet(kVar, v, 1, 10)); // out of range
    EXPECT_EQ(v, 99);

    set("");
    EXPECT_FALSE(env::intIfSet(kVar, v, 1, 10)); // empty = unset
}

TEST_F(EnvTest, IntOrFallsBackToDefault)
{
    EXPECT_EQ(env::intOr(kVar, 4, 1, 64), 4);
    set("16");
    EXPECT_EQ(env::intOr(kVar, 4, 1, 64), 16);
    set("0");
    EXPECT_EQ(env::intOr(kVar, 4, 1, 64), 4); // below lo
    set("4x4");
    EXPECT_EQ(env::intOr(kVar, 4, 1, 64), 4);
}

TEST_F(EnvTest, DoubleOrFallsBackToDefault)
{
    EXPECT_DOUBLE_EQ(env::doubleOr(kVar, 0.5, 0.0, 1.0), 0.5);
    set("0.25");
    EXPECT_DOUBLE_EQ(env::doubleOr(kVar, 0.5, 0.0, 1.0), 0.25);
    set("1.5");
    EXPECT_DOUBLE_EQ(env::doubleOr(kVar, 0.5, 0.0, 1.0), 0.5);
    set("half");
    EXPECT_DOUBLE_EQ(env::doubleOr(kVar, 0.5, 0.0, 1.0), 0.5);
}

TEST_F(EnvTest, FlagOrFallsBackToDefault)
{
    EXPECT_TRUE(env::flagOr(kVar, true));
    EXPECT_FALSE(env::flagOr(kVar, false));
    set("off");
    EXPECT_FALSE(env::flagOr(kVar, true));
    set("yes");
    EXPECT_TRUE(env::flagOr(kVar, false));
    set("maybe");
    EXPECT_TRUE(env::flagOr(kVar, true)); // garbage keeps default
    EXPECT_FALSE(env::flagOr(kVar, false));
}

TEST_F(EnvTest, EnumOrAcceptsOnlyListedTokens)
{
    const auto allowed = {"quick", "default", "full"};
    EXPECT_EQ(env::enumOr(kVar, allowed, "default"), "default");
    set("quick");
    EXPECT_EQ(env::enumOr(kVar, allowed, "default"), "quick");
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    set("Quick"); // exact match only
    EXPECT_DEATH(env::enumOr(kVar, allowed, "default"),
                 "expected one of quick.default.full");
    set("turbo");
    EXPECT_DEATH(env::enumOr(kVar, allowed, "default"),
                 "PSCA_ENV_TEST_VAR='turbo'");
}

TEST_F(EnvTest, StringOrTreatsEmptyAsUnset)
{
    EXPECT_EQ(env::stringOr(kVar, "fallback"), "fallback");
    set("/tmp/cache");
    EXPECT_EQ(env::stringOr(kVar, "fallback"), "/tmp/cache");
    set("");
    EXPECT_EQ(env::stringOr(kVar, "fallback"), "fallback");
}
