/**
 * @file
 * Unit tests of the hierarchical stats registry: naming rules,
 * idempotent registration, histogram bucketing, formula evaluation
 * and the text/JSON dump formats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/stats.hh"

namespace dfault::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Registry reg;
    Counter &c = reg.counter("a.b.events");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    ++c;
    c += 3;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAtomicAdd)
{
    Registry reg;
    Gauge &g = reg.gauge("a.level");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.25);
    EXPECT_DOUBLE_EQ(g.value(), 3.75);
}

TEST(Registry, RegistrationIsIdempotent)
{
    Registry reg;
    Counter &a = reg.counter("x.hits", "first");
    Counter &b = reg.counter("x.hits", "second description ignored");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchPanics)
{
    Registry reg;
    reg.counter("x.hits");
    EXPECT_DEATH({ reg.gauge("x.hits"); }, "x.hits");
}

TEST(Registry, RejectsMalformedNames)
{
    Registry reg;
    EXPECT_DEATH({ reg.counter(""); }, "stat name");
    EXPECT_DEATH({ reg.counter(".leading"); }, "stat name");
    EXPECT_DEATH({ reg.counter("trailing."); }, "stat name");
    EXPECT_DEATH({ reg.counter("a..b"); }, "stat name");
    EXPECT_DEATH({ reg.counter("a.b-c"); }, "stat name");
    EXPECT_DEATH({ reg.counter("a b"); }, "stat name");
}

TEST(Registry, AcceptsDottedAlnumPaths)
{
    Registry reg;
    reg.counter("platform.mem.l2.misses");
    reg.counter("core_0.wait_cycles");
    reg.counter("single");
    EXPECT_TRUE(reg.has("platform.mem.l2.misses"));
    EXPECT_EQ(reg.kindOf("single"), StatKind::Counter);
    EXPECT_FALSE(reg.has("absent"));
}

TEST(Registry, NamesAreSortedHierarchically)
{
    Registry reg;
    reg.counter("b.z");
    reg.counter("a.y");
    reg.counter("a.x");
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.x");
    EXPECT_EQ(names[1], "a.y");
    EXPECT_EQ(names[2], "b.z");
}

TEST(Formula, DerivesFromOtherStats)
{
    Registry reg;
    Counter &hits = reg.counter("c.hits");
    Counter &misses = reg.counter("c.misses");
    Formula &rate = reg.formula("c.miss_rate", [&] {
        const double total =
            static_cast<double>(hits.value() + misses.value());
        return total > 0.0
                   ? static_cast<double>(misses.value()) / total
                   : 0.0;
    });
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);
    hits += 3;
    misses += 1;
    EXPECT_DOUBLE_EQ(rate.value(), 0.25);
    EXPECT_DOUBLE_EQ(reg.value("c.miss_rate"), 0.25);
}

TEST(Registry, ValueReadsEveryKind)
{
    Registry reg;
    reg.counter("v.c") += 7;
    reg.gauge("v.g").set(1.5);
    reg.histogram("v.h").record(4.0);
    reg.formula("v.f", [] { return 9.0; });
    EXPECT_DOUBLE_EQ(reg.value("v.c"), 7.0);
    EXPECT_DOUBLE_EQ(reg.value("v.g"), 1.5);
    EXPECT_DOUBLE_EQ(reg.value("v.h"), 4.0); // mean
    EXPECT_DOUBLE_EQ(reg.value("v.f"), 9.0);
}

TEST(Registry, ResetAllZeroesEverythingButFormulas)
{
    Registry reg;
    Counter &c = reg.counter("r.c");
    c += 5;
    reg.gauge("r.g").set(3.0);
    reg.histogram("r.h").record(0.5);
    reg.formula("r.f", [&] { return static_cast<double>(c.value()); });
    reg.resetAll();
    EXPECT_DOUBLE_EQ(reg.value("r.c"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("r.g"), 0.0);
    EXPECT_EQ(reg.histogram("r.h").count(), 0u);
    EXPECT_DOUBLE_EQ(reg.value("r.f"), 0.0); // re-derives from the counter
}

TEST(Registry, TextDumpListsStatsWithDescriptions)
{
    Registry reg;
    reg.counter("t.events", "things that happened") += 3;
    reg.histogram("t.sizes", "request sizes").record(1.0);

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    reg.dumpText(tmp);
    std::rewind(tmp);
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), tmp))
        text += buf;
    std::fclose(tmp);

    EXPECT_NE(text.find("t.events"), std::string::npos);
    EXPECT_NE(text.find("things that happened"), std::string::npos);
    EXPECT_NE(text.find("t.sizes.count"), std::string::npos);
    EXPECT_NE(text.find("t.sizes.mean"), std::string::npos);
    EXPECT_NE(text.find("t.sizes.p50"), std::string::npos);
}

TEST(Registry, JsonDumpIsWellFormedAndComplete)
{
    Registry reg;
    reg.counter("j.c") += 2;
    reg.gauge("j.g").set(0.5);
    reg.histogram("j.h").record(1.5);
    const std::string json = reg.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"j.c\":2"), std::string::npos);
    EXPECT_NE(json.find("\"j.g\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"j.h\":{\"kind\":\"histogram\",\"count\":1"),
              std::string::npos);
}

TEST(Registry, WriteFilePicksFormatFromSuffix)
{
    Registry reg;
    reg.counter("w.c") += 1;

    const std::string dir = ::testing::TempDir();
    const std::string json_path = dir + "dfault_stats_test.json";
    const std::string text_path = dir + "dfault_stats_test.txt";
    ASSERT_TRUE(reg.writeFile(json_path));
    ASSERT_TRUE(reg.writeFile(text_path));

    std::stringstream json, text;
    json << std::ifstream(json_path).rdbuf();
    text << std::ifstream(text_path).rdbuf();
    EXPECT_EQ(json.str().front(), '{');
    EXPECT_NE(text.str().find("w.c"), std::string::npos);
    EXPECT_EQ(text.str().find('{'), std::string::npos);

    std::remove(json_path.c_str());
    std::remove(text_path.c_str());
    EXPECT_FALSE(reg.writeFile("/nonexistent-dir/x/y.txt"));
}

TEST(Registry, GlobalInstanceIsAProcessSingleton)
{
    EXPECT_EQ(&Registry::instance(), &Registry::instance());
}

} // namespace
} // namespace dfault::obs
