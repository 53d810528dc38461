/**
 * @file
 * OpenMetrics exposition tests: name sanitization, per-kind rendering,
 * cumulative-bucket invariants (the exact properties tools/metrics_lint
 * enforces in CI) and the localhost scrape server.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/histogram.hh"
#include "obs/openmetrics.hh"
#include "obs/stats.hh"

#ifdef __unix__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace dfault::obs {
namespace {

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(OpenMetricsName, SanitizesToSpecGrammar)
{
    EXPECT_EQ(openMetricsName("campaign.cell_ns"), "campaign_cell_ns");
    EXPECT_EQ(openMetricsName("a.b.c"), "a_b_c");
    EXPECT_EQ(openMetricsName("already_fine"), "already_fine");
    EXPECT_EQ(openMetricsName("0starts.digit"), "_0starts_digit");
    EXPECT_EQ(openMetricsName(""), "_");
}

TEST(OpenMetricsText, RendersCounterGaugeFormula)
{
    Registry reg;
    reg.counter("par.tasks", "tasks run").inc(7);
    reg.gauge("mem.level", "fill level").set(0.5);
    reg.formula("mem.ratio", [] { return 2.0; }, "a ratio");

    const std::string text = openMetricsText(&reg);
    EXPECT_TRUE(contains(text, "# TYPE par_tasks counter\n"));
    EXPECT_TRUE(contains(text, "# HELP par_tasks tasks run\n"));
    EXPECT_TRUE(contains(text, "par_tasks_total 7\n"));
    EXPECT_TRUE(contains(text, "# TYPE mem_level gauge\n"));
    EXPECT_TRUE(contains(text, "mem_level 0.5\n"));
    EXPECT_TRUE(contains(text, "# TYPE mem_ratio gauge\n"));
    EXPECT_TRUE(contains(text, "mem_ratio 2\n"));
    // Spec terminator, once, at the very end.
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    EXPECT_EQ(text.find("# EOF"), text.rfind("# EOF"));
}

TEST(OpenMetricsText, HistogramCountMatchesInfBucket)
{
    Registry reg;
    Histogram &h = reg.histogram("task.ns", "task latency");
    h.record(100.0);
    h.record(1000.0);
    h.record(1000.0);
    h.record(0.0); // zero bin: still counted

    const std::string text = openMetricsText(&reg);
    EXPECT_TRUE(contains(text, "# TYPE task_ns histogram\n"));
    EXPECT_TRUE(contains(text, "task_ns_bucket{le=\"+Inf\"} 4\n"));
    EXPECT_TRUE(contains(text, "task_ns_count 4\n"));
    // jsonNumber renders shortest-round-trip, here scientific.
    EXPECT_TRUE(contains(text, "task_ns_sum 2.1e+03\n"));
    // Streaming quantiles ride along as sibling gauge families.
    EXPECT_TRUE(contains(text, "# TYPE task_ns_p50 gauge\n"));
    EXPECT_TRUE(contains(text, "# TYPE task_ns_p99 gauge\n"));
    EXPECT_TRUE(contains(text, "# TYPE task_ns_p999 gauge\n"));
    EXPECT_TRUE(contains(text, "task_ns_min 0\n"));
    EXPECT_TRUE(contains(text, "task_ns_max 1e+03\n"));
}

TEST(OpenMetricsText, HistogramBucketCountsAreNondecreasing)
{
    Registry reg;
    Histogram &h = reg.histogram("lat.ns");
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));

    const std::string text = openMetricsText(&reg);
    // Walk every lat_ns_bucket line and check cumulative monotonicity
    // (metrics_lint's core histogram invariant).
    double last_count = -1.0;
    std::size_t pos = 0;
    int buckets = 0;
    while ((pos = text.find("lat_ns_bucket{le=\"", pos)) !=
           std::string::npos) {
        const std::size_t space = text.find(' ', pos);
        ASSERT_NE(space, std::string::npos);
        const double count = std::stod(text.substr(space + 1));
        EXPECT_GE(count, last_count);
        last_count = count;
        ++buckets;
        pos = space;
    }
    EXPECT_GT(buckets, 10); // 1000 distinct values span many buckets
    EXPECT_DOUBLE_EQ(last_count, 1000.0); // +Inf holds everything
}

TEST(OpenMetricsText, HelpEscapesBackslashAndNewline)
{
    Registry reg;
    reg.counter("a.b", "line1\nline2 \\ backslash");
    const std::string text = openMetricsText(&reg);
    EXPECT_TRUE(
        contains(text, "# HELP a_b line1\\nline2 \\\\ backslash\n"));
}

TEST(OpenMetricsText, EmptyRegistryIsJustEof)
{
    Registry reg;
    EXPECT_EQ(openMetricsText(&reg), "# EOF\n");
}

#ifdef __unix__
/** One blocking GET against 127.0.0.1:port; "" on any failure. */
std::string
httpGet(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)::send(fd, request, sizeof(request) - 1, 0);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return out;
}

TEST(MetricsServer, ServesRendererOutputOnLoopback)
{
    MetricsServer server;
    const bool started =
        server.start(0, [] { return std::string("# EOF\n"); });
    if (!started)
        GTEST_SKIP() << "cannot bind loopback in this environment";
    ASSERT_GT(server.port(), 0);

    const std::string response = httpGet(server.port());
    if (response.empty()) {
        server.stop();
        GTEST_SKIP() << "cannot connect to loopback";
    }
    EXPECT_TRUE(contains(response, "HTTP/1.0 200 OK"));
    EXPECT_TRUE(contains(response, "application/openmetrics-text"));
    EXPECT_TRUE(contains(response, "# EOF\n"));
    EXPECT_GE(server.requestsServed(), 1u);

    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), -1);
}

TEST(MetricsServer, StopIsIdempotentAndRestartable)
{
    MetricsServer server;
    server.stop(); // never started: no-op
    const bool started = server.start(0, [] { return std::string(); });
    if (!started)
        GTEST_SKIP() << "cannot bind loopback in this environment";
    const int first_port = server.port();
    EXPECT_GT(first_port, 0);
    server.stop();
    server.stop();
    ASSERT_TRUE(server.start(0, [] { return std::string(); }));
    EXPECT_GT(server.port(), 0);
    server.stop();
}
#endif // __unix__

} // namespace
} // namespace dfault::obs
