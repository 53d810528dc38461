/**
 * @file
 * Prometheus / OpenMetrics text exposition of the stats registry.
 *
 * openMetricsText() renders a registry sample as an OpenMetrics 1.0
 * document: counters become `<name>_total`, gauges and formulas plain
 * gauges, and log-bucketed Histograms become OpenMetrics histograms
 * with cumulative `le`-labelled buckets, `_sum` and `_count`, plus
 * their streaming quantiles and extrema as companion gauge families
 * (`<name>_p50/_p90/_p99/_p999/_min/_max`), since one family cannot be
 * both a histogram and a summary. Dotted stat paths are sanitized to
 * the OpenMetrics name grammar (dots become underscores), and the
 * document always ends with the spec's `# EOF` terminator —
 * tools/metrics_lint validates all of this in CI.
 *
 * The sampler writes this text atomically (fi::atomicWriteFile) to
 * --metrics-out on every tick, which is the Prometheus node-exporter
 * "textfile collector" pattern: a scraper reads either the previous
 * complete snapshot or the new complete snapshot, never a torn one.
 * MetricsServer optionally serves the same text over a localhost-only
 * `GET /metrics` endpoint for live scraping.
 */

#ifndef DFAULT_OBS_OPENMETRICS_HH
#define DFAULT_OBS_OPENMETRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hh"

namespace dfault::obs {

/** Sanitize a dotted stat path to the OpenMetrics name grammar
 *  ([a-zA-Z_:][a-zA-Z0-9_:]*): dots map to underscores and a leading
 *  digit is prefixed with '_'. */
std::string openMetricsName(const std::string &stat_name);

/** Render @p samples (Registry::sample() order) as one complete
 *  OpenMetrics text document, `# EOF` included. */
std::string openMetricsText(const std::vector<StatSample> &samples);

/** Convenience: openMetricsText(reg.sample()); defaults to the global
 *  registry. */
std::string openMetricsText(const Registry *registry = nullptr);

/**
 * Minimal localhost-only HTTP server for live scraping. One thread
 * accepts connections on 127.0.0.1:<port> and answers every request
 * with the renderer's current output (the request line is read and
 * ignored — `GET /metrics` and `GET /` behave identically). Not a web
 * server: one request per connection, no keep-alive, no TLS; the bind
 * address is hardwired to loopback so the endpoint is never reachable
 * off-host.
 */
class MetricsServer
{
  public:
    using Renderer = std::function<std::string()>;

    MetricsServer() = default;
    ~MetricsServer();
    MetricsServer(const MetricsServer &) = delete;
    MetricsServer &operator=(const MetricsServer &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 picks an ephemeral port, reported by
     * port()) and start the accept thread. Returns false — with a
     * warning, not a fatal — when the socket cannot be created or
     * bound, so a busy port degrades to file-only exposition.
     */
    bool start(int port, Renderer renderer);

    /** Stop the accept thread and close the socket (idempotent). */
    void stop();

    bool running() const { return thread_.joinable(); }

    /** The bound port (differs from the requested one when 0 was
     *  passed); -1 when the server is not running. */
    int port() const { return port_; }

    /** Requests answered since start(). */
    std::uint64_t requestsServed() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    void serveLoop();

    Renderer renderer_;
    int listenFd_ = -1;
    int port_ = -1;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::thread thread_;
};

} // namespace dfault::obs

#endif // DFAULT_OBS_OPENMETRICS_HH
