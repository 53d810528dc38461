#include "obs/openmetrics.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "obs/histogram.hh"
#include "obs/json.hh"

namespace dfault::obs {

namespace {

/** OpenMetrics float text: finite values reuse the shortest
 *  round-tripping decimal (jsonNumber), non-finite use the spec's
 *  spellings instead of JSON's null. */
std::string
omNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return jsonNumber(v);
}

/** HELP text escaping: backslash and line feed only, per spec. */
std::string
omHelpEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
appendMeta(std::string &out, const std::string &name,
           const std::string &type, const std::string &description)
{
    if (!description.empty())
        out += "# HELP " + name + " " + omHelpEscape(description) + "\n";
    out += "# TYPE " + name + " " + type + "\n";
}

void
appendGauge(std::string &out, const std::string &name,
            const std::string &description, double value)
{
    appendMeta(out, name, "gauge", description);
    out += name + " " + omNumber(value) + "\n";
}

/** One cumulative `le` bucket line. */
void
appendBucket(std::string &out, const std::string &name,
             const std::string &le, std::uint64_t cumulative)
{
    out += name + "_bucket{le=\"" + le + "\"} " +
           std::to_string(cumulative) + "\n";
}

void
appendHistogram(std::string &out, const std::string &name,
                const std::string &description,
                const HistogramSnapshot &snap)
{
    appendMeta(out, name, "histogram", description);
    // Shards bump their count before their bucket, so a snapshot taken
    // mid-record can hold count > zeros + sum(buckets). Derive the
    // exposed total from the buckets themselves: the document then
    // always satisfies the lint invariant +Inf == _count == last
    // cumulative value, at the cost of trailing count() by at most the
    // few records in flight.
    std::uint64_t derived = snap.zeros;
    std::uint64_t cumulative = snap.zeros;
    for (const auto &[index, n] : snap.buckets)
        derived += n;
    for (const auto &[index, n] : snap.buckets) {
        cumulative += n;
        const double edge =
            index + 1 < Histogram::kBucketCount
                ? Histogram::bucketLowerEdge(index + 1)
                : std::ldexp(1.0, Histogram::kMinExp2);
        appendBucket(out, name, omNumber(edge), cumulative);
    }
    appendBucket(out, name, "+Inf", derived);
    out += name + "_count " + std::to_string(derived) + "\n";
    out += name + "_sum " + omNumber(snap.sum) + "\n";
    // A family can be a histogram or a summary, not both; expose the
    // streaming quantiles/extrema as sibling gauge families.
    appendGauge(out, name + "_p50", "", snap.p50());
    appendGauge(out, name + "_p90", "", snap.p90());
    appendGauge(out, name + "_p99", "", snap.p99());
    appendGauge(out, name + "_p999", "", snap.p999());
    appendGauge(out, name + "_min", "", snap.min);
    appendGauge(out, name + "_max", "", snap.max);
}

} // namespace

std::string
openMetricsName(const std::string &stat_name)
{
    std::string out;
    out.reserve(stat_name.size() + 1);
    for (const char c : stat_name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')
            out += c;
        else
            out += '_';
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
        out.insert(out.begin(), '_');
    return out;
}

std::string
openMetricsText(const std::vector<StatSample> &samples)
{
    std::string out;
    out.reserve(256 + samples.size() * 96);
    for (const StatSample &s : samples) {
        const std::string name = openMetricsName(s.name);
        switch (s.kind) {
          case StatKind::Counter:
            appendMeta(out, name, "counter", s.description);
            out += name + "_total " +
                   std::to_string(
                       static_cast<std::uint64_t>(s.value)) +
                   "\n";
            break;
          case StatKind::Gauge:
          case StatKind::Formula:
            appendGauge(out, name, s.description, s.value);
            break;
          case StatKind::Histogram:
            if (s.hist)
                appendHistogram(out, name, s.description, *s.hist);
            break;
        }
    }
    out += "# EOF\n";
    return out;
}

std::string
openMetricsText(const Registry *registry)
{
    const Registry &reg =
        registry != nullptr ? *registry : Registry::instance();
    return openMetricsText(reg.sample());
}

MetricsServer::~MetricsServer()
{
    stop();
}

bool
MetricsServer::start(int port, Renderer renderer)
{
    if (running())
        return true;
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        DFAULT_WARN("metrics server: socket() failed: ",
                    std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 16) != 0) {
        DFAULT_WARN("metrics server: cannot listen on 127.0.0.1:", port,
                    ": ", std::strerror(errno),
                    " (metrics file exposition still active)");
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = static_cast<int>(ntohs(bound.sin_port));
    else
        port_ = port;

    renderer_ = std::move(renderer);
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { serveLoop(); });
    return true;
}

void
MetricsServer::stop()
{
    if (!running())
        return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    port_ = -1;
}

void
MetricsServer::serveLoop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
        if (ready <= 0)
            continue; // timeout or EINTR: re-check the stop flag
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Drain (and ignore) the request line; every path serves the
        // same document.
        char req[1024];
        (void)::recv(fd, req, sizeof(req), 0);

        const std::string body = renderer_ ? renderer_() : "# EOF\n";
        std::string response =
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: application/openmetrics-text; "
            "version=1.0.0; charset=utf-8\r\n"
            "Content-Length: " +
            std::to_string(body.size()) +
            "\r\n"
            "Connection: close\r\n"
            "\r\n" +
            body;
        const char *p = response.data();
        std::size_t remaining = response.size();
        // Count before sending: a client that has read the full
        // response must observe the request as served.
        requests_.fetch_add(1, std::memory_order_relaxed);
        while (remaining > 0) {
            const ssize_t n = ::send(fd, p, remaining, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            p += n;
            remaining -= static_cast<std::size_t>(n);
        }
        ::close(fd);
    }
}

} // namespace dfault::obs
