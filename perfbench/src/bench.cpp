#include "bench.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "fi/durable.hh"
#include "obs/json.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto at = [&](std::size_t k) {
        std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                         v.end());
        return v[k];
    };
    const double low = at(lo);
    if (lo + 1 >= v.size())
        return low;
    // After nth_element(lo), the next order statistic is the smallest
    // element above position lo.
    const double high = *std::min_element(
        v.begin() + static_cast<long>(lo) + 1, v.end());
    return low + (high - low) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *c = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= c[i];
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(double v)
{
    // Bit pattern, so a last-ulp change is a mismatch; -0/NaN
    // payloads cannot occur in these outputs.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
}

void
Digest::add(std::uint64_t v)
{
    bytes(&v, sizeof v);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

Expectations
Expectations::load(const std::string &path)
{
    std::string error;
    const auto body = dfault::fi::readFile(path, &error);
    if (!body)
        DFAULT_FATAL("cannot read expectations: ", error);
    const auto doc = dfault::obs::jsonParse(*body, &error);
    if (!doc || !doc->isObject())
        DFAULT_FATAL("malformed expectations file ", path, ": ", error);
    Expectations e;
    for (const auto &[key, value] : doc->object)
        if (value.kind == dfault::obs::JsonValue::Kind::String)
            e.values_[key] = value.string;
    return e;
}

std::string
Expectations::get(const std::string &key) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? std::string() : it->second;
}

// ---- tracing ------------------------------------------------------

namespace {

struct OpenSpan
{
    const char *name;
    Clock::time_point start;
    double childSeconds;
};

thread_local std::vector<OpenSpan> tlsStack;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::begin(const char *name)
{
    tlsStack.push_back({name, Clock::now(), 0.0});
}

double
Tracer::end()
{
    const auto now = Clock::now();
    const OpenSpan open = tlsStack.back();
    tlsStack.pop_back();
    const double dur =
        std::chrono::duration<double>(now - open.start).count();
    if (!tlsStack.empty())
        tlsStack.back().childSeconds += dur;
    const std::lock_guard<std::mutex> lock(mutex_);
    Totals *t = nullptr;
    for (auto &[name, totals] : totals_)
        if (name == open.name || std::strcmp(name, open.name) == 0) {
            t = &totals;
            break;
        }
    if (t == nullptr)
        t = &totals_.emplace_back(open.name, Totals{}).second;
    ++t->count;
    t->seconds += dur;
    t->selfSeconds += dur - open.childSeconds;
    return dur;
}

Tracer::Totals
Tracer::totals(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[n, totals] : totals_)
        if (name == n)
            return totals;
    return Totals{};
}

Span::Span(const char *name) : active_(Tracer::instance().enabled())
{
    if (active_)
        Tracer::instance().begin(name);
}

Span::~Span()
{
    if (active_)
        Tracer::instance().end();
}

double
printLedger(const std::string &title, double phaseSeconds,
            const std::vector<LedgerRow> &rows)
{
    std::printf("ledger %s: measured phase %.6f s\n", title.c_str(),
                phaseSeconds);
    double sum = 0.0;
    for (const LedgerRow &r : rows) {
        sum += r.seconds;
        std::printf("  %-28s %12.6f s %7.2f%%\n", r.layer.c_str(),
                    r.seconds,
                    phaseSeconds > 0 ? 100.0 * r.seconds / phaseSeconds
                                     : 0.0);
    }
    const double rest = phaseSeconds - sum;
    const double pct = phaseSeconds > 0 ? 100.0 * rest / phaseSeconds : 0;
    std::printf("  %-28s %12.6f s %7.2f%% (bound %.1f%%)\n",
                "unattributed", rest, pct, kUnattributedBoundPct);
    return pct;
}

double
printSpanLedger(const std::string &title, const char *phase,
                const std::vector<const char *> &layers)
{
    const Tracer &tr = Tracer::instance();
    std::vector<LedgerRow> rows;
    for (const char *layer : layers)
        rows.push_back({layer, tr.totals(layer).selfSeconds});
    return printLedger(title, tr.totals(phase).seconds, rows);
}

// ---- report -------------------------------------------------------

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &m : metrics_)
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    metrics_.push_back({name, {value, unit}});
}

void
Report::ops(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

bool
Report::check(const std::string &what, const std::string &got,
              const std::string &expected)
{
    if (got == expected)
        return true;
    correct_ = false;
    if (!reported_.insert(what).second)
        return false;
    std::printf("CHECK FAILED %s: got %s, expected %s\n", what.c_str(),
                got.c_str(), expected.empty() ? "(none stored)"
                                              : expected.c_str());
    return false;
}

void
Report::fail(const std::string &why)
{
    std::printf("CHECK FAILED %s\n", why.c_str());
    correct_ = false;
}

void
Report::print() const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " +
               dfault::obs::jsonNumber(vu.first) + ", \"unit\": \"" +
               vu.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

Timings
timedIterations(double seconds, int setupReps, int passesPerSetup,
                const std::function<void()> &teardown,
                const std::function<void()> &setup,
                const std::function<double()> &pass)
{
    Timings t;
    const auto start = Clock::now();
    // Stop before a step of median length would overrun the budget,
    // so a run lasts about @p seconds whatever the pass length.
    std::vector<double> steps; ///< a pass and the set-ups before it
    do {
        const auto step = Clock::now();
        if (t.passes.size() % static_cast<std::size_t>(passesPerSetup) == 0)
            for (int r = 0; r < setupReps; ++r) {
                teardown();
                // Hand freed memory back to the kernel, so every set-up
                // faults its memory in as a fresh process does.
                malloc_trim(0);
                const auto s = Clock::now();
                setup();
                t.setups.push_back(secondsSince(s));
            }
        t.passes.push_back(pass());
        steps.push_back(secondsSince(step));
    } while (secondsSince(start) + median(steps) <= seconds);
    return t;
}

namespace {

void
printTimes(const char *what, const std::vector<double> &v)
{
    std::printf("%s: %zu, median %.6f s:", what, v.size(), median(v));
    for (const double x : v)
        std::printf(" %.4f", x);
    std::printf("\n");
}

} // namespace

void
reportTimings(Report &report, const Timings &t, double opsPerPass)
{
    const double wall = median(t.passes);
    report.metric("setup_s", median(t.setups), "s");
    report.metric("wall_s", wall, "s");
    report.metric("ops_per_s", opsPerPass / wall, "1/s");
    printTimes("set-ups", t.setups);
    printTimes("timed passes", t.passes);
}

void
OpLatency::pass(const std::vector<double> &seconds)
{
    p50_.push_back(quantile(seconds, 0.5));
    p99_.push_back(quantile(seconds, 0.99));
    samples_ += seconds.size();
}

void
OpLatency::report(Report &report) const
{
    report.metric("req_p50_us", 1e6 * median(p50_), "us");
    report.metric("req_p99_us", 1e6 * median(p99_), "us");
    std::printf("op latency: %zu samples over %zu passes\n", samples_,
                p50_.size());
}

void
RepeatedOpLatency::pass(const std::vector<double> &seconds)
{
    ops_.resize(seconds.size());
    for (std::size_t i = 0; i < seconds.size(); ++i)
        ops_[i].push_back(seconds[i]);
}

void
RepeatedOpLatency::report(Report &report) const
{
    std::vector<double> medians;
    for (const auto &op : ops_)
        medians.push_back(median(op));
    report.metric("req_p50_us", 1e6 * quantile(medians, 0.5), "us");
    report.metric("req_p99_us", 1e6 * quantile(medians, 0.99), "us");
    std::printf("op latency: medians of %zu ops over %zu passes\n",
                ops_.size(), ops_.empty() ? std::size_t{0} : ops_[0].size());
}

void
tracedPasses(double seconds, const std::function<double()> &pass,
             Report &report)
{
    std::vector<double> plain, traced;
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    do {
        Tracer::instance().setEnabled(false);
        plain.push_back(pass());
        Tracer::instance().setEnabled(true);
        traced.push_back(pass());
    } while (secondsSince(start) + median(plain) + median(traced) <=
             seconds);
    Tracer::instance().setEnabled(false);
    report.metric("par.cpu_per_wall",
                  (processCpuSeconds() - cpu0) / secondsSince(start),
                  "ratio");
    const double p = median(plain), t = median(traced);
    std::printf("trace overhead: traced pass median %.6f s vs untraced "
                "%.6f s over %zu pairs\n",
                t, p, plain.size());
    report.metric("obs.trace_overhead_pct", 100.0 * (t - p) / p, "%");
}

} // namespace perfbench
