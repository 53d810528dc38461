#include "fi/injector.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"

namespace dfault::fi {

namespace {

/** Uniform [0,1) draw from a stateless hash of the schedule inputs. */
double
scheduleUniform(std::uint64_t seed, std::string_view point,
                std::uint64_t key, int attempt)
{
    std::uint64_t h = hashCombine(seed, fnv1a64(point));
    h = hashCombine(h, key);
    h = hashCombine(h, static_cast<std::uint64_t>(attempt));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
parseU64(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const std::string copy(text);
    const unsigned long long v = std::strtoull(copy.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseDouble(std::string_view text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const std::string copy(text);
    const double v = std::strtod(copy.c_str(), &end);
    if (end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

void
applyParam(const std::string &point, FaultSpec &spec, std::string_view key,
           std::string_view value)
{
    std::uint64_t u = 0;
    double d = 0.0;
    if (key == "rate") {
        if (!parseDouble(value, d) || !(d >= 0.0) || !(d <= 1.0))
            DFAULT_FATAL("fault spec '", point, "': rate must be in [0,1], "
                         "got '", std::string(value), "'");
        spec.rate = d;
    } else if (key == "every") {
        if (!parseU64(value, u))
            DFAULT_FATAL("fault spec '", point, "': bad every '",
                         std::string(value), "'");
        spec.every = u;
    } else if (key == "below") {
        // strtoull silently wraps a negative literal to a huge value,
        // which would turn "never fire" into "always fire" — reject it
        // by name instead.
        if (value.starts_with('-'))
            DFAULT_FATAL("fault spec '", point, "': below must be >= 0, "
                         "got '", std::string(value), "'");
        if (!parseU64(value, u))
            DFAULT_FATAL("fault spec '", point, "': bad below '",
                         std::string(value), "'");
        spec.below = u;
    } else if (key == "max_attempt") {
        if (!parseU64(value, u) || u > (1u << 30))
            DFAULT_FATAL("fault spec '", point, "': bad max_attempt '",
                         std::string(value), "'");
        spec.maxAttempt = static_cast<int>(u);
    } else if (key == "count") {
        if (!parseU64(value, u))
            DFAULT_FATAL("fault spec '", point, "': bad count '",
                         std::string(value), "'");
        spec.count = u;
    } else if (key == "after") {
        if (!parseU64(value, u))
            DFAULT_FATAL("fault spec '", point, "': bad after '",
                         std::string(value), "'");
        spec.after = u;
    } else if (key == "seed") {
        if (!parseU64(value, u))
            DFAULT_FATAL("fault spec '", point, "': bad seed '",
                         std::string(value), "'");
        spec.seed = u;
    } else if (key == "code") {
        if (!parseU64(value, u) || u > 255)
            DFAULT_FATAL("fault spec '", point, "': bad code '",
                         std::string(value), "'");
        spec.exitCode = static_cast<int>(u);
    } else if (key == "ms") {
        // Bounded by design: injected stalls must trip watchdogs, not
        // recreate the unbounded hangs they stand in for.
        if (!parseU64(value, u) || u > 600000)
            DFAULT_FATAL("fault spec '", point, "': ms must be in "
                         "[0, 600000], got '", std::string(value), "'");
        spec.sleepMs = u;
    } else {
        DFAULT_FATAL("fault spec '", point, "': unknown parameter '",
                     std::string(key), "'");
    }
}

} // namespace

Injector &
Injector::instance()
{
    static Injector injector;
    static std::once_flag armedFromEnv;
    std::call_once(armedFromEnv, [] {
        if (const char *env = std::getenv("DFAULT_FAULTS");
            env != nullptr && *env != '\0')
            injector.arm(env);
    });
    return injector;
}

void
Injector::arm(const std::string &spec)
{
    std::size_t start = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    while (start <= spec.size()) {
        std::size_t end = spec.find(';', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string_view entry =
            std::string_view(spec).substr(start, end - start);
        start = end + 1;
        if (entry.empty())
            continue;

        const std::size_t colon = entry.find(':');
        const std::string name(entry.substr(0, colon));
        if (name.empty())
            DFAULT_FATAL("fault spec: empty point name in '", spec, "'");
        for (const char c : name)
            if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '.' &&
                c != '_')
                DFAULT_FATAL("fault spec: bad point name '", name, "'");

        FaultSpec parsed;
        if (colon != std::string_view::npos) {
            std::string_view params = entry.substr(colon + 1);
            while (!params.empty()) {
                std::size_t comma = params.find(',');
                const std::string_view kv = params.substr(0, comma);
                params = comma == std::string_view::npos
                             ? std::string_view()
                             : params.substr(comma + 1);
                const std::size_t eq = kv.find('=');
                if (eq == std::string_view::npos)
                    DFAULT_FATAL("fault spec '", name, "': expected k=v, "
                                 "got '", std::string(kv), "'");
                applyParam(name, parsed, kv.substr(0, eq),
                           kv.substr(eq + 1));
            }
        }
        points_[name] = Point{parsed, 0, 0};
    }
    armed_.store(!points_.empty(), std::memory_order_relaxed);
}

void
Injector::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    points_.clear();
    armed_.store(false, std::memory_order_relaxed);
}

bool
Injector::shouldFire(std::string_view point, std::uint64_t key, int attempt)
{
    if (!armed())
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(point);
    if (it == points_.end())
        return false;
    Point &p = it->second;
    const std::uint64_t check = p.checks++;
    if (check < p.spec.after)
        return false;
    if (attempt >= p.spec.maxAttempt)
        return false;
    if (p.spec.every != 0 && key % p.spec.every != 0)
        return false;
    if (key >= p.spec.below)
        return false;
    if (p.fired >= p.spec.count)
        return false;
    if (p.spec.rate < 1.0 &&
        scheduleUniform(p.spec.seed, point, key, attempt) >= p.spec.rate)
        return false;
    ++p.fired;
    return true;
}

void
Injector::maybeThrow(std::string_view point, std::uint64_t key, int attempt)
{
    if (shouldFire(point, key, attempt)) {
        const std::string name(point);
        throw FaultError(name,
                         detail::concat("injected fault '", name, "' (key ",
                                        key, ", attempt ", attempt, ")"));
    }
}

void
Injector::maybeKill(std::string_view point, std::uint64_t key)
{
    if (!shouldFire(point, key, 0))
        return;
    int code = 9;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const Point *p = findLocked(point); p != nullptr)
            code = p->spec.exitCode;
    }
    DFAULT_WARN("injected kill at '", std::string(point), "' (key ", key,
                "), exiting ", code);
    std::_Exit(code);
}

bool
Injector::maybeStall(std::string_view point, std::uint64_t key, int attempt)
{
    if (!shouldFire(point, key, attempt))
        return false;
    std::uint64_t ms = 1000;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const Point *p = findLocked(point); p != nullptr)
            ms = p->spec.sleepMs;
    }
    DFAULT_WARN("injected stall at '", std::string(point), "' (key ", key,
                ", attempt ", attempt, "): sleeping ", ms, " ms");
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return true;
}

std::uint64_t
Injector::firedCount(std::string_view point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Point *p = findLocked(point);
    return p != nullptr ? p->fired : 0;
}

std::vector<std::pair<std::string, std::uint64_t>>
Injector::firedCounts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(points_.size());
    for (const auto &[name, point] : points_)
        out.emplace_back(name, point.fired);
    return out;
}

const Injector::Point *
Injector::findLocked(std::string_view point) const
{
    const auto it = points_.find(point);
    return it == points_.end() ? nullptr : &it->second;
}

} // namespace dfault::fi
