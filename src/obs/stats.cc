#include "obs/stats.hh"

#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "fi/durable.hh"
#include "obs/json.hh"

namespace dfault::obs {

namespace {

bool
validStatName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    bool prev_dot = false;
    for (const char c : name) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return false;
    }
    return true;
}

} // namespace

std::string
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Formula:
        return "formula";
      case StatKind::Histogram:
        return "histogram";
    }
    DFAULT_PANIC("unreachable stat kind");
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Registry::Entry &
Registry::findOrCreate(const std::string &name, StatKind kind,
                       const std::string &description)
{
    if (!validStatName(name))
        DFAULT_PANIC("invalid stat name '", name,
                     "': want dotted [A-Za-z0-9_] segments");
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != kind)
            DFAULT_PANIC("stat '", name, "' already registered as a ",
                         statKindName(it->second.kind),
                         ", requested as a ", statKindName(kind));
        return it->second;
    }
    Entry entry;
    entry.kind = kind;
    entry.description = description;
    return entries_.emplace(name, std::move(entry)).first->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &description)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = findOrCreate(name, StatKind::Counter, description);
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &description)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = findOrCreate(name, StatKind::Gauge, description);
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Formula &
Registry::formula(const std::string &name, std::function<double()> fn,
                  const std::string &description)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = findOrCreate(name, StatKind::Formula, description);
    if (!e.formula)
        e.formula = std::make_unique<Formula>(std::move(fn));
    return *e.formula;
}

Histogram &
Registry::histogram(const std::string &name,
                    const std::string &description)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = findOrCreate(name, StatKind::Histogram, description);
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>();
    return *e.histogram;
}

bool
Registry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(name) > 0;
}

StatKind
Registry::kindOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end())
        DFAULT_PANIC("unknown stat '", name, "'");
    return it->second.kind;
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &kv : entries_)
        out.push_back(kv.first);
    return out;
}

double
Registry::value(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end())
        DFAULT_PANIC("unknown stat '", name, "'");
    const Entry &e = it->second;
    switch (e.kind) {
      case StatKind::Counter:
        return static_cast<double>(e.counter->value());
      case StatKind::Gauge:
        return e.gauge->value();
      case StatKind::Formula:
        return e.formula->value();
      case StatKind::Histogram:
        return e.histogram->snapshot().mean();
    }
    DFAULT_PANIC("unreachable stat kind");
}

std::vector<StatSample>
Registry::sample() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<StatSample> out;
    out.reserve(entries_.size());
    for (const auto &[name, e] : entries_) {
        StatSample s;
        s.name = name;
        switch (e.kind) {
          case StatKind::Counter:
            s.value = static_cast<double>(e.counter->value());
            break;
          case StatKind::Gauge:
            s.value = e.gauge->value();
            break;
          case StatKind::Formula:
            s.value = e.formula->value();
            break;
          case StatKind::Histogram:
            s.hist = e.histogram->snapshot();
            s.value = s.hist->mean();
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : entries_) {
        Entry &e = kv.second;
        switch (e.kind) {
          case StatKind::Counter:
            e.counter->reset();
            break;
          case StatKind::Gauge:
            e.gauge->reset();
            break;
          case StatKind::Formula:
            break; // derived; re-evaluates from its inputs
          case StatKind::Histogram:
            e.histogram->reset();
            break;
        }
    }
}

void
Registry::dumpText(std::FILE *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &kv : entries_) {
        const std::string &name = kv.first;
        const Entry &e = kv.second;
        const char *desc = e.description.c_str();
        switch (e.kind) {
          case StatKind::Counter:
            std::fprintf(out, "%-44s %20llu  # %s\n", name.c_str(),
                         static_cast<unsigned long long>(
                             e.counter->value()),
                         desc);
            break;
          case StatKind::Gauge:
            std::fprintf(out, "%-44s %20.6g  # %s\n", name.c_str(),
                         e.gauge->value(), desc);
            break;
          case StatKind::Formula:
            std::fprintf(out, "%-44s %20.6g  # %s\n", name.c_str(),
                         e.formula->value(), desc);
            break;
          case StatKind::Histogram: {
            const HistogramSnapshot snap = e.histogram->snapshot();
            std::fprintf(out, "%-44s %20llu  # %s (count)\n",
                         (name + ".count").c_str(),
                         static_cast<unsigned long long>(snap.count),
                         desc);
            if (snap.count == 0)
                break;
            std::fprintf(out, "%-44s %20.6g  # mean\n",
                         (name + ".mean").c_str(), snap.mean());
            std::fprintf(out, "%-44s %20.6g  # min\n",
                         (name + ".min").c_str(), snap.min);
            std::fprintf(out, "%-44s %20.6g  # p50\n",
                         (name + ".p50").c_str(), snap.p50());
            std::fprintf(out, "%-44s %20.6g  # p90\n",
                         (name + ".p90").c_str(), snap.p90());
            std::fprintf(out, "%-44s %20.6g  # p99\n",
                         (name + ".p99").c_str(), snap.p99());
            std::fprintf(out, "%-44s %20.6g  # p999\n",
                         (name + ".p999").c_str(), snap.p999());
            std::fprintf(out, "%-44s %20.6g  # max\n",
                         (name + ".max").c_str(), snap.max);
            break;
          }
        }
    }
}

std::string
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter root;
    for (const auto &kv : entries_) {
        const Entry &e = kv.second;
        switch (e.kind) {
          case StatKind::Counter:
            root.field(kv.first, e.counter->value());
            break;
          case StatKind::Gauge:
            root.field(kv.first, e.gauge->value());
            break;
          case StatKind::Formula:
            root.field(kv.first, e.formula->value());
            break;
          case StatKind::Histogram: {
            // The "kind" marker tells a JSON consumer the object is a
            // histogram; whether it is compared is decided by its name
            // (obs::digestExcludes), like every other stat.
            const HistogramSnapshot snap = e.histogram->snapshot();
            JsonWriter sub;
            sub.field("kind", "histogram");
            sub.field("count", snap.count);
            sub.field("zeros", snap.zeros);
            if (snap.count > 0) {
                sub.field("mean", snap.mean());
                sub.field("min", snap.min);
                sub.field("max", snap.max);
                sub.field("p50", snap.p50());
                sub.field("p90", snap.p90());
                sub.field("p99", snap.p99());
                sub.field("p999", snap.p999());
            }
            std::string buckets = "[";
            bool first = true;
            for (const auto &[index, n] : snap.buckets) {
                if (!first)
                    buckets += ',';
                first = false;
                buckets += "[" + std::to_string(index) + "," +
                           std::to_string(n) + "]";
            }
            buckets += ']';
            sub.fieldRaw("buckets", buckets);
            root.fieldRaw(kv.first, sub.str());
            break;
          }
        }
    }
    return root.str();
}

bool
Registry::writeFile(const std::string &path) const
{
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    std::string body;
    if (json) {
        body = toJson();
        body += '\n';
    } else {
        // Render the text dump into memory so the file write goes
        // through the atomic temp-fsync-rename path like every other
        // artifact.
        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *mem = open_memstream(&buf, &len);
        if (mem == nullptr)
            return false;
        dumpText(mem);
        std::fclose(mem);
        body.assign(buf, len);
        std::free(buf);
    }
    return fi::atomicWriteFile(path, body);
}

} // namespace dfault::obs
