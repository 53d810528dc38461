#include "obs/deferral.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "obs/stats.hh"

namespace dfault::obs {

namespace {

thread_local StatsDeferral *t_active = nullptr;

const char *
opKindTag(StatOp::Kind kind)
{
    switch (kind) {
      case StatOp::Kind::CounterInc:
        return "c";
      case StatOp::Kind::GaugeAdd:
        return "ga";
      case StatOp::Kind::HistRecord:
        return "h";
    }
    DFAULT_PANIC("unreachable stat-op kind");
}

bool
opKindFromTag(const std::string &tag, StatOp::Kind &out)
{
    if (tag == "c")
        out = StatOp::Kind::CounterInc;
    else if (tag == "ga")
        out = StatOp::Kind::GaugeAdd;
    else if (tag == "h")
        out = StatOp::Kind::HistRecord;
    else
        return false;
    return true;
}

/** A jsonNumber() null (non-finite input) parses back as NaN. */
double
numberOrNan(const JsonValue &v)
{
    return v.kind == JsonValue::Kind::Number
               ? v.number
               : std::numeric_limits<double>::quiet_NaN();
}

} // namespace

void
deferralCapture(StatOp op)
{
    t_active->ops_.push_back(std::move(op));
}

StatsDeferral::StatsDeferral() : prev_(t_active)
{
    t_active = this;
}

StatsDeferral::~StatsDeferral()
{
    t_active = prev_;
}

std::vector<StatOp>
StatsDeferral::take()
{
    std::vector<StatOp> out;
    out.swap(ops_);
    return out;
}

bool
StatsDeferral::active()
{
    return t_active != nullptr;
}

void
publishCounter(const std::string &name, const std::string &description,
               std::uint64_t n)
{
    if (t_active != nullptr) {
        deferralCapture({StatOp::Kind::CounterInc, name, description,
                         static_cast<double>(n)});
        return;
    }
    Registry::instance().counter(name, description).inc(n);
}

void
publishGaugeAdd(const std::string &name, const std::string &description,
                double delta)
{
    if (t_active != nullptr) {
        deferralCapture({StatOp::Kind::GaugeAdd, name, description, delta});
        return;
    }
    Registry::instance().gauge(name, description).add(delta);
}

void
publishHistogram(const std::string &name, const std::string &description,
                 double sample)
{
    if (t_active != nullptr) {
        deferralCapture(
            {StatOp::Kind::HistRecord, name, description, sample});
        return;
    }
    Registry::instance().histogram(name, description).record(sample);
}

void
applyStatOps(const std::vector<StatOp> &ops, Registry *registry)
{
    Registry &reg = registry != nullptr ? *registry : Registry::instance();
    for (const StatOp &op : ops) {
        switch (op.kind) {
          case StatOp::Kind::CounterInc:
            reg.counter(op.name, op.description)
                .inc(static_cast<std::uint64_t>(op.value));
            break;
          case StatOp::Kind::GaugeAdd:
            reg.gauge(op.name, op.description).add(op.value);
            break;
          case StatOp::Kind::HistRecord:
            reg.histogram(op.name, op.description).record(op.value);
            break;
        }
    }
}

std::string
statOpsJson(const std::vector<StatOp> &ops)
{
    std::string out = "[";
    for (const StatOp &op : ops) {
        if (out.size() > 1)
            out += ',';
        JsonWriter w;
        w.field("k", opKindTag(op.kind));
        w.field("n", op.name);
        if (!op.description.empty())
            w.field("desc", op.description);
        w.field("v", op.value);
        out += w.str();
    }
    out += ']';
    return out;
}

bool
statOpsFromJson(const JsonValue &array, std::vector<StatOp> &out,
                std::string *error)
{
    const auto fail = [error](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };
    if (!array.isArray())
        return fail("stat ops: expected a JSON array");
    std::vector<StatOp> parsed;
    parsed.reserve(array.array.size());
    for (const JsonValue &item : array.array) {
        if (!item.isObject())
            return fail("stat ops: expected objects in the array");
        const JsonValue *tag = item.find("k");
        const JsonValue *name = item.find("n");
        const JsonValue *value = item.find("v");
        if (tag == nullptr || tag->kind != JsonValue::Kind::String ||
            name == nullptr || name->kind != JsonValue::Kind::String ||
            value == nullptr)
            return fail("stat ops: entry missing k/n/v");
        StatOp op;
        if (!opKindFromTag(tag->string, op.kind))
            return fail("stat ops: unknown kind tag '" + tag->string + "'");
        op.name = name->string;
        if (const JsonValue *desc = item.find("desc");
            desc != nullptr && desc->kind == JsonValue::Kind::String)
            op.description = desc->string;
        op.value = numberOrNan(*value);
        parsed.push_back(std::move(op));
    }
    out = std::move(parsed);
    return true;
}

} // namespace dfault::obs
