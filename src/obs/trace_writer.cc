#include "obs/trace_writer.hh"

#include <algorithm>

#include "fi/durable.hh"
#include "obs/json.hh"

namespace dfault::obs {

namespace {

double
spanSeconds(const TraceEntry &e)
{
    return e.endNs >= e.startNs
               ? static_cast<double>(e.endNs - e.startNs) * 1e-9
               : 0.0;
}

/** Slice path: a task submitted outside any phase reports as "task". */
const std::string &
pathOf(const TraceEntry &e)
{
    return e.path.empty() ? e.name : e.path;
}

} // namespace

std::string
traceJson(const std::vector<TraceEntry> &entries)
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const auto append = [&](const std::string &event) {
        if (!first)
            out += ',';
        first = false;
        out += event;
    };

    append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"args\":{\"name\":\"dfault\"}}");
    std::uint32_t max_tid = 0;
    for (const TraceEntry &e : entries)
        max_tid = std::max(max_tid, e.tid);
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
        JsonWriter meta;
        meta.field("name", "thread_name");
        meta.field("ph", "M");
        meta.field("pid", 0);
        meta.field("tid", static_cast<std::uint64_t>(tid));
        JsonWriter args;
        args.field("name", tid == 0 ? std::string("main")
                                    : "thread " + std::to_string(tid));
        meta.fieldRaw("args", args.str());
        append(meta.str());
    }

    for (const TraceEntry &e : entries) {
        JsonWriter w;
        switch (e.kind) {
          case TraceKind::Span: {
            w.field("name", e.name);
            w.field("cat", e.name == "task" ? "task" : "phase");
            w.field("ph", "X");
            w.field("pid", 0);
            w.field("tid", static_cast<std::uint64_t>(e.tid));
            w.field("ts", static_cast<double>(e.startNs) * 1e-3);
            w.field("dur", spanSeconds(e) * 1e6);
            JsonWriter args;
            args.field("path", pathOf(e));
            args.field("id", e.id);
            if (e.parent != 0)
                args.field("parent", e.parent);
            if (!e.detail.empty())
                args.field("detail", e.detail);
            w.fieldRaw("args", args.str());
            break;
          }
          case TraceKind::FlowBegin:
          case TraceKind::FlowEnd: {
            w.field("name", "task dispatch");
            w.field("cat", "par");
            w.field("ph", e.kind == TraceKind::FlowBegin ? "s" : "f");
            if (e.kind == TraceKind::FlowEnd)
                w.field("bp", "e"); // bind to the enclosing task slice
            w.field("id", e.id);
            w.field("pid", 0);
            w.field("tid", static_cast<std::uint64_t>(e.tid));
            w.field("ts", static_cast<double>(e.startNs) * 1e-3);
            break;
          }
          case TraceKind::CounterSample: {
            w.field("name", e.name);
            w.field("ph", "C");
            w.field("pid", 0);
            w.field("ts", static_cast<double>(e.startNs) * 1e-3);
            JsonWriter args;
            args.field("value", e.value);
            w.fieldRaw("args", args.str());
            break;
          }
        }
        append(w.str());
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

bool
writeTraceFile(const std::string &path,
               const std::vector<TraceEntry> &entries)
{
    return fi::atomicWriteFile(path, traceJson(entries) + "\n");
}

} // namespace dfault::obs
