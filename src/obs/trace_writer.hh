/**
 * @file
 * Chrome trace-event export for the span layer.
 *
 * traceJson() turns drained SpanTracer entries into the Chrome
 * trace-event JSON object format — complete ("X") slices per span,
 * flow arrows ("s"/"f") linking pool task submission to execution,
 * counter ("C") tracks from the stats samples, and thread-name
 * metadata — loadable in Perfetto (ui.perfetto.dev) and
 * chrome://tracing. Timestamps are microseconds since the tracer was
 * enabled. Exclusive time per phase comes from the timers themselves
 * (time.<path>.exclusive_seconds, obs/timer.hh), not from the trace.
 */

#ifndef DFAULT_OBS_TRACE_WRITER_HH
#define DFAULT_OBS_TRACE_WRITER_HH

#include <string>
#include <vector>

#include "obs/span.hh"

namespace dfault::obs {

/** The full trace as one Chrome trace-event JSON document. */
std::string traceJson(const std::vector<TraceEntry> &entries);

/**
 * Write traceJson() to @p path. Returns false when the file cannot be
 * created.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<TraceEntry> &entries);

} // namespace dfault::obs

#endif // DFAULT_OBS_TRACE_WRITER_HH
