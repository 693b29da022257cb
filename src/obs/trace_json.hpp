// Chrome/Perfetto "Trace Event Format" exporter for a TraceCollector.
//
// The output is the JSON-object form {"traceEvents": [...]}, loadable in
// Perfetto (ui.perfetto.dev → "Open trace file") and in chrome://tracing.
// Mapping:
//   PhaseBegin/PhaseEnd     → ph "B"/"E" duration pairs (nest per slot)
//   TaskRun                 → ph "X" complete events with dur
//   TaskSkip/Steal/Mark/
//   GovernorTrip/
//   KernelDispatch          → ph "i" instants (scope "t")
// Timestamps are microseconds since the collector epoch; tid is the slot
// index, named via thread_name metadata ("worker N", "master").
#pragma once

#include <ostream>

#include "obs/trace.hpp"

namespace ppscan::obs {

/// Streams the whole collector as one trace document. Requires the same
/// happens-before contract as TraceBuffer::snapshot (run finished).
void write_chrome_trace(std::ostream& out, const TraceCollector& collector);

}  // namespace ppscan::obs
