/**
 * @file
 * WorkloadTrace CSV export (one row per phase), written by
 * `mapp_cli trace` so a profiled workload can be inspected with
 * standard tools — the moral equivalent of PIN trace files. Nothing
 * reads it back; the artifact cache stores traces as the binary frame
 * of trace_binary.h.
 */

#ifndef MAPP_ISA_TRACE_IO_H
#define MAPP_ISA_TRACE_IO_H

#include <string>

#include "isa/trace.h"

namespace mapp::isa {

/** Serialize a trace to CSV text (header + one row per phase). */
std::string traceToCsv(const WorkloadTrace& trace);

/** Write a trace to a file. @throws InputError on I/O failure. */
void writeTraceFile(const WorkloadTrace& trace, const std::string& path);

}  // namespace mapp::isa

#endif  // MAPP_ISA_TRACE_IO_H
