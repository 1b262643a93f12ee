#pragma once

// daemon_mix: an in-process sdfmapd Server driven by two closed-loop
// ServiceClient threads with a seeded mix of allocate / exact allocate /
// throughput / lint requests drawn from a fixed pool.

#include <ostream>

#include "perfbench/driver/common.h"

namespace perfbench {

RunReport run_daemon(const RunOptions& options);

/// Writes "daemon_mix <key> <hash>" reference lines for every pool request.
void record_daemon_refs(std::ostream& out);

}  // namespace perfbench
