// End-of-run report rendering for an Observability bundle.
#pragma once

#include <ostream>

#include "obs/observability.h"

namespace themis::obs {

/// The run's registry as Prometheus text (obs/live/prometheus.h), the same
/// format a daemon serves at /metrics.prom, followed by the wall-clock
/// profile scopes as `#` comment lines.  Every sample line is deterministic;
/// only the profile comments hold wall-clock (non-reproducible) numbers.
void write_report(std::ostream& out, const Observability& obs);

}  // namespace themis::obs
