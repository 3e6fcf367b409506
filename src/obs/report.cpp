#include "obs/report.h"

#include "obs/live/prometheus.h"

namespace themis::obs {

void write_report(std::ostream& out, const Observability& obs) {
  out << live::render_prometheus(obs.registry);
  if (!obs.profiler.scopes().empty()) {
    out << "# profile (wall clock; not reproducible)\n";
    for (const auto& [name, stat] : obs.profiler.scopes()) {
      out << "# " << name << ": calls=" << stat.calls
          << " total=" << stat.total_ms() << "ms ns/call="
          << stat.ns_per_call() << "\n";
    }
  }
}

}  // namespace themis::obs
