// One bundle of everything a run can observe: trace, metrics, profiler.
//
// An Observability instance is attached to a net::Simulation
// (sim.set_obs(&obs)); components built on that simulation (GossipNetwork,
// PowNode, PbftReplica, PoxExperiment) discover it through sim.obs() and
// record into it.  A null pointer — the default — disables everything at the
// cost of one branch per hook site.
//
// Metrics go into the daemon's registry (obs/live/registry.h) under its
// naming rules (`themis_sim_*`), so a run's report (obs/report.h) and a
// daemon's /metrics.prom are one format.
//
// Threading contract: one Observability belongs to exactly one run (one
// Simulation).  The parallel trial runner attaches a caller's instance to a
// single designated trial (point 0, trial 0 — the base seed), so
// multi-trial results stay bit-identical with or without observation.
#pragma once

#include "obs/live/registry.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace themis::obs {

struct Observability {
  Observability() {
    registry.gauge_fn("themis_sim_trace_events",
                      "Trace records emitted (0 when the run is not traced).",
                      [this] { return static_cast<double>(tracer.size()); });
  }

  EventTracer tracer;
  live::Registry registry;
  Profiler profiler;
  /// Set by the trial runner when a sweep adopts this instance; later sweeps
  /// in the same process leave a claimed instance alone (so a driver that
  /// runs a PoX sweep and then a PBFT sweep traces the first one).
  bool claimed = false;
};

}  // namespace themis::obs
