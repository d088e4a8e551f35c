// Probe: times the benchmark's calls into the library on both clocks.
//
// Every timed call is bracketed by begin()/end(). The simulated clock is
// always read (the end-to-end metrics are built from those durations). A
// call is "driver-level" when the benchmark's own driver process is the one
// waiting on it; only then are wall seconds and the change in
// Simulation::events_processed() attributable to the call, because the
// single-threaded simulator runs every other process's events inside that
// wait. Per-rank calls run concurrently in guest processes and report the
// simulated clock only.
//
// With tracing on, each call also becomes a Span (name, both clocks, parent,
// rank/tenant) and the counters below are read at both of its boundaries.
// Spans stay in memory and are written out as Chrome trace-event JSON when
// the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.h"

namespace e2e {

using WallClock = std::chrono::steady_clock;

inline double seconds_between(WallClock::time_point a,
                              WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Counter values read at span boundaries in the traced run.
struct Counters {
  std::uint64_t events = 0;        // Simulation::events_processed()
  std::uint64_t fabric_bytes = 0;  // net::Fabric::total_bytes()
  std::uint64_t repo_bytes = 0;    // Cloud::repository_bytes()
};

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "mpi.dump"
  int id = -1;
  int parent = -1;
  int rank = -1;    // -1: driver-level
  int tenant = 0;
  bool driver = false;
  blobcr::sim::Time sim_begin = 0;
  blobcr::sim::Time sim_end = 0;
  double wall_begin = 0;  // seconds since the repetition started
  double wall_end = 0;
  Counters at_begin;
  Counters at_end;

  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Probe {
 public:
  Probe(blobcr::core::Cloud& cloud, bool traced, WallClock::time_point origin)
      : cloud_(&cloud), traced_(traced), origin_(origin) {}

  struct Open {
    int id = -1;
    blobcr::sim::Time sim0 = 0;
    WallClock::time_point wall0;
    std::uint64_t events0 = 0;
  };
  struct Closed {
    blobcr::sim::Duration sim = 0;
    double wall = 0;
    std::uint64_t events = 0;
  };

  Open begin(const char* name, int parent, int rank, int tenant, bool driver);
  Closed end(const Open& open);

  /// Runs `f` (the benchmark's own input generation or output checking) and
  /// charges its wall time to self_s(), which wall_s excludes. Traced, the
  /// interval is kept for the wall reconciliation.
  template <class F>
  decltype(auto) self(F&& f) {
    struct Charge {
      Probe* probe;
      WallClock::time_point t0 = WallClock::now();
      ~Charge() { probe->charge_self(t0, WallClock::now()); }
    } charge{this};
    return f();
  }
  double self_s() const { return self_s_; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Wall intervals of self() calls, seconds since the origin (traced only).
  const std::vector<std::pair<double, double>>& self_intervals() const {
    return self_iv_;
  }
  WallClock::time_point origin() const { return origin_; }
  double since_origin(WallClock::time_point t) const {
    return seconds_between(origin_, t);
  }

 private:
  Counters read_counters() const;
  void charge_self(WallClock::time_point t0, WallClock::time_point t1);

  blobcr::core::Cloud* cloud_;
  bool traced_;
  WallClock::time_point origin_;
  double self_s_ = 0;
  std::vector<Span> spans_;
  std::vector<std::pair<double, double>> self_iv_;
};

// --- statistics ----------------------------------------------------------

/// Nearest-rank percentile of `v` (unsorted copy taken).
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);

/// The tail value: the highest percentile that has at least ten samples
/// beyond it. With n samples that is the 11th largest sample, the
/// nearest-rank percentile tail_percentile(n) = 100 * (n - 10) / n; with
/// n <= 20 it would fall below the median, so the median stands in.
double tail(std::vector<double> v);
double tail_percentile(std::size_t samples);

// --- trace analysis and export --------------------------------------------

/// Per layer: summed self time (span minus the union of its children's
/// intervals) on the simulated clock, and on the wall clock for driver-level
/// spans.
struct SelfTime {
  double sim_s = 0;
  double wall_s = 0;
};
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace-event JSON array: the simulated clock
/// as process 1 (one thread per driver/rank track), driver-level spans again
/// on the wall clock as process 2, and the boundary counters as counter
/// events. Perfetto and chrome://tracing open it. Returns false on I/O error.
/// Wall seconds of [from, to) covered by the driver-level calls into the
/// library's layers (driver-level spans outside the benchmark's own `bench`
/// phases) or by the benchmark's own work (`self_iv`). The rest of the
/// window is driver work that no timer saw.
double driver_coverage_s(const std::vector<Span>& spans,
                         const std::vector<std::pair<double, double>>& self_iv,
                         double from, double to);

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::vector<std::string>& tenant_names);

}  // namespace e2e
