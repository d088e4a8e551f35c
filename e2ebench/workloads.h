// The benchmark's workloads. Each repetition builds its own Cloud,
// Deployment(s) and cr::Session(s) from a seed, runs one closed loop of
// checkpoints and restarts through the library's public API, checks every
// restored rank state, and reads the layer counters through public
// accessors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// Self-test hook: perturb the expected digest of one rank so the restore
  /// check must fail.
  bool corrupt_expected = false;
  /// Self-test hook: add untimed work on every reconciled path (simulated
  /// time before each snapshot and each restore, a wall-clock stall in the
  /// driver) so every reconciliation check must fail.
  bool inject_gap = false;
};

/// Set-ups timed per repetition: the repetition's own plus throwaway ones
/// (a fresh Cloud each), so setup_s is a median over several samples.
constexpr int kSetupSamples = 4;

/// Driver-level call totals: simulated seconds, wall seconds, events.
struct CallTotals {
  double sim_s = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  void add(const Probe::Closed& c) {
    sim_s += blobcr::sim::to_seconds(c.sim);
    wall_s += c.wall;
    events += c.events;
  }
};

struct RepResult {
  // Per-sample simulated durations, seconds.
  std::vector<double> blocked;   // per rank per round: dump start -> snapshot return
  std::vector<double> complete;  // per round: barrier -> Complete record
  std::vector<double> restart;   // per rank per restart: restart call -> state checked
  std::vector<double> dump, sync, snapshot, restore;

  CallTotals deploy, commit_last, cr_restart;

  std::uint64_t user_bytes = 0;   // rank state bytes checkpointed
  std::uint64_t repo_growth = 0;  // Cloud::repository_bytes() growth
  std::uint64_t events = 0;       // events from first checkpoint to last restore
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;

  /// Wall seconds of each set-up: cloud construction .. deploy-and-boot done.
  std::vector<double> setup_s;
  double measured_s = 0;  // wall: first checkpoint .. last restore, incl. self
  double self_s = 0;      // wall: benchmark input generation + output checks

  /// Reconciliation residuals, seconds (largest over samples), and the
  /// checks they failed. Blocked: blocked time minus mpi.dump, guestfs.sync
  /// and the VM pause the library recorded in the commit_last record; what
  /// is left is the checkpoint proxy's request handling around the pause.
  /// Restart: restart time minus cr.restart and mpi.restore; what is left is
  /// the guest-process start. Wall (traced repetitions only): measured_s
  /// minus the wall time covered by driver-level layer calls and the
  /// benchmark's own work; what is left is untimed driver work.
  double blocked_residual_s = 0;
  double restart_residual_s = 0;
  double wall_residual_s = 0;
  std::vector<std::string> reconcile_failures;

  /// Layer counters read through public accessors (deterministic).
  std::map<std::string, double> layer;

  std::vector<Span> spans;  // traced repetitions only
  std::vector<std::string> tenant_names;

  double wall_s() const { return measured_s - self_s; }
};

const std::vector<std::string>& workload_names();

/// Runs one repetition. Throws std::invalid_argument for an unknown
/// workload; library errors propagate (the caller counts them as failed).
RepResult run_repetition(const RunOptions& opts);

}  // namespace e2e
