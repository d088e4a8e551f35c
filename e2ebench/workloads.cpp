#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "cr/session.h"
#include "flush/flush_agent.h"
#include "guestfs/simplefs.h"
#include "mpi/blcr.h"
#include "reduce/reducer.h"
#include "sim/when_all.h"

namespace e2e {

using blobcr::common::Buffer;
using blobcr::sim::Duration;
using blobcr::sim::Task;
namespace common = blobcr::common;
namespace core = blobcr::core;
namespace cr = blobcr::cr;
namespace mpi = blobcr::mpi;
namespace net = blobcr::net;
namespace sim = blobcr::sim;
namespace vm = blobcr::vm;

namespace {

constexpr const char* kDumpPath = "/data/rank.blcr";
/// Memory-fill rate the ranks pay to regenerate their state (as in the
/// library's synthetic scenario).
constexpr double kMemFillBps = 4e9;
/// Share of each rank's state that is the cross-job shared dataset, as in
/// the library's QoS end-to-end ablation (bench/ablation_qos_e2e.cpp).
constexpr double kSharedFraction = 0.3;
/// Reconciliation limits. On the blocking path the proxy's request
/// handling around the VM pause (a loopback message each way and the
/// authentication cost, 0.7 ms with the paper testbed's settings) is the
/// only simulated time outside the timed calls; a guest process starts
/// without simulated delay; and untimed driver work (guest start, barrier
/// set-up, teardown) stays a small share of the measured wall window.
constexpr Duration kBlockedSlack = 5 * sim::kMillisecond;
constexpr Duration kRestartSlack = 1 * sim::kMillisecond;
constexpr double kWallSlackShare = 0.02;
constexpr double kWallSlackS = 0.005;
/// inject_gap: untimed simulated and wall time added to each reconciled
/// path; each exceeds its limit above.
constexpr Duration kInjectedSimGap = 20 * sim::kMillisecond;
constexpr double kInjectedWallGapS = 0.5;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
                  std::uint64_t d = 0) {
  return common::mix64(a ^ common::mix64(b ^ common::mix64(c ^ common::mix64(d))));
}

/// The paper's graphene testbed (§4.1): 120 compute nodes that double as
/// data providers, 20 metadata providers, GbE, SATA disks, a 2 GB Debian
/// image and 256 KiB chunks.
core::CloudConfig paper_cloud() {
  core::CloudConfig cfg;
  cfg.compute_nodes = 120;
  cfg.metadata_nodes = 20;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::debian_like();
  cfg.vm.os_ram_bytes = 118 * common::kMB;
  cfg.vm.process_overhead_bytes = 2 * common::kMB;
  return cfg;
}

// --- rank state -------------------------------------------------------------

/// How a job's rank state looks, as in the library's multi-tenant scenario
/// (apps::run_multi_job): every round each rank refills its whole buffer
/// (the successive checkpoints of the paper's §4.3.2, apps::run_synthetic).
/// The leading shared_fraction is one dataset, identical in every job, rank
/// and round; the rest is fresh rank-private data.
struct StateModel {
  bool real = false;           // false: phantom payload (paper scale)
  std::uint64_t bytes = 0;     // per rank, before the seeded size jitter
  double shared_fraction = 0;  // of `bytes`; needs real data to dedup
};

struct RankState {
  Buffer data;
  std::uint64_t expected = 0;  // digest of the last checkpointed state
};

/// Seeded per-rank size: the base size plus 0-4% in whole 4 KiB pages, so
/// the simulated timings move a little from seed to seed.
std::uint64_t rank_bytes(const StateModel& m, std::uint64_t seed,
                         std::size_t job, std::size_t rank) {
  constexpr std::uint64_t kPage = 4096;
  common::Rng rng(mix(seed, job, rank, 0x5123));
  return m.bytes + kPage * rng.uniform(m.bytes / 25 / kPage + 1);
}

void refill_state(RankState& st, const StateModel& m, std::uint64_t seed,
                  std::size_t job, std::size_t rank, int round) {
  const std::uint64_t bytes = rank_bytes(m, seed, job, rank);
  if (!m.real) {
    st.data = Buffer::phantom(bytes);
    return;
  }
  const auto shared = std::min(
      bytes, static_cast<std::uint64_t>(static_cast<double>(m.bytes) *
                                        m.shared_fraction));
  Buffer buf = Buffer::pattern(shared, mix(seed, 0x54a7ed));
  buf.append(Buffer::pattern(
      bytes - shared,
      mix(seed, job, rank, 0x10000 + static_cast<std::uint64_t>(round))));
  st.data = std::move(buf);
}

// --- jobs -----------------------------------------------------------------

/// Counters of mirroring modules that a restart tears down, accumulated
/// before each teardown so a repetition's totals cover every mirror.
struct MirrorTotals {
  std::uint64_t repo = 0, peer = 0, cache_hit = 0, zero = 0;
  std::uint64_t staged = 0, drains = 0, drains_failed = 0, bp_waits = 0;
  Duration flush_blocked = 0, drain_time = 0;

  MirrorTotals& operator+=(const MirrorTotals& o) {
    repo += o.repo;
    peer += o.peer;
    cache_hit += o.cache_hit;
    zero += o.zero;
    staged += o.staged;
    drains += o.drains;
    drains_failed += o.drains_failed;
    bp_waits += o.bp_waits;
    flush_blocked += o.flush_blocked;
    drain_time += o.drain_time;
    return *this;
  }

  void add(core::Deployment& dep) {
    for (std::size_t i = 0; i < dep.size(); ++i) {
      const core::MirrorDevice* m = dep.instance(i).mirror.get();
      if (m == nullptr) continue;
      repo += m->repo_bytes_fetched();
      peer += m->peer_bytes_fetched();
      cache_hit += m->cache_hit_bytes();
      zero += m->zero_bytes_materialized();
      if (const auto* agent = m->flush_agent()) {
        const auto& s = agent->stats();
        staged += s.commits_staged;
        drains += s.drains_completed;
        drains_failed += s.drains_failed;
        bp_waits += s.backpressure_waits;
        flush_blocked += s.blocked_time;
        drain_time += s.drain_time;
      }
    }
  }
};

/// One rank's simulated times in one checkpoint round.
struct RankCheckpoint {
  Duration blocked = 0;  // dump start -> snapshot return
  Duration dump = 0;
  Duration sync = 0;
};

/// One tenant's job: a deployment, its cr::Session and its ranks' state
/// (one rank per VM).
struct Job {
  std::string name;
  int index = 0;  // tenant index in traces and per-tenant metrics
  net::TenantId tenant = net::kDefaultTenant;
  std::size_t ranks = 0;
  std::size_t node_offset = 0;
  std::vector<std::size_t> restart_offsets;
  StateModel model;
  std::unique_ptr<core::Deployment> dep;
  std::unique_ptr<cr::Session> session;
  std::vector<RankState> state;
  bool expected_valid = false;
  std::size_t restarts = 0;
  MirrorTotals retired;
};

// --- one repetition ---------------------------------------------------------

class Repetition {
 public:
  /// With `setup_only` the repetition stops after set-up: a throwaway
  /// set-up sample for setup_s.
  Repetition(core::Cloud& cloud, const RunOptions& opts, RepResult& out,
             WallClock::time_point origin, bool setup_only)
      : cloud_(cloud),
        opts_(opts),
        out_(out),
        probe_(cloud, opts.traced, origin),
        setup_only_(setup_only) {}

  Task<> run() {
    if (opts_.workload == "paper-restart") return paper_restart();
    if (opts_.workload == "incremental-commit") return incremental_commit();
    return tenant_mix();
  }

  Probe& probe() { return probe_; }

 private:
  using Counts = std::map<std::string, double>;

  // --- workloads ---

  // Fig 2/3 at scale: BlobCR with the paper's defaults (synchronous commit;
  // reduction, flush and QoS off), phantom BLCR state, one checkpoint, then
  // a cold restart of every rank onto fresh nodes.
  Task<> paper_restart() {
    Job job;
    job.name = "app";
    job.ranks = 32;
    job.restart_offsets = {job.ranks};
    job.model = StateModel{false, 50 * common::kMB, 0};
    std::vector<Job*> jobs{&job};
    co_await setup(jobs);
    if (setup_only_) co_return;
    begin_measure(jobs);
    co_await checkpoint_round(job, 0, fill_time(job), -1);
    co_await restart(job, -1);
    end_measure(jobs);
  }

  // Fig 5's successive checkpoints on the write path: real state, the
  // reduction pipeline (zero suppression, dedup, compression) and the async
  // flush on; each round refills every rank's state, private data on top of
  // the shared dataset. One cold restart, checked bit-exact.
  Task<> incremental_commit() {
    Job job;
    job.name = "app";
    job.ranks = 8;
    job.restart_offsets = {job.ranks};
    job.model = StateModel{true, 4 * common::kMB, kSharedFraction};
    std::vector<Job*> jobs{&job};
    co_await setup(jobs);
    if (setup_only_) co_return;
    begin_measure(jobs);
    for (int round = 0; round < 8; ++round) {
      co_await checkpoint_round(job, round, fill_time(job), -1);
    }
    co_await restart(job, -1);
    end_measure(jobs);
  }

  // Two tenants on one repository with QoS and bounded provider-io and
  // restart-prefetch gates, in four cycles. In each cycle the writer
  // checkpoints real state six rounds back to back, while the reader
  // checkpoints once (cycle 0) or cold-restarts and verifies (cycles 1-3).
  // Each tenant is a closed loop within a cycle. Locking the writer's rounds
  // to the reader's cycles gives every seed the same mix of rounds that
  // overlap a restart's boot and rounds that overlap its restore.
  Task<> tenant_mix() {
    Job writer;
    writer.name = "writer";
    writer.index = 0;
    writer.ranks = 3;
    writer.model = StateModel{true, 4 * common::kMB, kSharedFraction};
    Job reader;
    reader.name = "reader";
    reader.index = 1;
    reader.ranks = 8;
    reader.node_offset = writer.ranks;
    reader.restart_offsets = {writer.ranks + reader.ranks,
                              writer.ranks + 2 * reader.ranks};
    reader.model = StateModel{true, 4 * common::kMB, kSharedFraction};
    writer.tenant = cloud_.register_tenant(writer.name, 1.0);
    reader.tenant = cloud_.register_tenant(reader.name, 1.0);
    std::vector<Job*> jobs{&writer, &reader};
    co_await setup(jobs);
    if (setup_only_) co_return;
    begin_measure(jobs);

    const Probe::Open mix_span = probe_.begin("bench.mix", -1, -1, 0, true);
    constexpr int kWriterRounds = 6;  // per cycle
    for (int cycle = 0; cycle < 4; ++cycle) {
      std::vector<Task<>> loops;
      loops.push_back([](Repetition* self, Job* w, int first, int parent) -> Task<> {
        for (int round = first; round < first + kWriterRounds; ++round) {
          co_await self->checkpoint_round(*w, round, self->fill_time(*w), parent);
        }
      }(this, &writer, cycle * kWriterRounds, mix_span.id));
      loops.push_back(cycle == 0
                          ? checkpoint_round(reader, 0, fill_time(reader), mix_span.id)
                          : restart(reader, mix_span.id));
      co_await sim::when_all(cloud_.simulation(), std::move(loops));
    }
    (void)probe_.end(mix_span);
    end_measure(jobs);
  }

  // --- building blocks ---

  Duration fill_time(const Job& job) const {
    return sim::transfer_time(job.model.bytes, kMemFillBps);
  }

  /// Provisioning plus every job's deploy-and-boot; ends set-up time.
  Task<> setup(const std::vector<Job*>& jobs) {
    co_await cloud_.provision_base_image();
    for (Job* job : jobs) {
      core::Deployment::Options dopts;
      dopts.node_offset = job->node_offset;
      dopts.tenant = job->tenant;
      job->dep = std::make_unique<core::Deployment>(cloud_, job->ranks, dopts);
      cr::Session::Config scfg;
      if (jobs.size() > 1) scfg.job = job->name;
      job->session = std::make_unique<cr::Session>(*job->dep, scfg);
      job->state.resize(job->ranks);
      const Probe::Open o =
          probe_.begin("core.deploy_and_boot", -1, -1, job->index, true);
      co_await job->dep->deploy_and_boot();
      const Probe::Closed c = probe_.end(o);
      if (!setup_only_) out_.deploy.add(c);
    }
    out_.setup_s.push_back(seconds_between(probe_.origin(), WallClock::now()));
    if (!setup_only_) {
      for (Job* job : jobs) out_.tenant_names.push_back(job->name);
    }
  }

  void begin_measure(const std::vector<Job*>& jobs) {
    base_ = read_counts(jobs);
    events0_ = cloud_.simulation().events_processed();
    measure0_ = WallClock::now();
    if (opts_.inject_gap) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kInjectedWallGapS));
    }
  }

  void end_measure(const std::vector<Job*>& jobs) {
    const WallClock::time_point measure1 = WallClock::now();
    out_.measured_s = seconds_between(measure0_, measure1);
    out_.events = cloud_.simulation().events_processed() - events0_;
    out_.self_s = probe_.self_s();
    if (opts_.traced) reconcile_wall(measure1);
    for (const auto& [check, f] : failures_) {
      out_.reconcile_failures.push_back(
          f.first == 1 ? f.second
                       : f.second + " (and " + std::to_string(f.first - 1) + " more)");
    }
    const Counts end = read_counts(jobs);
    out_.repo_growth =
        static_cast<std::uint64_t>(end.at("repo_bytes") - base_.at("repo_bytes"));
    fill_layers(end);
    for (Job* job : jobs) {
      job->session.reset();
      job->dep.reset();
    }
  }

  /// Records a failed reconciliation check: the first failure of each
  /// check in full, the others as a count.
  void fail_check(const std::string& check, const std::string& what) {
    auto& [count, first] = failures_[check];
    if (count++ == 0) first = check + ": " + what;
  }

  /// The driver-level layer calls and the benchmark's own work must cover
  /// the measured wall window but for a small residual of untimed driver
  /// work.
  void reconcile_wall(WallClock::time_point measure1) {
    const double from = probe_.since_origin(measure0_);
    const double to = probe_.since_origin(measure1);
    const double residual =
        (to - from) -
        driver_coverage_s(probe_.spans(), probe_.self_intervals(), from, to);
    out_.wall_residual_s = residual;
    const double limit = kWallSlackS + kWallSlackShare * (to - from);
    if (residual > limit) {
      fail_check("wall", std::to_string(residual) + " s of the " +
                 std::to_string(to - from) +
                 " s measured window is in no layer call and no benchmark "
                 "work (limit " + std::to_string(limit) + " s)");
    }
  }

  /// Per rank of a round: the blocked time must be dump + sync + the VM
  /// pause the library recorded for that instance's snapshot in the
  /// round's catalog record, up to the proxy's request handling.
  void reconcile_blocked(const cr::CheckpointRecord& rec,
                         const std::vector<RankCheckpoint>& ranks) {
    if (rec.snapshots.size() != ranks.size()) {
      fail_check("blocked", "the record holds " + std::to_string(rec.snapshots.size()) +
                 " snapshots for " + std::to_string(ranks.size()) + " ranks");
      return;
    }
    for (const core::InstanceSnapshot& s : rec.snapshots) {
      const RankCheckpoint& r = ranks.at(s.instance);
      const Duration residual = r.blocked - r.dump - r.sync - s.vm_downtime;
      out_.blocked_residual_s =
          std::max(out_.blocked_residual_s, sim::to_seconds(residual));
      if (residual < 0 || residual > kBlockedSlack) {
        fail_check("blocked", "rank " + std::to_string(s.instance) + " blocked " +
                   std::to_string(sim::to_seconds(r.blocked)) + " s, dump + sync + "
                   "recorded VM pause leave " + std::to_string(sim::to_seconds(residual)) +
                   " s (limit 0.." + std::to_string(sim::to_seconds(kBlockedSlack)) + " s)");
      }
    }
  }

  /// One closed-loop checkpoint round of a job: every rank regenerates its
  /// state, computes, meets the checkpoint barrier, then dumps (BLCR),
  /// syncs the guest file system and requests a disk snapshot; the driver
  /// then commits the line as one catalog record.
  Task<> checkpoint_round(Job& job, int round, Duration compute, int parent) {
    const Probe::Open ph = probe_.begin("bench.round", parent, -1, job.index, true);
    sim::Barrier barrier(cloud_.simulation(), job.ranks);
    sim::Time barrier_at = 0;
    std::vector<RankCheckpoint> ranks(job.ranks);
    for (std::size_t i = 0; i < job.ranks; ++i) {
      job.dep->vm(i).start_guest(
          "rank", [this, &job, i, round, compute, &barrier, &barrier_at,
                   &ranks, id = ph.id](vm::GuestProcess& gp) -> Task<> {
            co_await rank_round(job, i, round, compute, barrier, barrier_at,
                                ranks[i], id, gp);
          });
    }
    co_await join_ranks(job, ph.id);
    const Probe::Open oc = probe_.begin("cr.commit_last", ph.id, -1, job.index, true);
    const cr::CheckpointRecord rec = co_await job.session->commit_last();
    out_.commit_last.add(probe_.end(oc));
    out_.complete.push_back(sim::to_seconds(cloud_.now() - barrier_at));
    ++out_.ops;
    if (!rec.selectable()) ++out_.ops_failed;
    reconcile_blocked(rec, ranks);
    job.expected_valid = false;
    (void)probe_.end(ph);
  }

  /// The driver waits for every rank's guest process: a driver-level call
  /// into the vm layer, inside which the ranks' own calls run.
  Task<> join_ranks(Job& job, int parent) {
    const Probe::Open o = probe_.begin("vm.join_guests", parent, -1, job.index, true);
    for (std::size_t i = 0; i < job.ranks; ++i) {
      co_await job.dep->vm(i).join_guests();
    }
    (void)probe_.end(o);
  }

  Task<> rank_round(Job& job, std::size_t i, int round, Duration compute,
                    sim::Barrier& barrier, sim::Time& barrier_at,
                    RankCheckpoint& times, int parent, vm::GuestProcess& gp) {
    RankState& st = job.state[i];
    probe_.self([&] {
      refill_state(st, job.model, opts_.seed, job.index, i, round);
    });
    out_.user_bytes += st.data.size();
    gp.set_region("state", std::move(st.data));
    co_await gp.compute(compute);
    co_await barrier.arrive_and_wait();
    barrier_at = cloud_.now();

    const int rank = static_cast<int>(i);
    const Probe::Open od = probe_.begin("mpi.dump", parent, rank, job.index, false);
    co_await mpi::Blcr::dump(gp, kDumpPath);
    const Probe::Closed dump = probe_.end(od);
    const Probe::Open os = probe_.begin("guestfs.sync", parent, rank, job.index, false);
    co_await gp.vm().fs()->sync();
    const Probe::Closed sync = probe_.end(os);
    if (opts_.inject_gap) co_await gp.compute(kInjectedSimGap);
    const Probe::Open on = probe_.begin("core.snapshot", parent, rank, job.index, false);
    (void)co_await job.dep->snapshot_instance(i);
    const Probe::Closed snap = probe_.end(on);

    times = RankCheckpoint{cloud_.now() - od.sim0, dump.sim, sync.sim};
    out_.blocked.push_back(sim::to_seconds(times.blocked));
    out_.dump.push_back(sim::to_seconds(dump.sim));
    out_.sync.push_back(sim::to_seconds(sync.sim));
    out_.snapshot.push_back(sim::to_seconds(snap.sim));
    st.data = std::move(gp.region("state"));
  }

  /// Kills the job, restarts it cold from its latest Complete record on
  /// fresh nodes, and restores and checks every rank's state.
  Task<> restart(Job& job, int parent) {
    const Probe::Open ph = probe_.begin("bench.restart", parent, -1, job.index, true);
    if (!job.expected_valid) {
      probe_.self([&] {
        for (RankState& st : job.state) st.expected = st.data.digest();
      });
      if (opts_.corrupt_expected) job.state[0].expected ^= 1;
      job.expected_valid = true;
    }
    job.retired.add(*job.dep);
    job.dep->destroy_all();
    const std::size_t offset =
        job.restart_offsets[job.restarts++ % job.restart_offsets.size()];
    const sim::Time t0 = cloud_.now();
    const Probe::Open oc = probe_.begin("cr.restart", ph.id, -1, job.index, true);
    (void)co_await job.session->restart(cr::Selector::latest(), offset,
                                        /*cold_caches=*/true);
    const Probe::Closed call = probe_.end(oc);
    out_.cr_restart.add(call);
    for (std::size_t i = 0; i < job.ranks; ++i) {
      job.dep->vm(i).start_guest(
          "restore", [this, &job, i, t0, call, id = ph.id](
                         vm::GuestProcess& gp) -> Task<> {
            co_await rank_restore(job, i, t0, call.sim, id, gp);
          });
    }
    co_await join_ranks(job, ph.id);
    (void)probe_.end(ph);
  }

  Task<> rank_restore(Job& job, std::size_t i, sim::Time t0, Duration call,
                      int parent, vm::GuestProcess& gp) {
    if (opts_.inject_gap) co_await gp.compute(kInjectedSimGap);
    const Probe::Open o =
        probe_.begin("mpi.restore", parent, static_cast<int>(i), job.index, false);
    bool ok = co_await mpi::Blcr::restore(gp, kDumpPath);
    const Probe::Closed restore = probe_.end(o);
    ok = ok && probe_.self([&] {
      return gp.region("state").digest() == job.state[i].expected;
    });
    const Duration restart = cloud_.now() - t0;
    out_.restart.push_back(sim::to_seconds(restart));
    out_.restore.push_back(sim::to_seconds(restore.sim));
    // Per rank: the restart time must be cr.restart + mpi.restore, up to
    // the guest-process start in between.
    const Duration residual = restart - call - restore.sim;
    out_.restart_residual_s =
        std::max(out_.restart_residual_s, sim::to_seconds(residual));
    if (residual < 0 || residual > kRestartSlack) {
      fail_check("restart", "rank " + std::to_string(i) + " restarted in " +
                 std::to_string(sim::to_seconds(restart)) + " s, cr.restart + "
                 "mpi.restore leave " + std::to_string(sim::to_seconds(residual)) +
                 " s (limit 0.." + std::to_string(sim::to_seconds(kRestartSlack)) + " s)");
    }
    ++out_.ops;
    if (!ok) ++out_.ops_failed;
  }

  // --- layer counters ---

  /// Cumulative counters read through public accessors. The per-layer
  /// metrics are their growth over the measured window.
  Counts read_counts(const std::vector<Job*>& jobs) {
    Counts c;
    c["repo_bytes"] = static_cast<double>(cloud_.repository_bytes());
    MirrorTotals m;
    for (Job* job : jobs) {
      m += job->retired;
      m.add(*job->dep);
      const core::PrefetchBus& bus = job->dep->prefetch_bus();
      c["core.hints"] += static_cast<double>(bus.hints_sent());
      c["core.hinted"] += static_cast<double>(bus.hinted_bytes());
      c["core.peer_copies"] += static_cast<double>(bus.peer_copies());
      if (const auto* red = job->dep->reducer()) {
        const auto& s = red->stats();
        c["reduce.chunks"] += static_cast<double>(s.chunks_total);
        c["reduce.raw"] += static_cast<double>(s.raw_bytes);
        c["reduce.shipped"] += static_cast<double>(s.shipped_bytes);
        c["reduce.dedup_hits"] += static_cast<double>(s.dedup_hits);
        c["reduce.zero_chunks"] += static_cast<double>(s.zero_chunks);
        c["reduce.compressed_chunks"] += static_cast<double>(s.compressed_chunks);
      }
      if (const auto* store = cloud_.blob_store()) {
        const auto u = store->tenant_usage_snapshot(job->tenant);
        const std::string q = "qos." + std::string(job->index == 0 ? "writer" : "reader");
        c[q + ".commit_wait"] = sim::to_seconds(u.commit_wait);
        c[q + ".provider_wait"] = sim::to_seconds(u.provider_wait);
        c[q + ".prefetch_wait"] = sim::to_seconds(u.prefetch_wait);
      }
    }
    c["core.repo_fetch"] = static_cast<double>(m.repo);
    c["core.peer_fetch"] = static_cast<double>(m.peer);
    c["core.cache_hit"] = static_cast<double>(m.cache_hit);
    c["core.zero"] = static_cast<double>(m.zero);
    c["flush.staged"] = static_cast<double>(m.staged);
    c["flush.drains"] = static_cast<double>(m.drains);
    c["flush.drains_failed"] = static_cast<double>(m.drains_failed);
    c["flush.backpressure_waits"] = static_cast<double>(m.bp_waits);
    c["flush.blocked_s"] = sim::to_seconds(m.flush_blocked);
    c["flush.drain_s"] = sim::to_seconds(m.drain_time);

    std::uint64_t hits = 0, misses = 0, evictions = 0;
    for (std::size_t n = 0; n < cloud_.config().compute_nodes; ++n) {
      const core::DecodedChunkCache* cache =
          cloud_.chunk_cache(static_cast<net::NodeId>(n));
      hits += cache->hits();
      misses += cache->misses();
      evictions += cache->evictions();
    }
    c["cache.hits"] = static_cast<double>(hits);
    c["cache.misses"] = static_cast<double>(misses);
    c["cache.evictions"] = static_cast<double>(evictions);

    if (auto* store = cloud_.blob_store()) {
      c["blob.stored"] = static_cast<double>(store->total_stored_bytes());
      c["blob.meta"] = static_cast<double>(store->total_meta_bytes());
      c["blob.version_requests"] =
          static_cast<double>(store->version_manager().requests_served());
      c["blob.provider_requests"] =
          static_cast<double>(store->provider_manager().requests_served());
    }
    std::uint64_t rd = 0, wr = 0, seeks = 0;
    for (std::size_t n = 0; n < cloud_.fabric().node_count(); ++n) {
      const auto& disk = cloud_.disk(static_cast<net::NodeId>(n));
      rd += disk.bytes_read();
      wr += disk.bytes_written();
      seeks += disk.seeks();
    }
    c["storage.read"] = static_cast<double>(rd);
    c["storage.write"] = static_cast<double>(wr);
    c["storage.seeks"] = static_cast<double>(seeks);
    c["net.fabric"] = static_cast<double>(cloud_.fabric().total_bytes());
    return c;
  }

  void fill_layers(const Counts& end) {
    auto d = [&](const std::string& k) {
      const auto e = end.find(k);
      const auto b = base_.find(k);
      return (e == end.end() ? 0.0 : e->second) - (b == base_.end() ? 0.0 : b->second);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    constexpr double kM = 1e6;
    auto& L = out_.layer;
    L["core.repo_fetch_mb"] = d("core.repo_fetch") / kM;
    L["core.peer_fetch_mb"] = d("core.peer_fetch") / kM;
    L["core.cache_hit_mb"] = d("core.cache_hit") / kM;
    L["core.zero_mb"] = d("core.zero") / kM;
    L["core.hints"] = d("core.hints");
    L["core.hinted_mb"] = d("core.hinted") / kM;
    L["core.peer_copies"] = d("core.peer_copies");
    L["core.chunk_cache_hit_rate"] =
        ratio(d("cache.hits"), d("cache.hits") + d("cache.misses"));
    L["core.chunk_cache_evictions"] = d("cache.evictions");
    L["blob.stored_mb"] = d("blob.stored") / kM;
    L["blob.meta_mb"] = d("blob.meta") / kM;
    L["blob.version_requests"] = d("blob.version_requests");
    L["blob.provider_requests"] = d("blob.provider_requests");
    L["reduce.chunks"] = d("reduce.chunks");
    L["reduce.raw_mb"] = d("reduce.raw") / kM;
    L["reduce.shipped_mb"] = d("reduce.shipped") / kM;
    L["reduce.dedup_hit_rate"] = ratio(d("reduce.dedup_hits"), d("reduce.chunks"));
    L["reduce.zero_chunks"] = d("reduce.zero_chunks");
    L["reduce.compressed_chunks"] = d("reduce.compressed_chunks");
    for (const char* k : {"flush.staged", "flush.drains", "flush.drains_failed",
                          "flush.backpressure_waits", "flush.blocked_s",
                          "flush.drain_s"}) {
      L[k] = d(k);
    }
    for (const char* t : {"writer", "reader"}) {
      for (const char* w : {"commit_wait", "provider_wait", "prefetch_wait"}) {
        const std::string k = std::string("qos.") + t + "." + w;
        L[k + "_s"] = d(k);
      }
    }
    L["storage.disk_read_mb"] = d("storage.read") / kM;
    L["storage.disk_write_mb"] = d("storage.write") / kM;
    L["storage.seeks"] = d("storage.seeks");
    L["net.fabric_mb"] = d("net.fabric") / kM;
  }

  core::Cloud& cloud_;
  const RunOptions& opts_;
  RepResult& out_;
  Probe probe_;
  bool setup_only_;
  std::map<std::string, std::pair<int, std::string>> failures_;
  Counts base_;
  std::uint64_t events0_ = 0;
  WallClock::time_point measure0_;
};

core::CloudConfig cloud_config(const std::string& workload) {
  core::CloudConfig cfg = paper_cloud();
  if (workload == "incremental-commit") {
    cfg.reduction.enabled = true;
    cfg.reduction.zero_suppression = true;
    cfg.reduction.dedup = true;
    cfg.reduction.compression = true;
    cfg.flush.enabled = true;
  } else if (workload == "tenant-mix") {
    // The gates of the library's QoS end-to-end ablation
    // (bench/ablation_qos_e2e.cpp).
    cfg.qos.enabled = true;
    cfg.qos.commit_slots = 8;
    cfg.qos.provider_slots = 2;
    cfg.qos.prefetch_slots = 2;
  }
  return cfg;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "paper-restart", "incremental-commit", "tenant-mix"};
  return kNames;
}

RepResult run_repetition(const RunOptions& opts) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    throw std::invalid_argument("unknown workload: " + opts.workload);
  }
  RepResult out;
  for (int k = 1; k < kSetupSamples; ++k) {
    const WallClock::time_point origin = WallClock::now();
    core::Cloud cloud(cloud_config(opts.workload));
    RunOptions untraced = opts;
    untraced.traced = false;
    Repetition rep(cloud, untraced, out, origin, /*setup_only=*/true);
    cloud.run(rep.run());
  }
  const WallClock::time_point origin = WallClock::now();
  core::Cloud cloud(cloud_config(opts.workload));
  Repetition rep(cloud, opts, out, origin, /*setup_only=*/false);
  cloud.run(rep.run());
  out.spans = rep.probe().spans();
  return out;
}

}  // namespace e2e
