// e2ebench: the repository's end-to-end benchmark driver.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--corrupt-expected] [--inject-gap] [--trace-dir DIR]
//
// Repeats the workload (a fresh Cloud per repetition, same seed) until
// --seconds of wall time have passed and at least the minimum number of
// repetitions ran (--seconds 0 runs exactly that minimum), then prints every metric by name and
// unit, the model fingerprint, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics, the tracing
// overhead and the reconciliation residuals, and writes the last traced
// repetition's spans as Chrome trace-event JSON into --trace-dir.
// Exits 0 only when every operation succeeded and every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace {

using e2e::median;
using e2e::percentile;
using e2e::RepResult;

struct Args {
  e2e::RunOptions run;
  double seconds = 10;
  std::string trace_dir = ".bench_build/traces";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--corrupt-expected] [--inject-gap] "
               "[--trace-dir DIR]\nworkloads:",
               why);
  for (const auto& w : e2e::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-expected") {
      a.run.corrupt_expected = true;
      continue;
    }
    if (k == "--inject-gap") {
      a.run.inject_gap = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.run.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.run.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.run.traced = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + k).c_str());
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& w : e2e::workload_names()) known = known || w == a.run.workload;
  if (!known) usage(("unknown workload " + a.run.workload).c_str());
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every simulated-clock metric and count of one repetition: identical for
/// every repetition of one seed, and the model fingerprint.
std::map<std::string, double> sim_metrics(const RepResult& r) {
  std::map<std::string, double> m = r.layer;
  m["ckpt_blocked_p50_s"] = percentile(r.blocked, 50);
  m["ckpt_blocked_tail_s"] = e2e::tail(r.blocked);
  m["ckpt_complete_p50_s"] = percentile(r.complete, 50);
  m["restart_p50_s"] = percentile(r.restart, 50);
  m["restart_tail_s"] = e2e::tail(r.restart);
  m["stored_bytes_per_user_byte"] =
      r.user_bytes > 0 ? static_cast<double>(r.repo_growth) /
                             static_cast<double>(r.user_bytes)
                       : 0.0;
  m["ops"] = static_cast<double>(r.ops);
  m["ops_failed"] = static_cast<double>(r.ops_failed);
  m["sim.events"] = static_cast<double>(r.events);
  m["core.deploy_and_boot.sim_s"] = r.deploy.sim_s;
  m["core.deploy_and_boot.events"] = static_cast<double>(r.deploy.events);
  m["cr.commit_last.sim_s"] = r.commit_last.sim_s;
  m["cr.commit_last.events"] = static_cast<double>(r.commit_last.events);
  m["cr.restart.sim_s"] = r.cr_restart.sim_s;
  m["cr.restart.events"] = static_cast<double>(r.cr_restart.events);
  m["core.snapshot.p50_s"] = percentile(r.snapshot, 50);
  m["core.snapshot.tail_s"] = e2e::tail(r.snapshot);
  m["mpi.dump.p50_s"] = percentile(r.dump, 50);
  m["mpi.dump.tail_s"] = e2e::tail(r.dump);
  m["guestfs.sync.p50_s"] = percentile(r.sync, 50);
  m["guestfs.sync.tail_s"] = e2e::tail(r.sync);
  m["mpi.restore.p50_s"] = percentile(r.restore, 50);
  m["mpi.restore.tail_s"] = e2e::tail(r.restore);
  m["reconcile.blocked_residual_s"] = r.blocked_residual_s;
  m["reconcile.restart_residual_s"] = r.restart_residual_s;
  return m;
}

std::string pct(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", p);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class F>
std::vector<double> collect(const std::vector<const RepResult*>& reps, F f) {
  std::vector<double> v;
  for (const RepResult* r : reps) v.push_back(f(*r));
  return v;
}

/// The per-layer metrics --trace 1 reports, in order, with their units.
const std::vector<std::pair<std::string, const char*>> kPerLayer = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"core.deploy_and_boot.sim_s", "s"},
    {"core.deploy_and_boot.wall_s", "s"},
    {"core.deploy_and_boot.events", "count"},
    {"core.snapshot.p50_s", "s"},
    {"core.snapshot.tail_s", "s"},
    {"core.repo_fetch_mb", "MB"},
    {"core.peer_fetch_mb", "MB"},
    {"core.cache_hit_mb", "MB"},
    {"core.zero_mb", "MB"},
    {"core.hints", "count"},
    {"core.hinted_mb", "MB"},
    {"core.peer_copies", "count"},
    {"core.chunk_cache_hit_rate", "ratio"},
    {"core.chunk_cache_evictions", "count"},
    {"mpi.dump.p50_s", "s"},
    {"mpi.dump.tail_s", "s"},
    {"mpi.restore.p50_s", "s"},
    {"mpi.restore.tail_s", "s"},
    {"guestfs.sync.p50_s", "s"},
    {"guestfs.sync.tail_s", "s"},
    {"cr.commit_last.sim_s", "s"},
    {"cr.commit_last.wall_s", "s"},
    {"cr.commit_last.events", "count"},
    {"cr.restart.sim_s", "s"},
    {"cr.restart.wall_s", "s"},
    {"cr.restart.events", "count"},
    {"blob.stored_mb", "MB"},
    {"blob.meta_mb", "MB"},
    {"blob.version_requests", "count"},
    {"blob.provider_requests", "count"},
    {"reduce.chunks", "count"},
    {"reduce.raw_mb", "MB"},
    {"reduce.shipped_mb", "MB"},
    {"reduce.dedup_hit_rate", "ratio"},
    {"reduce.zero_chunks", "count"},
    {"reduce.compressed_chunks", "count"},
    {"flush.staged", "count"},
    {"flush.drains", "count"},
    {"flush.drains_failed", "count"},
    {"flush.backpressure_waits", "count"},
    {"flush.blocked_s", "s"},
    {"flush.drain_s", "s"},
    {"qos.writer.commit_wait_s", "s"},
    {"qos.writer.provider_wait_s", "s"},
    {"qos.writer.prefetch_wait_s", "s"},
    {"qos.reader.commit_wait_s", "s"},
    {"qos.reader.provider_wait_s", "s"},
    {"qos.reader.prefetch_wait_s", "s"},
    {"storage.disk_read_mb", "MB"},
    {"storage.disk_write_mb", "MB"},
    {"storage.seeks", "count"},
    {"net.fabric_mb", "MB"},
    {"bench.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"reconcile.wall_residual_s", "s"},
    {"reconcile.blocked_residual_s", "s"},
    {"reconcile.restart_residual_s", "s"},
    {"self.bench.sim_s", "s"},
    {"self.bench.wall_s", "s"},
    {"self.core.sim_s", "s"},
    {"self.core.wall_s", "s"},
    {"self.cr.sim_s", "s"},
    {"self.cr.wall_s", "s"},
    {"self.mpi.sim_s", "s"},
    {"self.guestfs.sim_s", "s"},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const bool trace_mode = args.run.traced;

  std::vector<RepResult> reps;
  std::vector<bool> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<std::string> notes;

  // Repetition 0 warms the allocator and page cache: it joins the
  // fingerprint check and the operation counts but no wall-clock figure.
  // After it, traced and untraced repetitions alternate in --trace 1,
  // starting with a traced one.
  const auto t0 = e2e::WallClock::now();
  const int min_reps = trace_mode ? 5 : 4;
  double longest = 0;
  for (int k = 0;; ++k) {
    const double elapsed = e2e::seconds_between(t0, e2e::WallClock::now());
    if ((k >= min_reps && elapsed >= args.seconds) ||
        (k > 0 && elapsed + longest > 150)) {
      break;
    }
    e2e::RunOptions opts = args.run;
    opts.traced = trace_mode && k % 2 == 1;
    const auto r0 = e2e::WallClock::now();
    try {
      reps.push_back(e2e::run_repetition(opts));
    } catch (const std::exception& e) {
      problems.push_back(std::string("repetition threw: ") + e.what());
      ++failed;
      ++attempted;
      break;
    }
    longest = std::max(longest, e2e::seconds_between(r0, e2e::WallClock::now()));
    traced.push_back(opts.traced);
    attempted += reps.back().ops;
    failed += reps.back().ops_failed;
    for (const auto& f : reps.back().reconcile_failures) {
      const std::string p = "reconciliation: " + f;
      if (std::find(problems.begin(), problems.end(), p) == problems.end()) {
        problems.push_back(p);
      }
      correct = false;
    }
  }
  if (reps.empty()) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(std::max<std::uint64_t>(failed, 1)));
    for (const auto& p : problems) std::fprintf(stderr, "e2ebench: %s\n", p.c_str());
    return 1;
  }

  // Model fingerprint: every repetition of one seed must agree bit for bit.
  const std::map<std::string, double> sim = sim_metrics(reps.front());
  std::string canon;
  for (const auto& [k, v] : sim) canon += k + "=" + num(v) + "\n";
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (sim_metrics(reps[i]) != sim) {
      problems.push_back("simulated metrics differ between repetitions of seed " +
                         std::to_string(args.run.seed));
      correct = false;
      break;
    }
  }

  std::vector<const RepResult*> plain, with_trace;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    (traced[i] ? with_trace : plain).push_back(&reps[i]);
  }
  if (plain.empty()) plain.push_back(&reps.front());  // only the warm-up ran
  const RepResult& first = reps.front();
  const double wall_s = median(collect(plain, [](const RepResult& r) { return r.wall_s(); }));
  std::vector<double> setups;
  for (const RepResult* r : plain) setups.insert(setups.end(), r->setup_s.begin(), r->setup_s.end());

  std::vector<Metric> e2e_metrics = {
      {"ckpt_blocked_p50_s", sim.at("ckpt_blocked_p50_s"), "s",
       "sim, n=" + std::to_string(first.blocked.size())},
      {"ckpt_blocked_tail_s", sim.at("ckpt_blocked_tail_s"), "s",
       "sim, p" + pct(e2e::tail_percentile(first.blocked.size())) +
           ", n=" + std::to_string(first.blocked.size())},
      {"ckpt_complete_p50_s", sim.at("ckpt_complete_p50_s"), "s",
       "sim, n=" + std::to_string(first.complete.size())},
      {"restart_p50_s", sim.at("restart_p50_s"), "s",
       "sim, n=" + std::to_string(first.restart.size())},
      {"restart_tail_s", sim.at("restart_tail_s"), "s",
       "sim, p" + pct(e2e::tail_percentile(first.restart.size())) +
           ", n=" + std::to_string(first.restart.size())},
      {"stored_bytes_per_user_byte", sim.at("stored_bytes_per_user_byte"), "count",
       "repository growth / user state bytes"},
      {"wall_s", wall_s, "s",
       "wall, median of " + std::to_string(plain.size()) + " repetitions"},
      {"setup_s", median(setups), "s",
       "wall, median of " + std::to_string(setups.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "process peak resident memory"},
  };

  std::vector<Metric> layer_metrics;
  if (trace_mode && with_trace.empty()) {
    problems.push_back("no traced repetition finished");
    correct = false;
  } else if (trace_mode) {
    std::map<std::string, double> wall;  // per-layer wall-clock figures
    auto med = [&](auto f) { return median(collect(with_trace, f)); };
    const double traced_wall = med([](const RepResult& r) { return r.wall_s(); });
    wall["sim.events_per_s"] =
        med([](const RepResult& r) { return static_cast<double>(r.events) / r.wall_s(); });
    wall["core.deploy_and_boot.wall_s"] = med([](const RepResult& r) { return r.deploy.wall_s; });
    wall["cr.commit_last.wall_s"] = med([](const RepResult& r) { return r.commit_last.wall_s; });
    wall["cr.restart.wall_s"] = med([](const RepResult& r) { return r.cr_restart.wall_s; });
    wall["bench.self_s"] = med([](const RepResult& r) { return r.self_s; });
    wall["trace.overhead_s"] = traced_wall - wall_s;

    // Reconciliation: every repetition checks the blocking and restart
    // paths on the simulated clock, traced ones also the wall clock (see
    // workloads.cpp); a failed check has already failed the run.
    double wall_res = 0;
    for (const RepResult* r : with_trace) wall_res = std::max(wall_res, r->wall_residual_s);
    wall["reconcile.wall_residual_s"] = wall_res;
    notes.push_back("reconciliation residuals: wall " + num(wall_res) +
                    " s (untimed driver work, largest over traced repetitions), "
                    "blocked " + num(sim.at("reconcile.blocked_residual_s")) +
                    " s, restart " + num(sim.at("reconcile.restart_residual_s")) +
                    " s (simulated, largest over samples)");
    std::map<std::string, double> sim_layer = sim;

    const RepResult& last = *with_trace.back();
    for (const auto& [layer, t] : e2e::self_times(last.spans)) {
      sim_layer["self." + layer + ".sim_s"] = t.sim_s;
      wall["self." + layer + ".wall_s"] = t.wall_s;
    }

    for (const auto& [name, unit] : kPerLayer) {
      if (const auto it = sim_layer.find(name); it != sim_layer.end()) {
        layer_metrics.push_back({name, it->second, unit, "sim"});
      } else if (const auto w = wall.find(name); w != wall.end()) {
        layer_metrics.push_back({name, w->second, unit, "wall"});
      } else {
        layer_metrics.push_back({name, 0.0, unit, "no span of this layer ran"});
      }
    }

    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string path = args.trace_dir + "/" + args.run.workload + "-seed" +
                             std::to_string(args.run.seed) + ".trace.json";
    if (!e2e::write_chrome_trace(path, last.spans, last.tenant_names)) {
      problems.push_back("cannot write trace " + path);
      correct = false;
    } else {
      notes.push_back("trace: " + path + " (" + std::to_string(last.spans.size()) +
                      " spans)");
    }
  }

  std::printf("e2ebench workload=%s seed=%llu repetitions=%zu (traced %zu)\n",
              args.run.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), reps.size(),
              with_trace.size());
  for (const auto& n : notes) std::printf("%s\n", n.c_str());
  std::printf("end-to-end:\n");
  for (const Metric& m : e2e_metrics) {
    std::printf("  %-28s %-22s %-6s (%s)\n", m.name.c_str(), num(m.value).c_str(),
                m.unit, m.note.c_str());
  }
  std::printf("  %-28s %-22llu %-6s (per repetition)\n", "ops",
              static_cast<unsigned long long>(first.ops), "count");
  std::printf("  %-28s %-22llu %-6s (per repetition)\n", "ops_failed",
              static_cast<unsigned long long>(first.ops_failed), "count");
  if (trace_mode) {
    std::printf("per-layer:\n");
    for (const Metric& m : layer_metrics) {
      std::printf("  %-36s %-22s %-6s %s\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit, m.note.c_str());
    }
  }
  std::printf("repetitions (wall_s / setup_s samples, s):");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf(" %s%.4f", i == 0 ? "[warm-up " : (traced[i] ? "[traced " : ""),
                reps[i].wall_s());
    for (const double t : reps[i].setup_s) std::printf("/%.4f", t);
    std::printf("%s", i == 0 || traced[i] ? "]" : "");
  }
  std::printf("\n");
  std::printf("model fingerprint %016llx over %zu simulated metrics:\n",
              static_cast<unsigned long long>(fnv1a(canon)), sim.size());
  for (const auto& [k, v] : sim) std::printf("  sim %s = %s\n", k.c_str(), num(v).c_str());
  for (const auto& p : problems) std::printf("problem: %s\n", p.c_str());

  const std::vector<Metric>& out = trace_mode ? layer_metrics : e2e_metrics;
  std::string json = "{\"correct\": ";
  const bool ok = correct && failed == 0;
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + num(v) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return ok ? 0 : 1;
}
