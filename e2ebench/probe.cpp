#include "probe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace e2e {

using blobcr::sim::Duration;

Probe::Open Probe::begin(const char* name, int parent, int rank, int tenant,
                         bool driver) {
  Open open;
  open.sim0 = cloud_->now();
  open.events0 = cloud_->simulation().events_processed();
  if (traced_) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.rank = rank;
    s.tenant = tenant;
    s.driver = driver;
    s.sim_begin = open.sim0;
    s.at_begin = read_counters();
    open.id = s.id;
    spans_.push_back(std::move(s));
  }
  // Last, so the span's own bookkeeping stays outside its wall interval.
  open.wall0 = WallClock::now();
  if (traced_) spans_[open.id].wall_begin = seconds_between(origin_, open.wall0);
  return open;
}

Probe::Closed Probe::end(const Open& open) {
  const WallClock::time_point wall1 = WallClock::now();
  Closed c;
  c.sim = cloud_->now() - open.sim0;
  c.wall = seconds_between(open.wall0, wall1);
  c.events = cloud_->simulation().events_processed() - open.events0;
  if (traced_ && open.id >= 0) {
    Span& s = spans_[open.id];
    s.sim_end = cloud_->now();
    s.wall_end = seconds_between(origin_, wall1);
    s.at_end = read_counters();
  }
  return c;
}

void Probe::charge_self(WallClock::time_point t0, WallClock::time_point t1) {
  self_s_ += seconds_between(t0, t1);
  if (traced_) self_iv_.emplace_back(since_origin(t0), since_origin(t1));
}

Counters Probe::read_counters() const {
  Counters c;
  c.events = cloud_->simulation().events_processed();
  c.fabric_bytes = cloud_->fabric().total_bytes();
  c.repo_bytes = cloud_->repository_bytes();
  return c;
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  if (v.size() <= 20) return percentile(std::move(v), 50);
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double tail_percentile(std::size_t samples) {
  if (samples <= 20) return 50.0;
  const double n = static_cast<double>(samples);
  return 100.0 * (n - 10.0) / n;
}

namespace {

/// Length of the union of [lo, hi) intervals, clipped to [from, to).
template <class T>
T covered(std::vector<std::pair<T, T>> iv, T from, T to) {
  std::sort(iv.begin(), iv.end());
  T total = 0;
  T cursor = from;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, to);
    if (hi > lo) {
      total += hi - lo;
      cursor = hi;
    }
  }
  return total;
}

}  // namespace

double driver_coverage_s(const std::vector<Span>& spans,
                         const std::vector<std::pair<double, double>>& self_iv,
                         double from, double to) {
  std::vector<std::pair<double, double>> iv = self_iv;
  for (const Span& s : spans) {
    if (s.driver && s.layer() != "bench") iv.emplace_back(s.wall_begin, s.wall_end);
  }
  return covered(std::move(iv), from, to);
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<const Span*>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    std::vector<std::pair<Duration, Duration>> sim_iv;
    std::vector<std::pair<double, double>> wall_iv;
    for (const Span* c : children[s.id]) {
      sim_iv.emplace_back(c->sim_begin, c->sim_end);
      wall_iv.emplace_back(c->wall_begin, c->wall_end);
    }
    SelfTime& t = out[s.layer()];
    const Duration sim_dur = s.sim_end - s.sim_begin;
    t.sim_s += blobcr::sim::to_seconds(
        sim_dur - covered(std::move(sim_iv), s.sim_begin, s.sim_end));
    if (s.driver) {
      t.wall_s += (s.wall_end - s.wall_begin) -
                  covered(std::move(wall_iv), s.wall_begin, s.wall_end);
    }
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

int track_of(const Span& s) { return s.tenant * 1000 + s.rank + 1; }

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::vector<std::string>& tenant_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  sep();
  std::fputs(R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"simulated clock"}})", f);
  sep();
  std::fputs(R"({"name":"process_name","ph":"M","pid":2,"args":{"name":"wall clock, driver-level calls"}})", f);

  std::map<int, std::string> tracks;
  for (const Span& s : spans) {
    const std::string tenant = s.tenant < static_cast<int>(tenant_names.size())
                                   ? tenant_names[s.tenant]
                                   : "tenant" + std::to_string(s.tenant);
    tracks[track_of(s)] =
        s.rank < 0 ? tenant + " driver" : tenant + " rank " + std::to_string(s.rank);
  }
  for (const auto& [tid, name] : tracks) {
    for (const int pid : {1, 2}) {
      sep();
      std::fprintf(f,
                   R"({"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}})",
                   pid, tid, json_escape(name).c_str());
    }
  }

  for (const Span& s : spans) {
    const double sim_b = static_cast<double>(s.sim_begin) / 1e3;  // ns -> us
    const double sim_d = static_cast<double>(s.sim_end - s.sim_begin) / 1e3;
    char args[512];
    std::snprintf(args, sizeof args,
                  R"("args":{"id":%d,"parent":%d,"rank":%d,"tenant":%d,)"
                  R"("sim_begin_s":%.9f,"sim_end_s":%.9f,)"
                  R"("wall_begin_s":%.9f,"wall_end_s":%.9f,"events":%llu})",
                  s.id, s.parent, s.rank, s.tenant,
                  blobcr::sim::to_seconds(s.sim_begin),
                  blobcr::sim::to_seconds(s.sim_end), s.wall_begin,
                  s.wall_end,
                  static_cast<unsigned long long>(s.at_end.events -
                                                  s.at_begin.events));
    sep();
    std::fprintf(f,
                 R"({"name":"%s","cat":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,%s})",
                 json_escape(s.name).c_str(), json_escape(s.layer()).c_str(),
                 track_of(s), sim_b, sim_d, args);
    if (s.driver) {
      sep();
      std::fprintf(f,
                   R"({"name":"%s","cat":"%s","ph":"X","pid":2,"tid":%d,"ts":%.3f,"dur":%.3f,%s})",
                   json_escape(s.name).c_str(), json_escape(s.layer()).c_str(),
                   track_of(s), s.wall_begin * 1e6,
                   (s.wall_end - s.wall_begin) * 1e6, args);
    }
    for (const auto& [t, c] : {std::pair{s.sim_begin, s.at_begin},
                               std::pair{s.sim_end, s.at_end}}) {
      sep();
      std::fprintf(f,
                   R"({"name":"counters","ph":"C","pid":1,"ts":%.3f,"args":{"events":%llu,"fabric_mb":%.6f,"repo_mb":%.6f}})",
                   static_cast<double>(t) / 1e3,
                   static_cast<unsigned long long>(c.events),
                   static_cast<double>(c.fabric_bytes) / 1e6,
                   static_cast<double>(c.repo_bytes) / 1e6);
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
