// sim_wide: the deterministic simulated deployment, sized so that
// Algorithm 1 and the F_R(t) model dominate wall time.
//
// 8 heterogeneous replicas (means ~40-145 ms), window l = 64, 4
// closed-loop clients with think time, deadline 85 ms at P_c = 0.9. No
// sockets, no threads. One run cycles through kSubSeeds simulations seeded
// from the run's seed, replaying each until the time budget is spent:
// every replay must decide every request identically (the timing loop
// doubles as a determinism check), and each selection is timed at its
// fastest replay.
//
// Selection is timed by a policy wrapper around the paper's dynamic
// policy. Handing the handler a custom policy makes it charge the
// uncached delta estimate (the paper's implementation had no model
// cache), so the wrapper is present in every run, traced or not, and
// simulated outcomes never depend on the trace flag.
#include <fstream>
#include <memory>
#include <sstream>

#include "core/model_cache.h"
#include "core/policies.h"
#include "gateway/system.h"
#include "obs/telemetry.h"
#include "replica/service_model.h"
#include "stats/variates.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aqua;

constexpr std::size_t kReplicas = 8;
constexpr std::size_t kClients = 4;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kWarmupPerClient = 100;
constexpr std::size_t kTimedPerClient = 250;
/// Simulations per run, each seeded from the run's seed; more of them
/// average out how much work one sample path happens to need.
constexpr std::size_t kSubSeeds = 12;
/// Each simulation is replayed at least this often per run.
constexpr std::size_t kMinReplays = 2;
constexpr Duration kDeadline = msec(85);
constexpr double kMinProbability = 0.9;
constexpr Duration kMeanThink = msec(1000);

/// One simulation of a run. Its seed drives every service-time draw,
/// think time and LAN delay; the replica means are fixed (evenly spread
/// 40..145 ms), so seeds differ in sample paths, not in the deployment's
/// shape.
struct SimSetup {
  std::uint64_t sim_seed = 0;
  std::vector<Duration> means;
};

std::vector<SimSetup> make_setups(std::uint64_t seed) {
  SplitMix64 rng{seed};
  std::vector<SimSetup> setups(kSubSeeds);
  for (SimSetup& setup : setups) {
    setup.sim_seed = rng.next();
    for (std::size_t r = 0; r < kReplicas; ++r) {
      setup.means.push_back(usec(40'000 + static_cast<std::int64_t>(r) * 15'000));
    }
  }
  return setups;
}

/// Timing of every selection call while `recording` is set.
struct SelectLog {
  bool recording = false;
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> end_ns;
};

class TimedPolicy final : public core::SelectionPolicy {
 public:
  TimedPolicy(core::PolicyPtr inner, SelectLog& log) : inner_(std::move(inner)), log_(log) {}

  core::SelectionResult select(std::span<const core::ReplicaObservation> observations,
                               const core::QosSpec& qos, Duration overhead_delta,
                               Rng& rng) override {
    const std::int64_t start = now_ns();
    core::SelectionResult result = inner_->select(observations, qos, overhead_delta, rng);
    const std::int64_t end = now_ns();
    if (log_.recording) {
      log_.start_ns.push_back(start);
      log_.end_ns.push_back(end);
    }
    return result;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  core::PolicyPtr inner_;
  SelectLog& log_;
};

/// Simulated outcome of one repetition; identical for every repetition
/// of one seed.
struct Outcome {
  std::uint64_t requests = 0;
  std::uint64_t answered = 0;
  std::uint64_t timely = 0;
  std::uint64_t sum_k = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over every record

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (i * 8)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  }
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

struct Rep {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t timed_requests = 0;
  std::uint64_t events = 0;
  double model_misses = 0.0;
  std::int64_t timed_start_ns = 0;
  std::int64_t timed_end_ns = 0;
  SelectLog log;
  Outcome outcome;
  std::vector<double> response_us;  // simulated t_r of every answered timed request
};

/// `cache_hub` (traced runs only) receives the model caches' counters;
/// it is never attached to the simulated system itself.
Rep run_rep(const SimSetup& setup, obs::Telemetry* cache_hub) {
  Rep rep;
  const std::int64_t setup_start = now_ns();
  gateway::SystemConfig config;
  config.seed = setup.sim_seed;
  gateway::AquaSystem system{config};
  for (Duration mean : setup.means) {
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(mean, mean / 4)));
  }
  gateway::HandlerConfig handler;
  handler.repository.window_size = kWindow;
  gateway::ClientWorkload workload;
  workload.total_requests = kWarmupPerClient + kTimedPerClient;
  workload.think_time = stats::make_exponential(kMeanThink);

  std::vector<gateway::ClientApp*> apps;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto cache = std::make_shared<core::ModelCache>();
    if (cache_hub != nullptr) cache->set_telemetry(cache_hub);
    auto policy = std::make_unique<TimedPolicy>(
        core::make_dynamic_policy(handler.selection, handler.model, cache), rep.log);
    workload.start_delay = msec(static_cast<std::int64_t>(c) * 37);
    apps.push_back(&system.add_client(core::QosSpec{kDeadline, kMinProbability}, workload,
                                      handler, std::move(policy)));
  }

  // Window warm-up belongs to set-up: run until every client has issued
  // its warm-up requests.
  auto min_issued = [&] {
    std::size_t m = SIZE_MAX;
    for (const auto* app : apps) m = std::min(m, app->issued());
    return m;
  };
  while (min_issued() < kWarmupPerClient) system.run_for(msec(200));
  rep.setup_s = seconds_since(setup_start);

  std::vector<std::size_t> issued_at_start;
  std::uint64_t issued_before = 0;
  for (const auto* app : apps) {
    issued_at_start.push_back(app->issued());
    issued_before += app->issued();
  }
  const std::uint64_t events_before = system.simulator().executed_events();
  const auto misses_before =
      cache_hub != nullptr ? cache_hub->metrics().counter("model_cache.misses").value() : 0;

  rep.log.recording = true;
  rep.timed_start_ns = now_ns();
  system.run_until_clients_done(sec(1'000'000));
  rep.timed_end_ns = now_ns();
  rep.log.recording = false;
  rep.timed_s = static_cast<double>(rep.timed_end_ns - rep.timed_start_ns) * 1e-9;

  std::uint64_t issued_after = 0;
  for (const auto* app : apps) issued_after += app->issued();
  rep.timed_requests = issued_after - issued_before;
  rep.events = system.simulator().executed_events() - events_before;
  if (cache_hub != nullptr) {
    rep.model_misses = static_cast<double>(
        cache_hub->metrics().counter("model_cache.misses").value() - misses_before);
  }

  for (std::size_t c = 0; c < apps.size(); ++c) {
    const auto& history = apps[c]->handler().history();
    for (std::size_t i = issued_at_start[c]; i < history.size(); ++i) {
      const gateway::RequestRecord& record = history[i];
      if (record.probe) continue;
      Outcome& o = rep.outcome;
      ++o.requests;
      if (record.response_time.has_value()) ++o.answered;
      if (record.timely) ++o.timely;
      o.sum_k += record.redundancy;
      o.mix(record.redundancy);
      o.mix(record.timely ? 1 : 0);
      o.mix(static_cast<std::uint64_t>(record.response_time.value_or(Duration{-1}).count()));
      if (record.response_time.has_value()) {
        rep.response_us.push_back(static_cast<double>(record.response_time->count()));
      }
    }
  }
  return rep;
}

/// Repetitions, cycling through the sub-seeds, until `seconds` of wall
/// time are spent and every sub-seed ran kMinReplays times. reps[j] holds
/// the repetitions of sub-seed j.
std::vector<std::vector<Rep>> run_reps(const std::vector<SimSetup>& setups, double seconds,
                                       obs::Telemetry* cache_hub) {
  std::vector<std::vector<Rep>> reps(setups.size());
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < kMinReplays * setups.size() || seconds_since(start) < seconds;
       ++i) {
    reps[i % setups.size()].push_back(run_rep(setups[i % setups.size()], cache_hub));
  }
  return reps;
}

struct Summary {
  double throughput_rps = 0.0;
  double select_p50_us = 0.0;
  double select_p99_us = 0.0;
  double setup_s = 0.0;
  std::size_t repetitions = 0;
  std::vector<double> select_us;  // fastest replay of every selection
};

/// Replays of one sub-seed repeat exactly the same computation, so the
/// fastest replay of each selection is its time on an unloaded core: the
/// machine's other tenants only ever add to it. Each sub-seed's timed
/// phase costs its selections' fastest times plus the fastest replay of
/// everything else; throughput is all sub-seeds' requests over the sum,
/// and the selection percentiles are taken over the fastest selection
/// times. Set-up is the median over every repetition.
Summary summarise(const std::vector<std::vector<Rep>>& reps) {
  Summary s;
  std::vector<double> setup;
  double requests = 0.0;
  double seconds = 0.0;
  for (const std::vector<Rep>& runs : reps) {
    const std::size_t calls = runs.front().log.start_ns.size();
    std::vector<std::int64_t> fastest(calls, INT64_MAX);
    std::int64_t other = INT64_MAX;
    for (const Rep& rep : runs) {
      setup.push_back(rep.setup_s);
      ++s.repetitions;
      if (rep.log.start_ns.size() != calls) continue;  // a determinism failure, reported apart
      std::int64_t selecting = 0;
      for (std::size_t i = 0; i < calls; ++i) {
        const std::int64_t d = rep.log.end_ns[i] - rep.log.start_ns[i];
        fastest[i] = std::min(fastest[i], d);
        selecting += d;
      }
      other = std::min(other, rep.timed_end_ns - rep.timed_start_ns - selecting);
    }
    std::int64_t total = other;
    for (std::int64_t d : fastest) {
      total += d;
      s.select_us.push_back(static_cast<double>(d) * 1e-3);
    }
    requests += static_cast<double>(runs.front().timed_requests);
    seconds += static_cast<double>(total) * 1e-9;
  }
  std::sort(s.select_us.begin(), s.select_us.end());
  s.throughput_rps = requests / seconds;
  s.select_p50_us = quantile_sorted(s.select_us, 5000);
  s.select_p99_us = quantile_sorted(s.select_us, 9900);
  s.setup_s = median(setup);
  return s;
}

/// Every repetition of a sub-seed must decide every request identically.
void check_determinism(const std::vector<std::vector<Rep>>& reps, Result& result,
                       const char* phase) {
  for (std::size_t j = 0; j < reps.size(); ++j) {
    for (std::size_t i = 1; i < reps[j].size(); ++i) {
      const Outcome& a = reps[j][0].outcome;
      const Outcome& b = reps[j][i].outcome;
      if (a == b) continue;
      result.failures.push_back(std::string(phase) + ": sub-seed " + std::to_string(j) +
                                " repetition " + std::to_string(i) +
                                " decided differently from its first (timely " +
                                std::to_string(b.timely) + " vs " + std::to_string(a.timely) +
                                ", sum|K| " + std::to_string(b.sum_k) + " vs " +
                                std::to_string(a.sum_k) + ")");
      return;
    }
  }
}

}  // namespace

Result run_sim_wide(const Options& options) {
  Result result;
  const std::vector<SimSetup> setups = make_setups(options.seed);
  {
    std::ostringstream line;
    line << "sim_wide: " << kReplicas << " replicas, means (ms)";
    for (Duration m : setups[0].means) line << ' ' << to_ms(m);
    line << "; l=" << kWindow << ", " << kClients << " clients, deadline " << to_ms(kDeadline)
         << " ms, P_c " << kMinProbability << "; " << kSubSeeds
         << " simulations per run, each of " << kWarmupPerClient << " warm-up + "
         << kTimedPerClient << " timed requests per client";
    result.notes.push_back(line.str());
  }

  // The untraced run, or the untraced half of a traced run.
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const auto reps = run_reps(setups, untraced_seconds, nullptr);
  check_determinism(reps, result, "untraced");
  const Summary untraced = summarise(reps);

  // Simulated outcomes: one repetition of each sub-seed (they all agree).
  Outcome outcome;
  std::vector<double> response_us;
  for (const auto& runs : reps) {
    const std::vector<double>& r = runs.front().response_us;
    response_us.insert(response_us.end(), r.begin(), r.end());
    outcome.requests += runs.front().outcome.requests;
    outcome.answered += runs.front().outcome.answered;
    outcome.timely += runs.front().outcome.timely;
    outcome.sum_k += runs.front().outcome.sum_k;
    for (const Rep& rep : runs) {
      result.attempted += rep.outcome.requests;
      result.failed += rep.outcome.requests - rep.outcome.answered;
    }
  }
  const auto requests = static_cast<double>(outcome.requests);
  result.metrics["throughput_rps"] = untraced.throughput_rps;
  std::sort(response_us.begin(), response_us.end());
  result.metrics["latency_p50_us"] = quantile_sorted(response_us, 5000);
  result.metrics["latency_tail_us"] = quantile_sorted(response_us, 9900);
  result.metrics["timely_fraction"] = static_cast<double>(outcome.timely) / requests;
  result.metrics["replicas_per_request"] = static_cast<double>(outcome.sum_k) / requests;
  result.metrics["setup_s"] = untraced.setup_s;
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.notes.push_back("sim_wide: " + std::to_string(untraced.repetitions) +
                         " repetitions; repetitions of one sub-seed decided identically; "
                         "latency = simulated response time t_r (tail = p99)");
  result.notes.push_back(describe_distribution("simulated response time", response_us, "us"));
  result.notes.push_back(describe_distribution("selection wall time, fastest replay",
                                               untraced.select_us, "us"));
  if (!options.trace) return result;

  obs::Telemetry hub;
  const auto traced_reps = run_reps(setups, options.seconds / 2, &hub);
  check_determinism(traced_reps, result, "traced");
  for (std::size_t j = 0; j < setups.size(); ++j) {
    if (!(traced_reps[j].front().outcome == reps[j].front().outcome)) {
      result.failures.push_back("traced run decided sub-seed " + std::to_string(j) +
                                " differently from the untraced run");
    }
  }
  const Summary traced = summarise(traced_reps);

  // Spans: one root per repetition's timed phase, one child per
  // selection. The root's self time is everything that is not selection:
  // handlers, the simulated LAN, replicas, the event loop.
  SpanTable table;
  double total_s = 0.0, select_s = 0.0, other_s = 0.0, events = 0.0, misses = 0.0, timed = 0.0;
  std::ofstream trace_file;
  if (!options.trace_out.empty()) {
    trace_file.open(options.trace_out);
    trace_file << "request,kind,parent,start_ns,end_ns,self_ns\n";
  }
  for (const auto& runs : traced_reps) {
    for (const Rep& rep : runs) {
      std::vector<Span> spans;
      spans.push_back({0, rep.timed_start_ns, rep.timed_end_ns, -1, 0});
      for (std::size_t i = 0; i < rep.log.start_ns.size(); ++i) {
        spans.push_back({1, rep.log.start_ns[i], rep.log.end_ns[i], 0, i + 1});
      }
      const std::vector<std::int64_t> self = self_times(spans);
      const bool write = trace_file.is_open() && &rep == &traced_reps.front().front();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const char* kind = spans[i].kind == 0 ? "sim.timed_phase" : "core.select";
        table.add(kind, static_cast<double>(spans[i].duration()) * 1e-3,
                  static_cast<double>(self[i]) * 1e-3);
        if (write) {
          trace_file << spans[i].request << ',' << kind << ','
                     << (spans[i].parent < 0 ? "" : "sim.timed_phase") << ',' << spans[i].start
                     << ',' << spans[i].end << ',' << self[i] << '\n';
        }
      }
      table.root_total_us += static_cast<double>(spans[0].duration()) * 1e-3;
      total_s += rep.timed_s;
      other_s += static_cast<double>(self[0]) * 1e-9;
      select_s += rep.timed_s - static_cast<double>(self[0]) * 1e-9;
      events += static_cast<double>(rep.events);
      misses += rep.model_misses;
      timed += static_cast<double>(rep.timed_requests);
    }
  }
  result.layers["core.select_us.p50"] = traced.select_p50_us;
  result.layers["core.select_us.p99"] = traced.select_p99_us;
  result.layers["core.select_share"] = select_s / total_s;
  result.layers["core.model_misses_per_request"] = misses / timed;
  result.layers["sim.events_per_request"] = events / timed;
  result.layers["sim.other_us_per_request"] = other_s * 1e6 / timed;
  result.layers["trace.overhead_throughput_share"] =
      1.0 - traced.throughput_rps / untraced.throughput_rps;
  result.layers["trace.overhead_latency_p50_us"] = traced.select_p50_us - untraced.select_p50_us;
  for (std::string& line : table.render()) result.notes.push_back(std::move(line));
  result.notes.push_back("sim_wide traced: " + std::to_string(traced.repetitions) +
                         " repetitions, outcomes equal to the untraced run");
  return result;
}

}  // namespace perfbench
