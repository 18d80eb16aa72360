#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "softmow/softmow.h"

namespace cpbench {
namespace {

namespace sm = softmow;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- registry and app counters, read at phase boundaries ---------------------

/// Sum of every series of a counter family, optionally restricted to the
/// series carrying label `key=value`.
std::uint64_t counter_sum(const std::vector<sm::obs::MetricSample>& samples,
                          const std::string& name, const std::string& key = {},
                          const std::string& value = {}) {
  std::uint64_t total = 0;
  for (const auto& s : samples) {
    if (s.kind != sm::obs::MetricKind::kCounter || s.name != name) continue;
    if (!key.empty() &&
        std::find(s.labels.begin(), s.labels.end(), std::make_pair(key, value)) ==
            s.labels.end())
      continue;
    total += s.counter_value;
  }
  return total;
}

double gauge_sum(const std::vector<sm::obs::MetricSample>& samples, const std::string& name) {
  double total = 0;
  for (const auto& s : samples)
    if (s.kind == sm::obs::MetricKind::kGauge && s.name == name) total += s.gauge_value;
  return total;
}

/// Everything the per-layer metrics difference across a window.
struct LayerCounters {
  std::map<std::string, double> v;

  static LayerCounters take(sm::topo::Scenario& sc) {
    LayerCounters c;
    const auto samples = sm::obs::default_registry().snapshot();
    c.v["path_setups"] = static_cast<double>(counter_sum(samples, "path_setups_total"));
    c.v["flowmods"] = static_cast<double>(counter_sum(samples, "flowmods_sent_total"));
    c.v["sb_messages"] = static_cast<double>(counter_sum(samples, "southbound_messages_total"));
    c.v["sb_batches"] = static_cast<double>(counter_sum(samples, "southbound_batches_total"));
    for (int level = 1; level <= 2; ++level) {
      c.v["ctrl_L" + std::to_string(level)] = static_cast<double>(counter_sum(
          samples, "controller_messages_total", "level", std::to_string(level)));
    }
    c.v["disc_rounds"] = static_cast<double>(counter_sum(samples, "discovery_rounds_total"));
    c.v["disc_frames"] =
        static_cast<double>(counter_sum(samples, "discovery_frames_total", "kind", "sent"));
    c.v["busy_ms"] = gauge_sum(samples, "profile_wall_busy_ms");
    c.v["stall_ms"] = gauge_sum(samples, "profile_wall_stall_ms");
    for (sm::reca::Controller* ctl : sc.mgmt->all_controllers()) {
      c.v["vfabric_updates"] += static_cast<double>(ctl->reca().vfabric_updates_sent());
      c.v["translated"] += static_cast<double>(ctl->reca().stats().flowmods_translated);
      c.v["translate_failures"] += static_cast<double>(ctl->reca().stats().flowmod_failures);
    }
    for (sm::reca::Controller* leaf : sc.mgmt->leaves()) {
      const auto& st = sc.apps->mobility(*leaf).stats();
      c.v["bearer_arrivals"] += static_cast<double>(st.bearer_arrivals);
      c.v["bearers_delegated"] += static_cast<double>(st.bearers_delegated);
      c.v["ho_requests"] += static_cast<double>(st.handover_requests);
      c.v["ho_delegated"] += static_cast<double>(st.handovers_delegated);
    }
    return c;
  }
  /// Adds the change from `before` to `after` to this accumulator.
  void accumulate(const LayerCounters& before, const LayerCounters& after) {
    for (const auto& [key, value] : after.v) v[key] += value - before.v.at(key);
  }
  double operator[](const std::string& key) const {
    auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- setup ---------------------------------------------------------------

/// Counts that identify a built scenario (the traced build must match).
struct ScenarioShape {
  std::size_t switches = 0, links = 0, groups = 0, rules = 0;
  bool operator==(const ScenarioShape&) const = default;
  static ScenarioShape of(const sm::topo::Scenario& sc) {
    return {sc.net.all_switches().size(), sc.net.links().size(), sc.net.bs_groups().size(),
            sc.net.total_rules()};
  }
};

/// topo::build_scenario, step by step, with a span around each layer call.
/// Mirrors src/topo/scenario.cpp; the traced run checks that the result has
/// the same shape as build_scenario's.
std::unique_ptr<sm::topo::Scenario> traced_build_scenario(sm::topo::ScenarioParams params,
                                                          SpanRecorder& rec) {
  auto sc = std::make_unique<sm::topo::Scenario>();
  sm::Rng rng(params.seed);
  {
    ScopedSpan span(rec, rec.intern("topo.generate_wan"));
    sc->wan = sm::topo::generate_wan(sc->net, params.wan);
  }
  {
    ScopedSpan span(rec, rec.intern("topo.place_egress_points"));
    sc->egresses =
        sm::topo::place_egress_points(sc->net, sc->wan, params.egress_points, rng);
  }
  params.trace.extent = params.wan.extent;
  params.iplane.extent = params.wan.extent;
  {
    ScopedSpan span(rec, rec.intern("topo.generate_lte_trace"));
    sc->trace = sm::topo::generate_lte_trace(sc->net, sc->wan, params.trace);
  }
  {
    ScopedSpan span(rec, rec.intern("topo.iplane_model"));
    sc->iplane = std::make_unique<sm::topo::IPlaneModel>(sc->net, params.iplane);
  }
  {
    ScopedSpan span(rec, rec.intern("topo.partition_regions"));
    sc->partition = sm::topo::partition_regions(sc->net, sc->trace.groups, sc->wan.switches,
                                                params.regions, sc->trace.group_load);
    sm::topo::make_regions_connected(sc->net, sc->partition);
  }
  {
    ScopedSpan span(rec, rec.intern("dataplane.add_middlebox"));
    const sm::dataplane::MiddleboxType kTypes[] = {
        sm::dataplane::MiddleboxType::kFirewall, sm::dataplane::MiddleboxType::kLightweightDpi,
        sm::dataplane::MiddleboxType::kRateLimiter,
        sm::dataplane::MiddleboxType::kVideoTranscoder};
    for (std::size_t r = 0; r < sc->partition.switch_regions.size(); ++r) {
      const auto& switches = sc->partition.switch_regions[r];
      if (switches.empty()) continue;
      for (std::size_t m = 0; m < params.middleboxes_per_region; ++m) {
        sm::SwitchId at = rng.choice(switches);
        sc->net.add_middlebox(at, kTypes[(r + m) % 4], 1e6);
      }
    }
  }
  sm::mgmt::HierarchySpec spec;
  spec.label_mode = params.label_mode;
  spec.group_adjacency = sc->trace.group_adjacency;
  for (std::size_t r = 0; r < params.regions; ++r) {
    sm::mgmt::RegionSpec region;
    region.name = "leaf-" + std::string(1, static_cast<char>('A' + r));
    region.switches = sc->partition.switch_regions[r];
    region.groups = sc->partition.group_regions[r];
    spec.leaves.push_back(std::move(region));
  }
  if (params.with_mid_level) {
    for (std::size_t r = 0; r + 1 < params.regions; r += 2)
      spec.mid_regions.push_back({r, r + 1});
    if (params.regions % 2 == 1) spec.mid_regions.back().push_back(params.regions - 1);
  }
  {
    ScopedSpan span(rec, rec.intern("mgmt.bootstrap"));
    sc->mgmt = std::make_unique<sm::mgmt::ManagementPlane>(&sc->net);
    sc->mgmt->bootstrap(spec);
  }
  {
    ScopedSpan span(rec, rec.intern("apps.AppSuite"));
    sc->apps = std::make_unique<sm::apps::AppSuite>(*sc->mgmt);
  }
  if (params.originate_interdomain) {
    ScopedSpan span(rec, rec.intern("apps.originate_interdomain"));
    sc->apps->originate_interdomain(*sc->iplane);
  }
  return sc;
}

/// One set-up system: scenario, resident UEs, the generator for its
/// schedule, and (discovery) the bound engine.
class Setup {
 public:
  Setup(const WorkloadSpec& spec, const sm::topo::ScenarioParams& params, std::uint64_t seed,
        bool traced_build, bool profile_engine, SpanRecorder& rec) {
    auto t0 = Clock::now();
    scenario = traced_build ? traced_build_scenario(params, rec)
                            : sm::topo::build_scenario(params);
    auto t1 = Clock::now();

    GeneratorParams gen = spec.gen;
    gen.seed = seed;
    const auto groups = static_cast<std::uint32_t>(scenario->trace.groups.size());
    gen.ues_per_group = std::max<std::uint32_t>(1, spec.resident_ues / std::max(groups, 1u));
    generator = std::make_unique<OpGenerator>(
        trace_view(scenario->trace, scenario->net,
                   static_cast<std::uint32_t>(scenario->iplane->prefixes().size())),
        gen);
    for (sm::BsGroupId g : scenario->trace.groups)
      apps.push_back(&scenario->apps->leaf_mobility_of_group(g));
    const std::vector<Op> residents = generator->resident_attaches();

    const std::uint32_t attach_name = rec.intern("apps.ue_attach");
    auto t2 = Clock::now();
    for (const Op& op : residents) {
      ScopedSpan span(rec, attach_name);
      if (!apps[op.group]->ue_attach(sm::UeId{op.ue}, sm::BsId{op.bs}).ok()) ++attach_failures;
    }
    if (!spec.churn) {
      ScopedSpan span(rec, rec.intern("sim.bind_shards"));
      // One thread: the shards run inline on the caller, in the schedule
      // any thread count executes. With a worker pool, every window's
      // hand-off waits on the scheduler of the shared host, and the round
      // times measured that instead of the engine.
      sm::sim::ShardedSimulator::Options opts;
      opts.lookahead = sm::sim::Duration::millis(1.0);
      opts.profile = profile_engine;
      engine = std::make_unique<sm::sim::ShardedSimulator>(
          scenario->mgmt->natural_shard_count(), opts);
      scenario->mgmt->bind_shards(*engine, sm::sim::Duration::millis(1.0));
    }
    auto t3 = Clock::now();
    setup_s = seconds_between(t0, t1) + seconds_between(t2, t3);
    residents_attached = residents.size();
  }
  ~Setup() {
    if (engine) scenario->mgmt->unbind_shards();
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  std::unique_ptr<sm::topo::Scenario> scenario;
  std::unique_ptr<OpGenerator> generator;
  std::vector<sm::apps::MobilityApp*> apps;  ///< leaf app per group index
  std::unique_ptr<sm::sim::ShardedSimulator> engine;
  double setup_s = 0;
  std::size_t residents_attached = 0;
  std::size_t attach_failures = 0;
};

// --- measured windows ----------------------------------------------------------

struct Window {
  double host_s = 0;
  double trace_s = 0;  ///< churn: trace time covered
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_us;                             ///< every op, in completion order
  std::array<std::vector<double>, kOpKinds> latency_us;  ///< churn, per op kind
  std::vector<double> slice_rates;  ///< ops per second of each ~1 s slice
  std::uint64_t engine_events = 0;
  double engine_run_s = 0;
  bool capped = false;  ///< stopped by the host-time cap before its op count

  void merge(const Window& o) {
    host_s += o.host_s;
    trace_s += o.trace_s;
    ops += o.ops;
    failed += o.failed;
    op_us.insert(op_us.end(), o.op_us.begin(), o.op_us.end());
    for (std::size_t k = 0; k < kOpKinds; ++k)
      latency_us[k].insert(latency_us[k].end(), o.latency_us[k].begin(), o.latency_us[k].end());
    slice_rates.insert(slice_rates.end(), o.slice_rates.begin(), o.slice_rates.end());
    engine_events += o.engine_events;
    engine_run_s += o.engine_run_s;
    capped = capped || o.capped;
  }

  /// Throughput as the median over ~1 s slices, so a burst of interference
  /// from outside the process moves it less than a plain mean would.
  double ops_per_s() const {
    return slice_rates.empty() ? ratio(static_cast<double>(ops), host_s) : median(slice_rates);
  }
};

/// Runs `step` (which adds one op to the window) until `ops` ops have run,
/// recording the op rate of each ~1 s slice. The window is a count of
/// operations, not a span of host time, so which operations run, and how
/// many of them fail, is a function of the seed alone. `cap_s` of host time
/// stops a window that runs far slower than its count was sized for.
template <class Step>
Window timed_window(std::uint64_t ops, double cap_s, Step step) {
  Window w;
  const auto start = Clock::now();
  auto slice_start = start;
  std::uint64_t slice_ops = 0;
  for (;;) {
    step(w);
    const auto now = Clock::now();
    if (const double in_slice = seconds_between(slice_start, now); in_slice >= 1.0) {
      w.slice_rates.push_back(static_cast<double>(w.ops - slice_ops) / in_slice);
      slice_ops = w.ops;
      slice_start = now;
    }
    if (w.ops >= ops) break;
    if (seconds_between(start, now) >= cap_s) {
      w.capped = true;
      break;
    }
  }
  w.host_s = seconds_between(start, Clock::now());
  return w;
}

constexpr std::uint32_t kNowhere = 0xffffffffu;

/// (leaf controller, path id) of installed paths.
using FlaggedPaths = std::set<std::pair<const sm::reca::Controller*, std::uint64_t>>;

/// The outcome digest of every operation run, plus its value at a fixed
/// operation count past the warm-up, which every run reaches: two runs with
/// one seed agree there even when their windows run a different number of
/// operations (another --seconds, or a window cut by the host-time cap).
struct OutcomeLog {
  static constexpr std::uint64_t kCheckpointOps = 1000;

  void add(std::uint64_t a, std::uint64_t b) {
    digest.add(a);
    digest.add(b);
    if (++ops == checkpoint_at) at_checkpoint = digest.hex();
  }
  void end_warm_up() {
    warm_up = digest.hex();
    checkpoint_at = ops + kCheckpointOps;
  }

  Digest digest;
  std::uint64_t ops = 0;
  std::uint64_t checkpoint_at = 0;
  std::string warm_up;
  std::string at_checkpoint;
};

/// Issues generated churn operations against the leaf mobility apps.
class ChurnDriver {
 public:
  ChurnDriver(Setup& setup, const WorkloadSpec& spec, SpanRecorder& rec)
      : setup_(setup), spec_(spec), rec_(rec) {
    const std::size_t groups = setup.apps.size();
    leaf_of_group_.resize(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      const sm::BsGroupId id = setup.scenario->trace.groups[g];
      leaf_of_group_[g] =
          static_cast<std::uint32_t>(setup.scenario->mgmt->leaf_index_of_group(id));
      leaf_ctl_.push_back(setup.scenario->mgmt->leaf_of_group(id));
    }
    for (const Op& op : setup.generator->resident_attaches()) place(op.ue, op.group, op.bs);
    for (std::size_t k = 0; k < kOpKinds; ++k)
      span_names_[k] = rec.intern(std::string("apps.") + op_name(static_cast<OpKind>(k)));
    pending_ = setup.generator->next();
  }

  /// Runs every operation due before trace time `t_end`, untimed.
  void run_until(double t_end) {
    while (pending_.t < t_end) step(nullptr, false);
  }

  Window run_window(std::uint64_t ops, double cap_s, bool traced) {
    const double t_begin = pending_.t;
    Window w = timed_window(ops, cap_s, [&](Window& into) { step(&into, traced); });
    w.trace_s = pending_.t - t_begin;
    return w;
  }

  OutcomeLog& log() { return log_; }
  /// Paths whose setup already counted as failed by the install check.
  const FlaggedPaths& flagged_paths() const { return flagged_paths_; }
  /// Failed operations by kind and error message (warm-up included).
  const std::map<std::string, std::uint64_t>& errors() const { return errors_; }
  /// A sample of the bearer requests issued, for the layer probes.
  const std::vector<sm::apps::BearerRequest>& sampled_requests() const { return sampled_; }

 private:
  struct BearerState {
    std::uint64_t id = 0;  ///< BearerId returned by request_bearer (0 = none)
    bool live = false;
  };

  void place(std::uint32_t ue, std::uint32_t group, std::uint32_t bs) {
    if (ue >= ue_group_.size()) {
      ue_group_.resize(ue + 1 + ue / 8, kNowhere);
      ue_bs_.resize(ue_group_.size(), 0);
    }
    ue_group_[ue] = group;
    ue_bs_[ue] = bs;
  }
  std::uint32_t group_of(std::uint32_t ue) const {
    return ue < ue_group_.size() ? ue_group_[ue] : kNowhere;
  }

  /// The live bearer record for generator bearer `op`, wherever the UE's
  /// handovers and idle/active cycles have moved or renumbered it.
  std::optional<sm::BearerId> resolve(const sm::apps::MobilityApp& app, const Op& op,
                                      std::uint64_t id) const {
    const sm::apps::UeRecord* rec = app.ue(sm::UeId{op.ue});
    if (rec == nullptr) return std::nullopt;
    auto it = rec->bearers.find(sm::BearerId{id});
    if (it != rec->bearers.end() && it->second.request.dst_prefix.value == op.prefix)
      return it->first;
    for (const auto& [bid, bearer] : rec->bearers)
      if (bearer.request.dst_prefix.value == op.prefix) return bid;
    return std::nullopt;
  }

  sm::apps::BearerRequest request_for(const Op& op) const {
    sm::apps::BearerRequest request;
    request.ue = sm::UeId{op.ue};
    request.bs = sm::BsId{ue_bs_[op.ue]};
    request.dst_prefix = sm::PrefixId{op.prefix};
    if (op.gbr) {
      request.qos.min_bandwidth_kbps = spec_.gbr_floor_kbps;
      request.qos.max_latency_us = spec_.gbr_max_latency_us;
    }
    return request;
  }

  /// Bearer-install check of one path: every (switch, cookie) it recorded
  /// is present in that switch's flow table.
  bool rules_installed(std::uint32_t group, sm::PathId id) const {
    const sm::nos::InstalledPath* path = leaf_ctl_[group]->paths().path(id);
    if (path == nullptr) return false;
    for (const auto& [sw, cookie] : path->rules) {
      const sm::dataplane::Switch* s = setup_.scenario->net.sw(sw);
      if (s == nullptr || s->table().find_by_cookie(cookie) == nullptr) return false;
    }
    return true;
  }

  template <class R>
  bool note(const R& result, const Op& op) {
    if (result.ok()) return true;
    ++errors_[std::string(op_name(op.kind)) + ": " + result.error().message];
    return false;
  }

  void step(Window* w, bool traced) {
    const Op op = pending_;
    pending_ = setup_.generator->next();
    if (op.kind == OpKind::kBearerSetup && op.bearer >= bearers_.size())
      bearers_.resize(op.bearer + 1 + op.bearer / 4);
    const bool bearer_op = op.kind == OpKind::kIdle || op.kind == OpKind::kActive ||
                           op.kind == OpKind::kTeardown;
    if (bearer_op && (op.bearer >= bearers_.size() || !bearers_[op.bearer].live)) return;
    const std::uint32_t group = op.kind == OpKind::kAttach ? op.group : group_of(op.ue);
    if (group == kNowhere) return;  // the UE never arrived: nothing to ask
    sm::apps::MobilityApp& app = *setup_.apps[group];

    bool ok = false;
    std::uint64_t level = 0;
    std::optional<sm::BearerId> target;
    if (op.kind == OpKind::kTeardown) {
      target = resolve(app, op, bearers_[op.bearer].id);
      bearers_[op.bearer].live = false;
    }
    const auto k = static_cast<std::size_t>(op.kind);
    // Times one public call (and spans it in a traced window); the outcome
    // is inspected after the clock stops.
    auto timed = [&](auto&& call) {
      const std::uint32_t span = traced ? rec_.open(span_names_[k], op.seq) : 0;
      const auto t0 = Clock::now();
      auto result = call();
      const auto t1 = Clock::now();
      if (traced) rec_.close(span);
      if (w != nullptr) {
        const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
        w->latency_us[k].push_back(us);
        w->op_us.push_back(us);
      }
      return result;
    };
    const sm::UeId ue{op.ue};
    switch (op.kind) {
      case OpKind::kAttach:
        ok = note(timed([&] { return app.ue_attach(ue, sm::BsId{op.bs}); }), op);
        break;
      case OpKind::kBearerSetup: {
        const sm::apps::BearerRequest request = request_for(op);
        auto id = timed([&] { return app.request_bearer(request); });
        ok = note(id, op);
        if (ok) bearers_[op.bearer] = {id->value, true};
        break;
      }
      case OpKind::kIdle:
        ok = note(timed([&] { return app.ue_idle(ue); }), op);
        break;
      case OpKind::kActive:
        ok = note(timed([&] { return app.ue_active(ue); }), op);
        break;
      case OpKind::kTeardown:
        if (target) {
          ok = note(timed([&] { return app.deactivate_bearer(ue, *target); }), op);
        } else {
          // The program dropped the bearer record: a silent failure.
          ++errors_["teardown: bearer record gone"];
        }
        break;
      case OpKind::kHandover:
        ok = note(timed([&] { return app.handover(ue, sm::BsId{op.bs}); }), op);
        break;
    }

    // Outcome bookkeeping (outside the timed call).
    if (ok && op.kind == OpKind::kAttach) place(op.ue, op.group, op.bs);
    if (ok && op.kind == OpKind::kHandover) {
      place(op.ue, op.group, op.bs);
      level = leaf_of_group_[op.group];
    }
    bool silent = false;
    if (ok && op.kind == OpKind::kBearerSetup) {
      const sm::apps::UeRecord* rec = app.ue(sm::UeId{op.ue});
      auto it = rec->bearers.find(sm::BearerId{bearers_[op.bearer].id});
      if (it != rec->bearers.end()) {
        level = static_cast<std::uint64_t>(it->second.handled_level);
        silent = it->second.handled_locally && !rules_installed(group, it->second.local_path);
        if (silent) flagged_paths_.emplace(leaf_ctl_[group], it->second.local_path.value);
      }
      if (silent) ++errors_["bearer_setup: reported ok, a rule of its path is not installed"];
      if (sampled_.size() < kSampledRequests && op.bearer % 7 == 0)
        sampled_.push_back(request_for(op));
    }
    log_.add(op.seq, k | (ok ? 0x100u : 0u) | (silent ? 0x200u : 0u) | (level << 16));
    if (w != nullptr) {
      ++w->ops;
      if (!ok || silent) ++w->failed;
    }
  }

  static constexpr std::size_t kSampledRequests = 256;

  Setup& setup_;
  const WorkloadSpec& spec_;
  SpanRecorder& rec_;
  std::array<std::uint32_t, kOpKinds> span_names_{};
  std::vector<std::uint32_t> leaf_of_group_;
  std::vector<sm::reca::Controller*> leaf_ctl_;  ///< leaf controller per group index
  std::vector<std::uint32_t> ue_group_;
  std::vector<std::uint32_t> ue_bs_;
  std::vector<BearerState> bearers_;
  std::vector<sm::apps::BearerRequest> sampled_;
  Op pending_;
  OutcomeLog log_;
  FlaggedPaths flagged_paths_;
  std::map<std::string, std::uint64_t> errors_;
};

/// Hierarchy-wide discovery rounds on the sharded engine: every controller
/// runs run_link_discovery once, then the engine runs until it drains.
class DiscoveryDriver {
 public:
  DiscoveryDriver(Setup& setup, std::uint64_t seed, SpanRecorder& rec)
      : setup_(setup),
        rec_(rec),
        rng_(seed),
        run_name_(rec.intern("sim.ShardedSimulator::run")) {}

  void warm_up(std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) round(nullptr, false);
  }

  Window run_window(std::uint64_t ops, double cap_s, bool traced) {
    return timed_window(ops, cap_s, [&](Window& into) { round(&into, traced); });
  }

  OutcomeLog& log() { return log_; }
  /// Rounds that discovered a different number of links than the first.
  std::uint64_t inconsistent_rounds() const { return inconsistent_; }

 private:
  std::uint64_t links_discovered() {
    std::uint64_t total = 0;
    for (sm::reca::Controller* c : setup_.scenario->mgmt->all_controllers())
      total += c->discovery().stats().links_discovered;
    return total;
  }

  void round(Window* w, bool traced) {
    sm::sim::ShardedSimulator& engine = *setup_.engine;
    const std::uint64_t links_before = links_discovered();
    // Periodic rounds, one second apart. Timers that fire together run in
    // scheduling order; the seed shuffles that order each round.
    std::vector<sm::reca::Controller*> order = setup_.scenario->mgmt->all_controllers();
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng_.below(i)]);
    for (sm::reca::Controller* c : order)
      engine.schedule(c->shard(), sm::sim::Duration::seconds(1.0),
                      [c] { c->run_link_discovery(); });
    const std::uint32_t span = traced ? rec_.open(run_name_, log_.ops + 1) : 0;
    const auto t0 = Clock::now();
    const std::uint64_t events = engine.run();
    const auto t1 = Clock::now();
    if (traced) rec_.close(span);
    const std::uint64_t links = links_discovered() - links_before;
    if (log_.ops == 0) first_links_ = links;
    const bool ok = links == first_links_ && links > 0;
    if (!ok) ++inconsistent_;
    log_.add(events, links);
    if (w != nullptr) {
      ++w->ops;
      if (!ok) ++w->failed;
      w->op_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      w->engine_events += events;
      w->engine_run_s += seconds_between(t0, t1);
    }
  }

  Setup& setup_;
  SpanRecorder& rec_;
  SplitMix rng_;
  std::uint32_t run_name_;
  OutcomeLog log_;
  std::uint64_t first_links_ = 0;
  std::uint64_t inconsistent_ = 0;
};

// --- correctness checks ------------------------------------------------------

struct CheckReport {
  double audit_s = 0;
  double verify_s = 0;
  sm::mgmt::AuditReport audit;
  sm::verify::VerifyReport verify;
  std::size_t live_leaf_bearers = 0;
  std::size_t bearers_missing_rules = 0;  ///< rules gone, or classifier does not deliver
  std::size_t stray_classifiers = 0;      ///< undelivering classifiers of no live leaf bearer
  std::size_t already_counted = 0;  ///< of bearers_missing_rules, failed at setup already
  std::size_t verify_runs = 0;
  /// Failures no operation has counted yet.
  [[nodiscard]] std::size_t silent_failures() const {
    return bearers_missing_rules - already_counted + stray_classifiers;
  }
};

/// `already_failed`: paths whose setup already counted as a failed
/// operation; they still make the end state incorrect, but do not count
/// again as silent failures.
CheckReport run_checks(sm::topo::Scenario& sc, const FlaggedPaths& already_failed,
                       SpanRecorder& rec) {
  CheckReport r;
  {
    ScopedSpan span(rec, rec.intern("mgmt.audit_data_plane"));
    auto t0 = Clock::now();
    r.audit = sm::mgmt::audit_data_plane(sc.net);
    r.audit_s = seconds_between(t0, Clock::now());
  }
  // Verification is repeated (at least three times, more while under 1.5 s
  // in total) so its time is a median, not one sample.
  std::vector<double> verify_times;
  double verify_total = 0;
  const std::uint32_t verify_name = rec.intern("mgmt.verify_data_plane");
  do {
    ScopedSpan span(rec, verify_name);
    auto t0 = Clock::now();
    r.verify = sc.mgmt->verify_data_plane();
    verify_times.push_back(seconds_between(t0, Clock::now()));
    verify_total += verify_times.back();
  } while (verify_times.size() < 3 || (verify_total < 1.5 && verify_times.size() < 1000));
  r.verify_s = median(verify_times);
  r.verify_runs = verify_times.size();

  // Bearer-install check: every live leaf-handled bearer's rules are present
  // and none of its classifiers failed the audit.
  std::set<std::pair<std::uint64_t, std::uint64_t>> undelivered;
  for (const auto& f : r.audit.findings) undelivered.emplace(f.access_switch.value, f.cookie);
  std::set<std::pair<std::uint64_t, std::uint64_t>> claimed;
  for (sm::reca::Controller* leaf : sc.mgmt->leaves()) {
    for (const auto& [ue, rec_ue] : sc.apps->mobility(*leaf).ues()) {
      for (const auto& [bid, bearer] : rec_ue.bearers) {
        if (!bearer.handled_locally || !bearer.active) continue;
        ++r.live_leaf_bearers;
        const sm::nos::InstalledPath* path = leaf->paths().path(bearer.local_path);
        bool bad = path == nullptr || !path->active;
        if (path != nullptr) {
          for (const auto& [sw, cookie] : path->rules) {
            const sm::dataplane::Switch* s = sc.net.sw(sw);
            if (s == nullptr || s->table().find_by_cookie(cookie) == nullptr) bad = true;
            if (undelivered.count({sw.value, cookie}) > 0) {
              bad = true;
              claimed.emplace(sw.value, cookie);
            }
          }
        }
        if (bad) ++r.bearers_missing_rules;
        if (bad && already_failed.count({leaf, bearer.local_path.value}) > 0) ++r.already_counted;
      }
    }
  }
  r.stray_classifiers = undelivered.size() - claimed.size();
  return r;
}

// --- metric assembly -----------------------------------------------------------

constexpr int kTraceSlices = 10;  ///< alternating untraced/traced slices
/// A window stops after this many times `--seconds` of host time even short
/// of its op count, so a run on a far slower host still ends in time.
constexpr double kWindowCapFactor = 4;

const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb", "ops_per_s", "op_p50_us",
                                            "op_p95_us"};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"topo.wan_s", "s"},
    {"topo.trace_s", "s"},
    {"topo.partition_s", "s"},
    {"mgmt.bootstrap_s", "s"},
    {"apps.interdomain_s", "s"},
    {"apps.attach_us", "us"},
    {"apps.delegated_share", "ratio"},
    {"apps.inter_region_ho_share", "ratio"},
    {"reca.refresh_us", "us"},
    {"reca.vfabric_updates_per_op", "count"},
    {"reca.flowmods_translated_per_op", "count"},
    {"reca.flowmod_failures", "count"},
    {"nos.route_us", "us"},
    {"nos.path_setup_us", "us"},
    {"nos.deactivate_us", "us"},
    {"nos.path_setups_per_op", "count"},
    {"nos.discovery_rounds", "count"},
    {"nos.discovery_frames_per_round", "count"},
    {"dataplane.rules", "count"},
    {"dataplane.flowmods_per_op", "count"},
    {"southbound.messages_per_op", "count"},
    {"southbound.batches_per_op", "count"},
    {"southbound.controller_messages_per_op.L1", "count"},
    {"southbound.controller_messages_per_op.L2", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.windows_per_round", "count"},
    {"sim.busy_ms", "ms"},
    {"sim.stall_ms", "ms"},
    {"sim.alloc_fresh", "count"},
    {"mgmt.audit_s", "s"},
    {"mgmt.verify_s", "s"},
    {"mgmt.audit_probes", "count"},
    {"verify.classes", "count"},
    {"verify.findings", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.overhead_p50_us", "us"},
};

/// Median self time per call of the spans named `name`, in microseconds.
double span_median_us(const SpanRecorder& rec, std::string_view name) {
  return median(rec.durations(name)) / 1e3;
}
double span_total_s(const SpanRecorder& rec, std::string_view name) {
  double total = 0;
  for (double d : rec.durations(name)) total += d;
  return total / 1e9;
}

/// Prints `<name>_p50_us` and `<name>_p99_us` with the sample count; a p99
/// needs at least ten samples beyond it.
void print_latency(const char* name, std::vector<double> values) {
  const LatencySummary s = summarize(std::move(values));
  std::printf("  %s_p50_us %.1f us (n=%zu)\n", name, s.p50, s.n);
  if (s.p99_supported())
    std::printf("  %s_p99_us %.1f us (n=%zu)\n", name, s.p99, s.n);
  else
    std::printf("  %s_p99_us n/a (n=%zu < 1000)\n", name, s.n);
}

/// Runs the layer probes on a set-up churn system at steady state.
void run_probes(Setup& setup, const std::vector<sm::apps::BearerRequest>& requests,
                SpanRecorder& rec) {
  sm::topo::Scenario& sc = *setup.scenario;
  const std::uint32_t refresh = rec.intern("reca.refresh_abstraction");
  for (int i = 0; i < 5; ++i) {
    for (sm::reca::Controller* leaf : sc.mgmt->leaves()) {
      ScopedSpan span(rec, refresh);
      leaf->refresh_abstraction();
    }
  }
  const std::uint32_t route = rec.intern("nos.compute_route");
  const std::uint32_t path_setup = rec.intern("nos.path_setup");
  const std::uint32_t deactivate = rec.intern("nos.deactivate_path");
  std::uint64_t probe_ue = 0xfffffff0u;  // never attached: no classifier clashes
  for (const sm::apps::BearerRequest& request : requests) {
    const sm::dataplane::BaseStation* bs = sc.net.base_station(request.bs);
    if (bs == nullptr) continue;
    sm::reca::Controller* leaf = sc.mgmt->leaf_of_group(bs->group);
    const sm::dataplane::BsGroup* group = sc.net.bs_group(bs->group);
    sm::nos::RoutingRequest routing;
    routing.source = sm::Endpoint{group->access_switch, sm::PortId{1}};
    routing.dst_prefix = request.dst_prefix;
    routing.constraints = request.qos;
    routing.objective = request.objective;
    std::optional<sm::Result<sm::nos::ComputedRoute>> computed;
    {
      ScopedSpan span(rec, route);
      computed.emplace(leaf->compute_route(routing));
    }
    if (!computed->ok()) continue;
    sm::dataplane::Match classifier;
    classifier.ue = sm::UeId{probe_ue--};
    classifier.dst_prefix = request.dst_prefix;
    std::optional<sm::Result<sm::PathId>> path;
    {
      ScopedSpan span(rec, path_setup);
      path.emplace(leaf->path_setup(**computed, classifier));
    }
    if (!path->ok()) continue;
    ScopedSpan span(rec, deactivate);
    (void)leaf->deactivate_path(**path);
  }
}

}  // namespace

// --- public ---------------------------------------------------------------------

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec peak;
    peak.name = "peak_churn";
    peak.window_ops_per_s = 12'000;
    out.push_back(peak);

    WorkloadSpec gbr = peak;
    gbr.name = "gbr_churn";
    gbr.gen.bearer_share = 0.05;
    gbr.gen.gbr_share = 0.3;
    gbr.gbr_floor_kbps = 2000;
    gbr.gbr_max_latency_us = 40'000;
    gbr.window_ops_per_s = 380;
    out.push_back(gbr);

    WorkloadSpec discovery;
    discovery.name = "discovery";
    discovery.churn = false;
    discovery.trace_minutes = 48 * 60;
    discovery.window_ops_per_s = 175;
    out.push_back(discovery);
    return out;
  }();
  return specs;
}

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads())
    if (spec.name == name) return spec;
  return std::nullopt;
}

sm::topo::ScenarioParams paper_scale_params(std::uint64_t seed, std::size_t minutes) {
  sm::topo::ScenarioParams p;
  p.wan.switches = 321;
  p.trace.base_stations = 1000;
  p.trace.duration_minutes = minutes;
  p.iplane.prefixes = 11590;
  p.regions = 4;
  p.egress_points = 8;
  p.originate_interdomain = true;
  p.seed = seed;
  p.wan.seed = seed * 13 + 7;
  p.trace.seed = seed * 29 + 11;
  p.iplane.seed = seed * 41 + 23;
  return p;
}

const std::vector<std::string>& end_to_end_metric_names() { return kEndToEnd; }

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& entry : kPerLayer) out.push_back(entry.first);
    return out;
  }();
  return names;
}

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  auto problem = [&](std::string what) {
    result.correct = false;
    result.problems.push_back(std::move(what));
  };
  // Every workload runs on one fixed network; the seed drives the schedule.
  const sm::topo::ScenarioParams params =
      options.scenario ? *options.scenario : paper_scale_params(1, spec.trace_minutes);
  SpanRecorder rec(options.trace);
  SpanRecorder off(false);

  // --- setup: `setups` times, keep the last --------------------------------
  const auto run_start = Clock::now();
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  ScenarioShape reference;
  const std::size_t setups = options.trace ? 2 : std::max<std::size_t>(1, options.setups);
  for (std::size_t i = 0; i < setups; ++i) {
    const bool last = i + 1 == setups;
    setup.reset();
    setup = std::make_unique<Setup>(spec, params, options.seed, options.trace && last,
                                    options.trace, last ? rec : off);
    setup_times.push_back(setup->setup_s);
    if (options.trace && !last) reference = ScenarioShape::of(*setup->scenario);
  }
  if (options.trace && !(ScenarioShape::of(*setup->scenario) == reference))
    problem("traced scenario build differs from topo::build_scenario");
  if (setup->attach_failures > 0)
    problem(std::to_string(setup->attach_failures) + " resident attaches failed");
  sm::topo::Scenario& sc = *setup->scenario;
  const auto setups_done = Clock::now();

  // --- warm-up and measured window(s) ----------------------------------------
  std::unique_ptr<ChurnDriver> churn;
  std::unique_ptr<DiscoveryDriver> discovery;
  if (spec.churn) {
    churn = std::make_unique<ChurnDriver>(*setup, spec, rec);
    // Every bearer alive at trace time t was set up after t - hold_max, so
    // resident bearers and rules are steady from hold_max on.
    churn->run_until(spec.gen.hold_max_s + 1.0);
  } else {
    discovery = std::make_unique<DiscoveryDriver>(*setup, options.seed, rec);
    discovery->warm_up(3);
  }
  OutcomeLog& log = churn ? churn->log() : discovery->log();
  log.end_warm_up();
  const auto warmup_done = Clock::now();
  // The window is `seconds` worth of operations at the workload's sizing
  // rate, so two runs with one seed run the same operations on any host.
  const std::uint64_t window_ops =
      options.max_ops > 0
          ? options.max_ops
          : std::max<std::uint64_t>(1, std::llround(options.seconds * spec.window_ops_per_s));
  const double cap_s = kWindowCapFactor * options.seconds;
  auto window = [&](std::uint64_t ops, double cap, bool on) {
    return churn ? churn->run_window(ops, cap, on) : discovery->run_window(ops, cap, on);
  };
  // The traced run alternates untraced and traced slices of the same
  // length, so the tracing overhead compares like with like; per-layer
  // counters accumulate over the traced slices only.
  Window plain;
  Window traced;
  LayerCounters layer;
  if (!options.trace) {
    plain = window(window_ops, cap_s, false);
  } else {
    for (int slice = 0; slice < kTraceSlices; ++slice) {
      const bool on = slice % 2 == 1;
      const LayerCounters before = LayerCounters::take(sc);
      const Window w = window(std::max<std::uint64_t>(1, 2 * window_ops / kTraceSlices),
                              2 * cap_s / kTraceSlices, on);
      if (on) layer.accumulate(before, LayerCounters::take(sc));
      (on ? traced : plain).merge(w);
    }
  }
  const Window& main_window = options.trace ? traced : plain;

  // --- checks -------------------------------------------------------------------
  const auto windows_done = Clock::now();
  CheckReport checks =
      run_checks(sc, churn ? churn->flagged_paths() : FlaggedPaths{}, options.trace ? rec : off);
  const auto checks_done = Clock::now();
  // Operations that failed count in `failed`, silent ones included. `correct`
  // is the verdict on the outputs: the data plane the run leaves behind
  // (every classifier delivers, the verifier is clean) and the setup.
  const std::uint64_t window_failed = plain.failed + traced.failed;
  result.attempted = plain.ops + traced.ops;
  result.failed = window_failed + checks.silent_failures();
  result.warmup_digest = log.warm_up;
  result.checkpoint_digest = log.at_checkpoint;
  result.digest = log.digest.hex();
  result.digest_ops = log.ops;
  if (discovery) {
    if (discovery->inconsistent_rounds() > 0)
      problem(std::to_string(discovery->inconsistent_rounds()) +
              " discovery rounds found a different link count");
  }
  if (!checks.audit.clean())
    problem("audit_data_plane: " + std::to_string(checks.audit.findings.size()) +
            " classifiers do not deliver cleanly");
  if (!checks.verify.clean())
    problem("verify_data_plane: " + std::to_string(checks.verify.findings.size()) +
            " findings");

  const double rss = peak_rss_mb();
  if (options.trace) run_probes(*setup, churn ? churn->sampled_requests()
                                              : std::vector<sm::apps::BearerRequest>{},
                                rec);

  // --- human-readable report ------------------------------------------------------
  if (!options.quiet) {
    std::printf("workload %s  seed %llu  %s run\n", spec.name.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
    std::printf("  setup_s %.3f s (median of %zu); resident UEs %zu; switches %zu; rules %zu\n",
                median(setup_times), setup_times.size(), setup->residents_attached,
                sc.net.all_switches().size(), sc.net.total_rules());
    const Window& w = main_window;
    std::printf("  window %.3f host s, %llu ops\n", w.host_s,
                static_cast<unsigned long long>(w.ops));
    if (plain.capped || traced.capped)
      std::printf("  window cut at the host-time cap (%.0f x --seconds): the ops run depend "
                  "on host speed\n",
                  kWindowCapFactor);
    std::printf("  ops_per_s %.1f 1/s (median of %zu 1 s slices)\n", w.ops_per_s(),
                w.slice_rates.size());
    std::printf("  op_p50_us %.1f us, op_p95_us %.1f us (n=%zu, median over up to 5 chunks)\n",
                chunked_quantile(w.op_us, 0.5), chunked_quantile(w.op_us, 0.95), w.op_us.size());
    if (churn) {
      std::printf("  offered load: %.0f%% of the trace's bearer rate; %.3f trace s covered, "
                  "real-time factor %.3f\n",
                  100.0 * spec.gen.bearer_share, w.trace_s, ratio(w.trace_s, w.host_s));
      print_latency("bearer_setup", w.latency_us[static_cast<int>(OpKind::kBearerSetup)]);
      print_latency("bearer_teardown", w.latency_us[static_cast<int>(OpKind::kTeardown)]);
      print_latency("handover", w.latency_us[static_cast<int>(OpKind::kHandover)]);
      print_latency("ue_idle", w.latency_us[static_cast<int>(OpKind::kIdle)]);
      print_latency("ue_active", w.latency_us[static_cast<int>(OpKind::kActive)]);
      print_latency("ue_attach", w.latency_us[static_cast<int>(OpKind::kAttach)]);
      std::printf("  op_fail_ratio %.6f ratio (%llu failed of %llu attempted: %llu in the window, "
                  "%zu silent failures found by the checks)\n",
                  ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
                  static_cast<unsigned long long>(result.failed),
                  static_cast<unsigned long long>(result.attempted),
                  static_cast<unsigned long long>(window_failed), checks.silent_failures());
      for (const auto& [what, n] : churn->errors())
        std::printf("    failed (warm-up included) %-56s x%llu\n", what.c_str(),
                    static_cast<unsigned long long>(n));
    } else {
      print_latency("discovery_round", w.op_us);
      std::printf("  discovery_rounds_per_s %.2f 1/s (hierarchy-wide; %.2f controller rounds/s)\n",
                  ratio(static_cast<double>(w.ops), w.engine_run_s),
                  ratio(static_cast<double>(w.ops * sc.mgmt->all_controllers().size()),
                        w.engine_run_s));
    }
    std::printf("  audit: %zu classifiers probed, %zu delivered, %zu punted, %zu dropped, "
                "%zu looped (%.3f s)\n",
                checks.audit.classifiers_probed, checks.audit.delivered, checks.audit.punted,
                checks.audit.dropped, checks.audit.looped, checks.audit_s);
    std::printf("  dataplane_findings %zu count (%s)\n  verify_s %.4f s (median of %zu)\n",
                checks.verify.findings.size(), checks.verify.summary().c_str(), checks.verify_s,
                checks.verify_runs);
    std::printf("  live leaf bearers %zu, bearer-install check failures %zu\n",
                checks.live_leaf_bearers, checks.bearers_missing_rules);
    std::printf("  digest: warm-up %s, at warm-up + %llu ops %s, all %llu ops %s\n",
                result.warmup_digest.c_str(),
                static_cast<unsigned long long>(OutcomeLog::kCheckpointOps),
                result.checkpoint_digest.empty() ? "(not reached)"
                                                 : result.checkpoint_digest.c_str(),
                static_cast<unsigned long long>(result.digest_ops), result.digest.c_str());
    std::printf("  peak_rss_mb %.1f MB\n", rss);
    std::printf("  phases (host s): setups %.2f, warm-up %.2f, window(s) %.2f, checks %.2f\n",
                seconds_between(run_start, setups_done), seconds_between(setups_done, warmup_done),
                seconds_between(warmup_done, windows_done),
                seconds_between(windows_done, checks_done));
    for (const std::string& p : result.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  }

  // --- metrics --------------------------------------------------------------------
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    result.metrics.push_back({name, value, unit});
  };
  if (!options.trace) {
    add("setup_s", median(setup_times), "s");
    add("peak_rss_mb", rss, "MB");
    add("ops_per_s", plain.ops_per_s(), "1/s");
    add("op_p50_us", chunked_quantile(plain.op_us, 0.5), "us");
    add("op_p95_us", chunked_quantile(plain.op_us, 0.95), "us");
    return result;
  }

  const double ops = static_cast<double>(traced.ops);
  auto per_op = [&](const std::string& key) { return ratio(layer[key], ops); };
  std::map<std::string, double> m;
  m["topo.wan_s"] = span_total_s(rec, "topo.generate_wan");
  m["topo.trace_s"] = span_total_s(rec, "topo.generate_lte_trace");
  m["topo.partition_s"] = span_total_s(rec, "topo.partition_regions");
  m["mgmt.bootstrap_s"] = span_total_s(rec, "mgmt.bootstrap");
  m["apps.interdomain_s"] = span_total_s(rec, "apps.originate_interdomain");
  {
    auto totals = rec.totals();
    const SpanTotals& attach = totals["apps.ue_attach"];
    m["apps.attach_us"] = attach.count > 0 ? attach.self_ns / 1e3 / attach.count : 0;
  }
  m["apps.delegated_share"] = ratio(layer["bearers_delegated"], layer["bearer_arrivals"]);
  m["apps.inter_region_ho_share"] = ratio(layer["ho_delegated"], layer["ho_requests"]);
  m["reca.refresh_us"] = span_median_us(rec, "reca.refresh_abstraction");
  m["reca.vfabric_updates_per_op"] = per_op("vfabric_updates");
  m["reca.flowmods_translated_per_op"] = per_op("translated");
  m["reca.flowmod_failures"] = layer["translate_failures"];
  m["nos.route_us"] = span_median_us(rec, "nos.compute_route");
  m["nos.path_setup_us"] = span_median_us(rec, "nos.path_setup");
  m["nos.deactivate_us"] = span_median_us(rec, "nos.deactivate_path");
  m["nos.path_setups_per_op"] = per_op("path_setups");
  m["nos.discovery_rounds"] = layer["disc_rounds"];
  m["nos.discovery_frames_per_round"] = ratio(layer["disc_frames"], layer["disc_rounds"]);
  m["dataplane.rules"] = static_cast<double>(sc.net.total_rules());
  m["dataplane.flowmods_per_op"] = per_op("flowmods");
  m["southbound.messages_per_op"] = per_op("sb_messages");
  m["southbound.batches_per_op"] = per_op("sb_batches");
  m["southbound.controller_messages_per_op.L1"] = per_op("ctrl_L1");
  m["southbound.controller_messages_per_op.L2"] = per_op("ctrl_L2");
  m["sim.events_per_s"] = ratio(static_cast<double>(traced.engine_events), traced.engine_run_s);
  m["sim.busy_ms"] = layer["busy_ms"];
  m["sim.stall_ms"] = layer["stall_ms"];
  if (setup->engine) {
    m["sim.windows_per_round"] =
        ratio(static_cast<double>(setup->engine->windows_executed()),
              static_cast<double>(log.ops));
    m["sim.alloc_fresh"] = static_cast<double>(setup->engine->alloc_fresh_total());
  }
  m["mgmt.audit_s"] = checks.audit_s;
  m["mgmt.verify_s"] = checks.verify_s;
  m["mgmt.audit_probes"] = static_cast<double>(checks.audit.classifiers_probed);
  m["verify.classes"] = static_cast<double>(checks.verify.classes_analyzed);
  m["verify.findings"] = static_cast<double>(checks.verify.findings.size());
  {
    const double plain_rate = plain.ops_per_s();
    m["trace.overhead_pct"] = ratio(100.0 * (plain_rate - traced.ops_per_s()), plain_rate);
    m["trace.overhead_p50_us"] =
        chunked_quantile(traced.op_us, 0.5) - chunked_quantile(plain.op_us, 0.5);
  }
  for (const auto& [name, unit] : kPerLayer) add(name, m.count(name) ? m[name] : 0.0, unit);

  if (!options.span_csv.empty()) {
    std::ofstream out(options.span_csv);
    rec.write_csv(out);
    if (!out) problem("cannot write spans to " + options.span_csv);
  }
  if (!options.quiet) {
    std::printf("  per-layer (traced window %.3f s, %llu ops):\n", traced.host_s,
                static_cast<unsigned long long>(traced.ops));
    for (const Metric& metric : result.metrics)
      std::printf("    %-44s %14.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    std::printf("  self time by span (ms):\n");
    for (const auto& [name, t] : rec.totals())
      std::printf("    %-36s n=%-9llu total %12.3f  self %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e6, t.self_ns / 1e6);
  }
  return result;
}

}  // namespace cpbench
