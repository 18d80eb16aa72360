#include "nos/path_impl.h"

#include "core/log.h"

namespace softmow::nos {

bool route_intact(const Nib& nib, const ComputedRoute& route) {
  auto port_ok = [&](SwitchId sw, PortId port) {
    const SwitchRecord* rec = nib.sw(sw);
    if (rec == nullptr) return false;
    const southbound::PortDesc* desc = rec->port(port);
    return desc != nullptr && desc->up;
  };
  for (std::size_t i = 0; i < route.hops.size(); ++i) {
    const RouteHop& hop = route.hops[i];
    if (!port_ok(hop.sw, hop.in) || !port_ok(hop.sw, hop.out)) return false;
    // Between two hops on *different* switches the flow crosses a link the
    // controller discovered; it must still be up. (Consecutive hops on the
    // same switch are middlebox detours — no link involved.)
    if (i + 1 < route.hops.size() && !(route.hops[i + 1].sw == hop.sw)) {
      const LinkRecord* link = nib.link_at(Endpoint{hop.sw, hop.out});
      if (link == nullptr || !link->up) return false;
    }
  }
  return true;
}

PathImplementer::PathImplementer(DeviceBus* bus, std::uint32_t controller_tag,
                                 std::uint8_t level, Nib* nib)
    : bus_(bus), nib_(nib), controller_tag_(controller_tag & 0x7ff), level_(level) {
  obs::MetricsRegistry& reg = obs::default_registry();
  const obs::Labels by_level{{"level", std::to_string(level)}};
  setups_metric_ = reg.counter("path_setups_total", by_level);
  flowmods_metric_ = reg.counter("flowmods_sent_total", by_level);
  label_push_metric_ = reg.counter("label_pushes_total", by_level);
}

Label PathImplementer::allocate_label() {
  // Partitioned label space: high bits identify the allocating controller,
  // low 20 bits are a per-controller sequence (~1M concurrent labels).
  std::uint32_t value = (controller_tag_ << 20) | static_cast<std::uint32_t>(next_label_++ & 0xfffff);
  return Label{value, level_};
}

template <class BuildRule>
Result<void> PathImplementer::install(const ComputedRoute& route, std::size_t first,
                                      std::size_t last, double reserve_kbps, RuleRefs& rules,
                                      BuildRule build) {
  // FlowMods for consecutive hops on the same switch share one southbound
  // batch, so an install costs one delivery per switch instead of one per
  // rule (and one shard handoff under the sharded engine).
  std::vector<southbound::Message> batch;
  RuleRefs batch_rules;
  SwitchId batch_sw{};
  auto flush = [&]() -> Result<void> {
    if (batch.empty()) return Ok();
    auto sent = bus_->send_batch(batch_sw, batch);
    if (sent.ok()) rules.insert(rules.end(), batch_rules.begin(), batch_rules.end());
    batch.clear();
    batch_rules.clear();
    if (!sent.ok()) remove_rules(rules);
    return sent;
  };
  for (std::size_t i = first; i < last; ++i) {
    const SwitchId sw = route.hops[i].sw;
    dataplane::FlowRule rule = build(i);
    flowmods_metric_->inc();
    if (!batch.empty() && batch_sw != sw) {
      if (auto sent = flush(); !sent.ok()) return sent;
    }
    batch_sw = sw;
    batch_rules.emplace_back(sw, rule.cookie);
    southbound::FlowMod mod;
    mod.op = southbound::FlowMod::Op::kAdd;
    mod.sw = sw;
    mod.rule = std::move(rule);
    mod.reserve_kbps = reserve_kbps;
    batch.push_back(std::move(mod));
  }
  return flush();
}

void PathImplementer::remove_rules(RuleRefs& rules) {
  // One batch per switch: rules are in install order, so same-switch runs
  // are adjacent.
  std::size_t i = 0;
  while (i < rules.size()) {
    SwitchId sw = rules[i].first;
    std::vector<southbound::Message> batch;
    while (i < rules.size() && rules[i].first == sw) {
      southbound::FlowMod rm;
      rm.op = southbound::FlowMod::Op::kRemoveByCookie;
      rm.sw = sw;
      rm.cookie = rules[i].second;
      batch.push_back(std::move(rm));
      ++i;
    }
    (void)bus_->send_batch(sw, batch);
  }
  rules.clear();
}

Result<PathId> PathImplementer::setup(const ComputedRoute& route,
                                      dataplane::Match classifier,
                                      PathSetupOptions options) {
  SHARD_CHECKED(guard_, kWrite);
  if (route.hops.empty())
    return Error{ErrorCode::kInvalidArgument, "route has no switch traversals"};

  InstalledPath p;
  p.id = PathId{next_path_++};
  p.classifier = std::move(classifier);
  p.route = route;
  p.options = options;

  if (options.shared_tag.has_value() && route.hops.size() > 1) {
    p.label = *options.shared_tag;
  } else {
    // Single-switch tagged routes degenerate to plain paths: there is no
    // transit state to share and the local classifier says it all.
    p.options.shared_tag.reset();
    p.label = allocate_label();
  }
  auto implemented = implement(p);
  if (!implemented.ok()) return implemented.error();
  PathId id = p.id;
  paths_.emplace(id, std::move(p));
  setups_metric_->inc();
  return id;
}

Result<void> PathImplementer::implement(InstalledPath& p) {
  const bool tagged = p.options.shared_tag.has_value();
  if (tagged) {
    auto agg = ensure_aggregate(p.label, p.route, p.options);
    if (!agg.ok()) return agg;
    // Attach to the aggregate's route: it is the route actually programmed
    // (an existing aggregate may predate — and outlive — the offered one).
    p.route = aggregates_.at(p.label.value).route;
  }
  // Resources first: failing admission must not leave half a path behind.
  auto acquired = acquire_resources(p);
  if (!acquired.ok()) {
    if (tagged) gc_aggregate(p.label.value);
    return acquired;
  }
  auto build = [&](std::size_t i) {
    dataplane::FlowRule rule = build_hop_rule(p, i, allocate_cookie());
    for (const dataplane::Action& a : rule.actions) {
      // A swap leaves a new label on the wire just like a push (§4.3).
      if (a.type == dataplane::ActionType::kPushLabel ||
          a.type == dataplane::ActionType::kSwapLabel)
        label_push_metric_->inc();
    }
    return rule;
  };
  // A tagged path owns only its first-hop classifier; the aggregate carries
  // the rest.
  auto installed = install(p.route, 0, tagged ? 1 : p.route.hops.size(), p.options.reserve_kbps,
                           p.rules, build);
  if (!installed.ok()) {
    release_resources(p);
    if (tagged) gc_aggregate(p.label.value);
    return installed;
  }
  p.active = true;
  if (tagged) ++aggregates_.at(p.label.value).refs;
  return Ok();
}

Result<void> PathImplementer::ensure_aggregate(Label tag, const ComputedRoute& route,
                                               const PathSetupOptions& options) {
  auto [it, inserted] = aggregates_.try_emplace(tag.value);
  TagAggregate& agg = it->second;
  if (inserted) {
    agg.tag = tag;
    agg.route = route;
    agg.options = options;
    auto installed = install_aggregate_rules(agg);
    if (!installed.ok()) {
      aggregates_.erase(it);
      return installed;
    }
    if (tag_allocator_ != nullptr) tag_allocator_->retain(tag.value);
    return Ok();
  }
  // Existing aggregate whose route broke (failure repair): adopt the fresh
  // route offered by the first repaired path and rebuild the shared rules in
  // place. Other attached paths refresh their stored route on their own
  // repair pass.
  if (agg.rules.empty() || (nib_ != nullptr && !route_intact(*nib_, agg.route))) {
    remove_rules(agg.rules);
    agg.route = route;
    agg.options = options;
    return install_aggregate_rules(agg);
  }
  return Ok();
}

Result<void> PathImplementer::install_aggregate_rules(TagAggregate& agg) {
  return install(agg.route, 1, agg.route.hops.size(), 0, agg.rules, [&](std::size_t i) {
    return build_rule({}, agg.tag, agg.route, agg.options, i, shared_tag_cookie(agg.tag.value, i));
  });
}

void PathImplementer::gc_aggregate(std::uint32_t tag_value) {
  auto it = aggregates_.find(tag_value);
  if (it == aggregates_.end() || it->second.refs != 0) return;
  remove_rules(it->second.rules);
  aggregates_.erase(it);
  // Last path using the aggregate drained: let the allocator recycle the
  // tag's aggregate ids once nothing live references them.
  if (tag_allocator_ != nullptr) tag_allocator_->release(tag_value);
}

Result<void> PathImplementer::acquire_resources(InstalledPath& p) {
  if (nib_ == nullptr || p.options.reserve_kbps <= 0) return Ok();
  const std::vector<RouteHop>& hops = p.route.hops;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i + 1].sw == hops[i].sw) continue;  // middlebox detour: no link
    Endpoint at{hops[i].sw, hops[i].out};
    auto reserved = nib_->reserve_link_bandwidth(at, p.options.reserve_kbps);
    if (!reserved.ok()) {
      release_resources(p);
      return reserved;
    }
    p.reserved_links.push_back(at);
  }
  for (MiddleboxId mb : p.route.middleboxes) {
    const southbound::GMiddleboxAnnounce* rec = nib_->middlebox(mb);
    if (rec == nullptr || rec->total_capacity_kbps <= 0) continue;
    double fraction = p.options.reserve_kbps / rec->total_capacity_kbps;
    if (nib_->adjust_middlebox_utilization(mb, fraction).ok())
      p.reserved_middleboxes.emplace_back(mb, fraction);
  }
  return Ok();
}

void PathImplementer::release_resources(InstalledPath& p) {
  if (nib_ == nullptr) return;
  // The link may legitimately be gone by teardown time (failure recovery).
  for (Endpoint at : p.reserved_links)
    (void)nib_->release_link_bandwidth(at, p.options.reserve_kbps);
  p.reserved_links.clear();
  for (auto& [mb, fraction] : p.reserved_middleboxes)
    (void)nib_->adjust_middlebox_utilization(mb, -fraction);
  p.reserved_middleboxes.clear();
}

dataplane::FlowRule PathImplementer::build_hop_rule(const InstalledPath& p,
                                                    std::size_t i,
                                                    std::uint64_t cookie) {
  return build_rule(p.classifier, p.label, p.route, p.options, i, cookie);
}

dataplane::FlowRule PathImplementer::build_rule(const dataplane::Match& classifier, Label label,
                                                const ComputedRoute& route,
                                                const PathSetupOptions& options, std::size_t i,
                                                std::uint64_t cookie) {
  using dataplane::FlowRule;
  const std::vector<RouteHop>& hops = route.hops;
  const RouteHop& hop = hops[i];
  FlowRule rule;
  rule.cookie = cookie;
  rule.priority = options.priority;

  bool is_first = i == 0;
  bool is_last = i + 1 == hops.size();

  if (is_first && is_last) {
    // Degenerate single-switch path: translate the outer-label intent
    // directly, with no local label at all.
    rule.match = classifier;
    rule.match.in_port = hop.in;
    if (options.version != 0)
      rule.actions.push_back(dataplane::set_version(options.version));
    if (options.outer_pop && options.outer_push) {
      if (options.outer_push->value != classifier.label.value_or(~0u))
        rule.actions.push_back(dataplane::swap_label(*options.outer_push));
      // else: keep the outer label untouched
    } else if (options.outer_pop) {
      rule.actions.push_back(dataplane::pop_label());
    } else if (options.outer_push) {
      rule.actions.push_back(dataplane::push_label(*options.outer_push));
    } else {
      // Stacking mode, degenerate single-switch path: apply the parent's
      // pops/pushes directly.
      for (int pop = 0; pop < options.extra_pops_at_exit; ++pop)
        rule.actions.push_back(dataplane::pop_label());
      for (const Label& under : options.push_under)
        rule.actions.push_back(dataplane::push_label(under));
    }
  } else if (is_first) {
    // Classification at the flow's first switch (§4.3: the access switch
    // performs fine-grained classification and pushes the local label —
    // or the shared policy tag, under tag encapsulation).
    // When translating a parent rule (outer_pop), the parent's label is
    // swapped for the local one so at most one label rides any link.
    rule.match = classifier;
    rule.match.in_port = hop.in;
    if (options.version != 0)
      rule.actions.push_back(dataplane::set_version(options.version));
    if (options.outer_pop) {
      rule.actions.push_back(dataplane::swap_label(label));
    } else {
      for (const Label& under : options.push_under)
        rule.actions.push_back(dataplane::push_label(under));
      rule.actions.push_back(dataplane::push_label(label));
    }
  } else if (is_last) {
    rule.match.label = label.value;
    rule.match.in_port = hop.in;
    if (options.outer_push) {
      // Pop the local label and push back the ancestor's (§4.3).
      rule.actions.push_back(dataplane::swap_label(*options.outer_push));
    } else if (options.pop_at_exit) {
      rule.actions.push_back(dataplane::pop_label());
      for (int pop = 0; pop < options.extra_pops_at_exit; ++pop)
        rule.actions.push_back(dataplane::pop_label());
    }
  } else {
    rule.match.label = label.value;
    rule.match.in_port = hop.in;
  }
  rule.actions.push_back(dataplane::output(hop.out));
  return rule;
}

Result<void> PathImplementer::deactivate(PathId id) {
  SHARD_CHECKED(guard_, kWrite);
  auto it = paths_.find(id);
  if (it == paths_.end()) return {ErrorCode::kNotFound, "no such path"};
  InstalledPath& p = it->second;
  if (!p.active) return Ok();
  remove_rules(p.rules);
  p.active = false;
  release_resources(p);
  if (p.options.shared_tag) {
    auto agg = aggregates_.find(p.label.value);
    if (agg != aggregates_.end() && agg->second.refs > 0) {
      --agg->second.refs;
      gc_aggregate(p.label.value);
    }
  }
  return Ok();
}

Result<void> PathImplementer::reactivate(PathId id) {
  SHARD_CHECKED(guard_, kWrite);
  auto it = paths_.find(id);
  if (it == paths_.end()) return {ErrorCode::kNotFound, "no such path"};
  InstalledPath& p = it->second;
  if (p.active) return Ok();
  if (p.options.shared_tag && tag_allocator_ != nullptr && !p.route.hops.empty()) {
    // The tag's aggregate ids may have drained and been recycled to other
    // endpoints while this path was down: re-derive the current tag for the
    // same (slice, clause, endpoints) instead of trusting the stale value
    // (which could now alias a different aggregate).
    Endpoint egress{p.route.hops.back().sw, p.route.hops.back().out};
    std::uint32_t fresh = tag_allocator_->retag(p.label.value, p.route.source, egress);
    if (fresh != p.label.value) {
      p.label.value = fresh;
      p.options.shared_tag = p.label;
    }
  }
  return implement(p);
}

Result<void> PathImplementer::teardown(PathId id) {
  auto result = deactivate(id);
  paths_.erase(id);
  return result;
}

std::size_t PathImplementer::resync_switch(SwitchId sw) {
  SHARD_CHECKED(guard_, kWrite);
  std::size_t pushed = 0;
  for (auto& [id, p] : paths_) {
    if (!p.active) continue;
    if (p.options.shared_tag) {
      // Tagged paths own only their first-hop classifier; shared rules are
      // resynced once per aggregate below.
      if (p.rules.size() != 1 || !(p.route.hops[0].sw == sw)) continue;
      southbound::FlowMod mod;
      mod.op = southbound::FlowMod::Op::kAdd;
      mod.sw = sw;
      mod.rule = build_hop_rule(p, 0, p.rules[0].second);
      mod.reserve_kbps = p.options.reserve_kbps;
      flowmods_metric_->inc();
      southbound::Message one[] = {std::move(mod)};
      if (bus_->send_batch(sw, one).ok()) ++pushed;
      continue;
    }
    // Only fully-installed active paths have a stable hop<->cookie pairing
    // (rules are pushed in hop order, so rules[i] programs route.hops[i]).
    if (p.rules.size() != p.route.hops.size()) continue;
    std::vector<southbound::Message> batch;
    for (std::size_t i = 0; i < p.route.hops.size(); ++i) {
      if (!(p.route.hops[i].sw == sw)) continue;
      southbound::FlowMod mod;
      mod.op = southbound::FlowMod::Op::kAdd;
      mod.sw = sw;
      mod.rule = build_hop_rule(p, i, p.rules[i].second);
      mod.reserve_kbps = p.options.reserve_kbps;
      batch.push_back(std::move(mod));
      flowmods_metric_->inc();
    }
    if (batch.empty()) continue;
    if (bus_->send_batch(sw, batch).ok()) pushed += batch.size();
  }
  for (auto& [tag_value, agg] : aggregates_) {
    std::vector<southbound::Message> batch;
    for (std::size_t i = 1; i < agg.route.hops.size(); ++i) {
      if (!(agg.route.hops[i].sw == sw)) continue;
      southbound::FlowMod mod;
      mod.op = southbound::FlowMod::Op::kAdd;
      mod.sw = sw;
      mod.rule = build_rule({}, agg.tag, agg.route, agg.options, i, shared_tag_cookie(tag_value, i));
      batch.push_back(std::move(mod));
      flowmods_metric_->inc();
    }
    if (batch.empty()) continue;
    if (bus_->send_batch(sw, batch).ok()) pushed += batch.size();
  }
  return pushed;
}

PathImplementer::Snapshot PathImplementer::snapshot() const {
  Snapshot snap;
  snap.next_label = next_label_;
  snap.next_cookie = next_cookie_;
  snap.next_path = next_path_;
  snap.paths = paths_;
  snap.aggregates = aggregates_;
  return snap;
}

void PathImplementer::restore(Snapshot snap) {
  SHARD_CHECKED(guard_, kWrite);
  // Rebase the allocator's refcounts onto the restored aggregate set (a
  // promoted standby replaces the whole map; the allocator is shared and
  // survives the failover).
  if (tag_allocator_ != nullptr) {
    for (const auto& [tag_value, agg] : aggregates_) tag_allocator_->release(tag_value);
    for (const auto& [tag_value, agg] : snap.aggregates) tag_allocator_->retain(tag_value);
  }
  next_label_ = snap.next_label;
  next_cookie_ = snap.next_cookie;
  next_path_ = snap.next_path;
  paths_ = std::move(snap.paths);
  aggregates_ = std::move(snap.aggregates);
}

std::vector<std::pair<SwitchId, std::uint64_t>> PathImplementer::shared_rules() const {
  std::vector<std::pair<SwitchId, std::uint64_t>> out;
  for (const auto& [tag_value, agg] : aggregates_)
    for (const auto& r : agg.rules) out.push_back(r);
  return out;
}

const InstalledPath* PathImplementer::path(PathId id) const {
  auto it = paths_.find(id);
  return it == paths_.end() ? nullptr : &it->second;
}

std::vector<PathId> PathImplementer::paths() const {
  std::vector<PathId> out;
  out.reserve(paths_.size());
  for (const auto& [id, p] : paths_) out.push_back(id);
  return out;
}

std::size_t PathImplementer::active_count() const {
  std::size_t n = 0;
  for (const auto& [id, p] : paths_) n += p.active ? 1 : 0;
  return n;
}

}  // namespace softmow::nos
