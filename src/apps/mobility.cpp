#include "apps/mobility.h"

#include <algorithm>

#include "core/log.h"
#include "mgmt/management.h"
#include "reca/abstraction.h"

namespace softmow::apps {

using mgmt::gbs_id_for_group;
using southbound::AppMessage;

namespace {

/// Opens a span under the ambient context (so a delegated serve attaches to
/// the requesting operation's tree, while a UE-initiated request roots a new
/// one) and closes it on scope exit with whatever detail was recorded last.
/// The live control plane runs at sim-time zero: these spans carry causal
/// structure; the timing benches model durations on the same shape.
class SpanGuard {
 public:
  SpanGuard(std::string name, int level, std::string scope)
      : tracer_(obs::default_tracer()),
        ctx_(tracer_.open_span(sim::TimePoint::zero(), std::move(name), level,
                               std::move(scope))),
        scoped_(tracer_, ctx_) {}
  ~SpanGuard() { tracer_.close_span(ctx_, sim::TimePoint::zero(), std::move(detail_)); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  void detail(std::string d) { detail_ = std::move(d); }

 private:
  obs::Tracer& tracer_;
  obs::TraceContext ctx_;
  obs::Tracer::ScopedContext scoped_;
  std::string detail_;
};

}  // namespace

MobilityApp::MobilityApp(reca::Controller* controller, const dataplane::PhysicalNetwork* net)
    : controller_(controller), net_(net) {
  register_handlers();
}

void MobilityApp::rebind(reca::Controller* controller) {
  controller_ = controller;
  register_handlers();
  if (reactive_) enable_reactive_bearers();
}

void MobilityApp::register_handlers() {
  // --- requests arriving from children (delegations travelling up) ----------
  controller_->register_child_app_handler(
      kBearerRequestMsg, [this](SwitchId child, const AppMessage& msg) {
        const auto* delegation = std::any_cast<BearerDelegation>(&msg.body);
        if (delegation == nullptr) return;
        auto served = serve_bearer(*delegation);
        if (served.ok()) {
          answer_child(child, msg, *served);
        } else if (controller_->reca().has_parent()) {
          // Not satisfiable here: climb further (§5.1), re-addressing the
          // source G-BS into our parent's ID space.
          if (controller_->abstraction().dirty()) controller_->refresh_abstraction();
          BearerDelegation remapped = *delegation;
          remapped.source_gbs = controller_->abstraction().exposed_gbs_id(remapped.source_gbs);
          relay_up(child, msg, remapped);
        } else {
          answer_child(child, msg,
                       BearerOutcome{false, controller_->level(), 0, served.error().message});
        }
      });

  controller_->register_child_app_handler(
      kHandoverRequestMsg, [this](SwitchId child, const AppMessage& msg) {
        const auto* delegation = std::any_cast<HandoverDelegation>(&msg.body);
        if (delegation == nullptr) return;
        ++stats_.handover_requests;
        auto served = serve_handover(*delegation);
        if (served.ok()) {
          answer_child(child, msg, *served);
        } else if (served.code() == ErrorCode::kNotFound && controller_->reca().has_parent()) {
          // Not the common ancestor: forward up (§5.2).
          ++stats_.handovers_delegated;
          relay_up(child, msg, msg.body);
        } else {
          ++stats_.handover_failures;
          answer_child(child, msg,
                       HandoverOutcome{false, controller_->level(), served.error().message});
        }
      });

  controller_->register_child_app_handler(
      kBearerDeactivateMsg, [this](SwitchId child, const AppMessage& msg) {
        const auto* req = std::any_cast<BearerDeactivate>(&msg.body);
        if (req == nullptr) return;
        if (deactivate_ancestor_key(req->ancestor_key)) {
          answer_child(child, msg, BearerOutcome{true, controller_->level(), 0, {}});
        } else if (controller_->reca().has_parent()) {
          relay_up(child, msg, msg.body);
        } else {
          answer_child(child, msg,
                       BearerOutcome{false, controller_->level(), 0, "unknown path key"});
        }
      });

  controller_->register_child_app_handler(
      kFetchHandoverGraphMsg, [this](SwitchId child, const AppMessage& msg) {
        answer_child(child, msg, HandoverGraphBody{map_to_exposed(collect_handover_graph())});
      });

  // --- requests arriving from the parent (travelling down) -------------------
  controller_->reca().register_app_handler(
      kHoAllocateMsg, [this](const AppMessage& msg) {
        const auto* alloc = std::any_cast<HoAllocate>(&msg.body);
        if (alloc == nullptr) return;
        if (!controller_->is_leaf()) {
          relay_toward_gbs(alloc->target_gbs, msg);
          return;
        }
        // Leaf: take over the UE with its (ancestor-implemented) bearers.
        UeRecord rec;
        rec.ue = alloc->ue;
        rec.bs = alloc->target_bs;
        rec.group = mgmt::group_for_gbs_id(alloc->target_gbs);
        for (std::size_t i = 0; i < alloc->bearers.size(); ++i) {
          BearerRecord b;
          b.id = BearerId{next_bearer_++};
          b.request = alloc->bearers[i];
          b.request.bs = alloc->target_bs;
          b.handled_locally = false;
          b.handled_level = alloc->by_level;
          b.ancestor_key = i < alloc->ancestor_keys.size() ? alloc->ancestor_keys[i] : 0;
          b.active = b.ancestor_key != 0;
          rec.bearers.emplace(b.id, std::move(b));
        }
        ues_[alloc->ue] = std::move(rec);
        answer_parent(msg, HandoverOutcome{true, controller_->level(), {}});
      });

  controller_->reca().register_app_handler(
      kHoReleaseMsg, [this](const AppMessage& msg) {
        const auto* release = std::any_cast<HoRelease>(&msg.body);
        if (release == nullptr) return;
        if (!controller_->is_leaf()) {
          relay_toward_gbs(release->source_gbs, msg);
          return;
        }
        auto it = ues_.find(release->ue);
        if (it != ues_.end()) {
          for (auto& [bid, bearer] : it->second.bearers)
            release_bearer(release->ue, bearer, Release::kMoveAway);
          ues_.erase(it);
        }
        answer_parent(msg, HandoverOutcome{true, controller_->level(), {}});
      });

  controller_->reca().register_app_handler(
      kFetchHandoverGraphMsg, [this](const AppMessage& msg) {
        answer_parent(msg, HandoverGraphBody{map_to_exposed(collect_handover_graph())});
      });
}

void MobilityApp::answer_child(SwitchId child, const AppMessage& request, std::any body) {
  AppMessage reply;
  reply.type = request.type;
  reply.body = std::move(body);
  controller_->send_app_response(child, request.request_id, std::move(reply));
}

void MobilityApp::answer_parent(const AppMessage& request, std::any body) {
  AppMessage reply;
  reply.type = request.type;
  reply.body = std::move(body);
  controller_->reca().respond_up(request.request_id, std::move(reply));
}

void MobilityApp::relay_up(SwitchId child, const AppMessage& request, std::any body) {
  AppMessage up;
  up.type = request.type;
  up.body = std::move(body);
  controller_->reca().delegate(
      std::move(up), [this, child, rid = request.request_id](const AppMessage& resp) {
        AppMessage reply = resp;
        controller_->send_app_response(child, rid, std::move(reply));
      });
}

void MobilityApp::relay_toward_gbs(GBsId gbs, const AppMessage& request) {
  AppMessage down;
  down.type = request.type;
  down.body = request.body;
  (void)send_toward_gbs(gbs, std::move(down),
                        [this, rid = request.request_id](const AppMessage& resp) {
                          AppMessage reply = resp;
                          controller_->reca().respond_up(rid, std::move(reply));
                        });
}

void MobilityApp::enable_reactive_bearers() {
  reactive_ = true;
  controller_->set_packet_in_handler(
      [this](SwitchId sw, PortId in_port, const Packet& pkt) {
        (void)sw;
        (void)in_port;
        auto it = ues_.find(pkt.ue);
        if (it == ues_.end() || !pkt.dst_prefix.valid()) return;
        // Deduplicate: an active bearer for this (UE, prefix) already covers
        // the flow; the miss is transient (rules racing the packet).
        for (const auto& [bid, bearer] : it->second.bearers) {
          if (bearer.active && bearer.request.dst_prefix == pkt.dst_prefix) return;
        }
        BearerRequest request;
        request.ue = pkt.ue;
        request.bs = it->second.bs;
        request.dst_prefix = pkt.dst_prefix;
        if (request_bearer(request).ok()) ++reactive_bearers_;
      });
}

GBsId MobilityApp::gbs_of_group(BsGroupId group) const { return gbs_id_for_group(group); }

std::optional<Endpoint> MobilityApp::gbs_attach(GBsId gbs) const {
  const southbound::GBsAnnounce* rec = controller_->nib().gbs(gbs);
  if (rec == nullptr) return std::nullopt;
  return Endpoint{rec->attached_switch, rec->attached_port};
}

Result<void> MobilityApp::send_toward_gbs(
    GBsId gbs, AppMessage msg, std::function<void(const AppMessage&)> on_response) {
  const southbound::GBsAnnounce* rec = controller_->nib().gbs(gbs);
  if (rec == nullptr) return {ErrorCode::kNotFound, "G-BS not in this region"};
  // At a non-leaf, the G-BS attaches to a child G-switch.
  controller_->send_app_request(rec->attached_switch, std::move(msg), std::move(on_response));
  return Ok();
}

Result<void> MobilityApp::ue_attach(UeId ue, BsId bs) {
  const dataplane::BaseStation* station = net_->base_station(bs);
  if (station == nullptr) return {ErrorCode::kNotFound, "no such base station"};
  ++stats_.ue_arrivals;
  UeRecord rec;
  rec.ue = ue;
  rec.bs = bs;
  rec.group = station->group;
  ues_[ue] = std::move(rec);
  return Ok();
}

Result<void> MobilityApp::ue_detach(UeId ue) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  for (auto& [bid, bearer] : it->second.bearers) release_bearer(ue, bearer, Release::kTeardown);
  ues_.erase(it);
  return Ok();
}

Result<void> MobilityApp::ue_idle(UeId ue) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  it->second.idle = true;
  for (auto& [bid, bearer] : it->second.bearers) release_bearer(ue, bearer, Release::kIdle);
  return Ok();
}

Result<void> MobilityApp::ue_active(UeId ue) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  UeRecord& rec = it->second;
  rec.idle = false;
  // Collect, then act (DESIGN §12): a re-request inserts into rec.bearers.
  std::vector<BearerId> down;
  for (const auto& [bid, bearer] : rec.bearers)
    if (!bearer.active) down.push_back(bid);
  for (BearerId bid : down) {
    BearerRecord& bearer = rec.bearers.at(bid);
    if (bearer.handled_locally) {
      if (controller_->paths().reactivate(bearer.local_path).ok()) bearer.active = true;
    } else {
      // Re-request through the hierarchy: idling released the ancestor's
      // path, and the new record supersedes this one (request_bearer()
      // copies the request before it inserts).
      resetup_bearer(bearer.request, LogLevel::kDebug, "reactivation");
    }
  }
  rec.bearers.erase_if(
      [](const auto& kv) { return !kv.second.active && !kv.second.handled_locally; });
  return Ok();
}

void MobilityApp::release_bearer(UeId ue, BearerRecord& bearer, Release how) {
  if (!bearer.active) return;
  bearer.active = false;
  if (bearer.handled_locally) {
    if (how == Release::kIdle) {
      (void)controller_->deactivate_path(bearer.local_path);
    } else {
      (void)controller_->teardown_path(bearer.local_path);
      bearer.local_path = PathId{};
    }
  } else if (bearer.ancestor_key != 0 && how != Release::kMoveAway) {
    // §5.1: "If the UE bearer has been handled by the parent controller,
    // the mobility application continues to request bearer deactivation
    // from its parent via RecA."
    release_ancestor_key(ue, bearer.ancestor_key);
    bearer.ancestor_key = 0;
  }
}

void MobilityApp::release_ancestor_key(UeId ue, std::uint64_t key) {
  if (deactivate_ancestor_key(key)) return;
  AppMessage up;
  up.type = kBearerDeactivateMsg;
  up.body = BearerDeactivate{ue, key};
  controller_->reca().delegate(std::move(up), nullptr);
}

void MobilityApp::resetup_bearer(const BearerRequest& request, LogLevel level,
                                 const char* after) {
  auto replaced = request_bearer(request);
  if (!replaced.ok()) {
    SOFTMOW_LOG(level, "mobility") << controller_->name() << " bearer re-setup after " << after
                                   << " failed: " << replaced.error().message;
  }
}

Result<PathId> MobilityApp::install_bearer_path(Endpoint source, const BearerRequest& request) {
  nos::RoutingRequest routing;
  routing.source = source;
  routing.dst_prefix = request.dst_prefix;
  routing.constraints = request.qos;
  routing.policy = request.policy;
  routing.objective = request.objective;
  auto route = controller_->compute_route(routing);
  if (!route.ok()) return route.error();

  dataplane::Match classifier;
  classifier.ue = request.ue;
  classifier.dst_prefix = request.dst_prefix;
  nos::PathSetupOptions options;
  // Guaranteed-bit-rate bearers reserve their floor along the path (§3.2).
  options.reserve_kbps = request.qos.min_bandwidth_kbps;
  // Sliced bearer under tag encapsulation: classify onto the shared
  // (slice, clause, ingress, egress) policy tag so same-aggregate bearers
  // share transit rules (SoftCell compression) instead of a per-path label.
  // A delegated bearer carries its originating slice, so an ancestor
  // aggregates onto shared G-switch rules and its children translate one
  // aggregate, not N paths.
  if (controller_->tag_allocator() != nullptr && request.slice.valid() && !route->hops.empty()) {
    Endpoint egress{route->hops.back().sw, route->hops.back().out};
    options.shared_tag =
        Label{controller_->tag_allocator()->tag_for(request.slice, request.policy_clause, source,
                                                    egress),
              static_cast<std::uint8_t>(controller_->level())};
  }
  return controller_->path_setup(*route, classifier, options);
}

Result<BearerId> MobilityApp::request_bearer(const BearerRequest& request) {
  ++stats_.bearer_arrivals;
  auto it = ues_.find(request.ue);
  if (it == ues_.end()) return Error{ErrorCode::kNotFound, "UE not attached"};
  UeRecord& rec = it->second;

  SpanGuard span("bearer.setup", controller_->level(), controller_->name());
  span.detail("failed");

  BearerRecord bearer;
  bearer.request = request;
  const dataplane::BsGroup* group = net_->bs_group(rec.group);
  Result<PathId> local =
      group != nullptr ? install_bearer_path(Endpoint{group->access_switch, PortId{1}}, request)
                       : Result<PathId>(ErrorCode::kNotFound, "UE group unknown");
  if (local.ok()) {
    ++stats_.bearers_local;
    span.detail("local");
    bearer.local_path = *local;
    bearer.handled_level = controller_->level();
  } else {
    if (local.code() != ErrorCode::kNotFound && local.code() != ErrorCode::kUnsatisfiable)
      return local.error();
    if (!controller_->reca().has_parent()) {
      ++stats_.bearers_failed;
      return local.error();
    }
    // §5.1: delegate the request to RecA, which forwards it to the parent.
    // The source G-BS is named in the *parent's* ID space: border groups
    // keep their identity, internal ones collapse onto the aggregate G-BS.
    // A dirty abstraction is re-announced first so the parent decides on
    // fresh state (e.g. current G-middlebox utilization).
    ++stats_.bearers_delegated;
    if (controller_->abstraction().dirty()) controller_->refresh_abstraction();
    AppMessage up;
    up.type = kBearerRequestMsg;
    up.body = BearerDelegation{
        request, controller_->abstraction().exposed_gbs_id(gbs_of_group(rec.group))};
    BearerOutcome outcome;
    bool responded = false;
    controller_->reca().delegate(std::move(up), [&](const AppMessage& resp) {
      if (const auto* body = std::any_cast<BearerOutcome>(&resp.body)) outcome = *body;
      responded = true;
    });
    // Channels deliver synchronously in-process, so the response has arrived.
    if (!responded || !outcome.ok) {
      ++stats_.bearers_failed;
      return Error{ErrorCode::kUnsatisfiable,
                   outcome.error.empty() ? "no ancestor could satisfy the bearer"
                                         : outcome.error};
    }
    bearer.handled_locally = false;
    bearer.handled_level = outcome.handled_level;
    bearer.ancestor_key = outcome.ancestor_key;
    span.detail("delegated L" + std::to_string(outcome.handled_level));
  }
  bearer.id = BearerId{next_bearer_++};
  BearerId id = bearer.id;
  rec.bearers.emplace(id, std::move(bearer));
  return id;
}

Result<void> MobilityApp::deactivate_bearer(UeId ue, BearerId bearer_id) {
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  auto bit = it->second.bearers.find(bearer_id);
  if (bit == it->second.bearers.end()) return {ErrorCode::kNotFound, "no such bearer"};
  release_bearer(ue, bit->second, Release::kTeardown);
  it->second.bearers.erase(bit);
  return Ok();
}

Result<BearerOutcome> MobilityApp::serve_bearer(const BearerDelegation& delegation) {
  auto source = gbs_attach(delegation.source_gbs);
  if (!source) return Error{ErrorCode::kNotFound, "source G-BS not in this region"};

  SpanGuard span("bearer.serve", controller_->level(), controller_->name());
  span.detail("failed");
  auto path = install_bearer_path(*source, delegation.request);
  if (!path.ok()) return path.error();

  std::uint64_t key = (controller_->id().value << 32) | next_ancestor_key_++;
  ancestor_paths_[key] = *path;
  span.detail("served");
  return BearerOutcome{true, controller_->level(), key, {}};
}

bool MobilityApp::deactivate_ancestor_key(std::uint64_t key) {
  auto it = ancestor_paths_.find(key);
  if (it == ancestor_paths_.end()) return false;
  (void)controller_->teardown_path(it->second);
  ancestor_paths_.erase(it);
  return true;
}

Result<void> MobilityApp::handover(UeId ue, BsId target_bs) {
  ++stats_.handover_requests;
  auto it = ues_.find(ue);
  if (it == ues_.end()) return {ErrorCode::kNotFound, "UE not attached"};
  UeRecord& rec = it->second;
  const dataplane::BaseStation* target = net_->base_station(target_bs);
  if (target == nullptr) return {ErrorCode::kNotFound, "no such target base station"};

  if (target->group == rec.group) {
    // §2.1 fast path: the groups' intra-connection (ring/mesh/spoke-hub)
    // carries same-group handovers; the flow keeps entering through the
    // same access switch, so no path changes at all.
    ++stats_.intra_group_handovers;
    rec.bs = target_bs;
    return Ok();
  }

  SpanGuard span("handover", controller_->level(), controller_->name());
  span.detail("failed");

  GBsId source_gbs = gbs_of_group(rec.group);
  GBsId target_gbs = gbs_of_group(target->group);
  handover_log_.add(source_gbs, target_gbs, 1.0);

  if (controller_->nib().gbs(target_gbs) != nullptr) {
    // --- intra-region (§5.2: "this type of handover is easy") ----------------
    ++stats_.intra_region_handovers;
    rec.bs = target_bs;
    rec.group = target->group;
    // Tear down the old paths first, collect the requests, then re-create
    // them from the new group (replacements must not be re-visited).
    std::vector<BearerRequest> to_restore;
    for (auto& [bid, bearer] : rec.bearers) {
      if (!bearer.active) continue;
      // An ancestor's classification rule points at the old access switch
      // too: tear it down and re-delegate from the new group.
      release_bearer(ue, bearer, Release::kTeardown);
      bearer.request.bs = target_bs;
      to_restore.push_back(bearer.request);
    }
    rec.bearers.erase_if([](const auto& kv) { return !kv.second.active; });
    for (const BearerRequest& request : to_restore)
      resetup_bearer(request, LogLevel::kDebug, "intra handover");
    span.detail("intra-region");
    return Ok();
  }

  // --- inter-region (§5.2): delegate to the common ancestor ------------------
  if (!controller_->reca().has_parent()) {
    ++stats_.handover_failures;
    return {ErrorCode::kNotFound, "target region unknown and no parent"};
  }
  ++stats_.handovers_delegated;
  HandoverDelegation delegation;
  delegation.ue = ue;
  delegation.source_gbs = source_gbs;
  delegation.source_bs = rec.bs;
  delegation.target_gbs = target_gbs;
  delegation.target_bs = target_bs;
  for (const auto& [bid, bearer] : rec.bearers) {
    if (!bearer.active) continue;
    delegation.active_bearers.push_back(bearer.request);
    if (!bearer.handled_locally && bearer.ancestor_key != 0)
      delegation.old_ancestor_keys.push_back(bearer.ancestor_key);
  }

  AppMessage up;
  up.type = kHandoverRequestMsg;
  up.body = delegation;
  HandoverOutcome outcome;
  bool responded = false;
  controller_->reca().delegate(std::move(up), [&](const AppMessage& resp) {
    if (const auto* body = std::any_cast<HandoverOutcome>(&resp.body)) outcome = *body;
    responded = true;
  });
  if (!responded || !outcome.ok) {
    ++stats_.handover_failures;
    return Error{ErrorCode::kUnsatisfiable,
                 outcome.error.empty() ? "handover rejected" : outcome.error};
  }
  // The ancestor released us via ho-release; if the UE record survived
  // (release raced), drop it now: the target leaf owns the UE.
  ues_.erase(ue);
  span.detail("inter-region");
  return Ok();
}

Result<HandoverOutcome> MobilityApp::serve_handover(const HandoverDelegation& delegation) {
  auto source = gbs_attach(delegation.source_gbs);
  auto target = gbs_attach(delegation.target_gbs);
  if (!source || !target)
    return Error{ErrorCode::kNotFound, "not the common ancestor of source and target"};

  SpanGuard span("handover.serve", controller_->level(), controller_->name());
  span.detail("failed");

  ++stats_.inter_region_handled;
  handover_log_.add(delegation.source_gbs, delegation.target_gbs, 1.0);

  // (1) New bearer paths from the target G-BS (§5.2 "establishes some paths
  //     E2 and G-BS2 for new flows").
  HoAllocate alloc;
  alloc.ue = delegation.ue;
  alloc.target_gbs = delegation.target_gbs;
  alloc.target_bs = delegation.target_bs;
  alloc.by_level = controller_->level();
  for (const BearerRequest& request : delegation.active_bearers) {
    BearerDelegation as_delegation{request, delegation.target_gbs};
    auto served = serve_bearer(as_delegation);
    std::uint64_t key = 0;
    if (served.ok()) {
      key = served->ancestor_key;
    } else if (controller_->reca().has_parent()) {
      // QoS satisfiable only higher up: climb.
      AppMessage up;
      up.type = kBearerRequestMsg;
      up.body = as_delegation;
      controller_->reca().delegate(std::move(up), [&key](const AppMessage& resp) {
        if (const auto* body = std::any_cast<BearerOutcome>(&resp.body)) {
          if (body->ok) key = body->ancestor_key;
        }
      });
    }
    alloc.bearers.push_back(request);
    alloc.ancestor_keys.push_back(key);
  }

  // (2) Transfer path for in-flight packets between the two G-BSes.
  nos::RoutingRequest transfer;
  transfer.source = *source;
  transfer.dst = *target;
  auto transfer_route = controller_->compute_route(transfer);
  std::optional<PathId> transfer_path;
  if (transfer_route.ok()) {
    dataplane::Match classifier;
    classifier.ue = delegation.ue;
    auto p = controller_->path_setup(*transfer_route, classifier);
    if (p.ok()) transfer_path = *p;
  }

  // (3) Resource allocation at the target (§5.2 "requests G-BS2 to allocate
  //     the resources at the BS2").
  bool allocated = false;
  AppMessage alloc_msg;
  alloc_msg.type = kHoAllocateMsg;
  alloc_msg.body = alloc;
  (void)send_toward_gbs(delegation.target_gbs, std::move(alloc_msg),
                        [&allocated](const AppMessage& resp) {
                          if (const auto* body = std::any_cast<HandoverOutcome>(&resp.body))
                            allocated = body->ok;
                        });

  // (4) Tear down old paths (ours by key; others forwarded up).
  for (std::uint64_t key : delegation.old_ancestor_keys) release_ancestor_key(delegation.ue, key);

  // (5) Release at the source (§5.2 "asks G-BS1 to release the resources").
  AppMessage release_msg;
  release_msg.type = kHoReleaseMsg;
  release_msg.body = HoRelease{delegation.ue, delegation.source_gbs};
  (void)send_toward_gbs(delegation.source_gbs, std::move(release_msg), nullptr);

  // (6) The in-flight transfer path is short-lived: removed once the
  //     handover completes (§5.2 "removes old paths ... between G-BS1 and
  //     G-BS2").
  if (transfer_path) (void)controller_->teardown_path(*transfer_path);

  if (!allocated)
    return Error{ErrorCode::kUnavailable, "target G-BS failed to allocate resources"};
  span.detail("served");
  return HandoverOutcome{true, controller_->level(), {}};
}

const UeRecord* MobilityApp::ue(UeId id) const {
  auto it = ues_.find(id);
  return it == ues_.end() ? nullptr : &it->second;
}

WeightedAdjacency<GBsId> MobilityApp::exposed_handover_graph() const {
  return map_to_exposed(handover_log_);
}

WeightedAdjacency<GBsId> MobilityApp::collect_handover_graph() {
  WeightedAdjacency<GBsId> merged = handover_log_;
  for (SwitchId device : controller_->devices()) {
    if (!reca::is_gswitch_id(device)) continue;
    AppMessage fetch;
    fetch.type = kFetchHandoverGraphMsg;
    controller_->send_app_request(device, std::move(fetch), [&merged](const AppMessage& resp) {
      if (const auto* body = std::any_cast<HandoverGraphBody>(&resp.body))
        merged.merge(body->graph);
    });
  }
  return merged;
}

WeightedAdjacency<GBsId> MobilityApp::map_to_exposed(
    const WeightedAdjacency<GBsId>& graph) const {
  const auto& border = controller_->abstraction().border_gbs();
  GBsId internal = reca::internal_gbs_id_for(controller_->id());
  auto map_node = [&](GBsId n) -> GBsId {
    if (border.contains(n)) return n;                       // exposed 1:1
    if (controller_->nib().gbs(n) != nullptr) return internal;  // ours, internal
    return n;                                               // foreign: ancestors map it
  };
  WeightedAdjacency<GBsId> out;
  for (const auto& [key, weight] : graph.edges()) {
    GBsId a = map_node(key.first);
    GBsId b = map_node(key.second);
    if (a == b) continue;  // collapsed into the internal aggregate
    out.add(a, b, weight);
  }
  return out;
}

std::vector<UeRecord> MobilityApp::extract_group_state(BsGroupId group) {
  std::vector<UeRecord> out;
  for (auto it = ues_.begin(); it != ues_.end();) {
    if (it->second.group == group) {
      // Local path ids are meaningless in the target leaf's path table, and
      // this leaf is about to lose control of the switches carrying them:
      // tear them down now and hand the bearer over as pending re-setup.
      // Ancestor-implemented paths survive the leaf change untouched.
      for (auto& [bid, bearer] : it->second.bearers) {
        if (!bearer.active || !bearer.handled_locally) continue;
        release_bearer(it->second.ue, bearer, Release::kMoveAway);
        bearer.pending_rehome = true;
      }
      out.push_back(std::move(it->second));
      it = ues_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void MobilityApp::absorb_group_state(std::vector<UeRecord> records) {
  for (UeRecord& rec : records) ues_[rec.ue] = std::move(rec);
}

void MobilityApp::rehome_transferred_bearers(BsGroupId group) {
  std::vector<BearerRequest> to_restore;
  for (auto& [ue_id, rec] : ues_) {
    if (!(rec.group == group)) continue;
    for (auto& [bid, bearer] : rec.bearers) {
      if (bearer.pending_rehome) to_restore.push_back(bearer.request);
    }
    rec.bearers.erase_if([](const auto& kv) { return kv.second.pending_rehome; });
  }
  for (const BearerRequest& request : to_restore)
    resetup_bearer(request, LogLevel::kWarn, "reconfiguration");
}

}  // namespace softmow::apps
