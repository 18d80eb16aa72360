#include "southbound/channel.h"

#include "core/log.h"

namespace softmow::southbound {

const char* message_name(const Message& m) {
  struct Visitor {
    const char* operator()(const Hello&) { return "hello"; }
    const char* operator()(const FeaturesRequest&) { return "features-request"; }
    const char* operator()(const FeaturesReply&) { return "features-reply"; }
    const char* operator()(const GBsAnnounce&) { return "gbs-announce"; }
    const char* operator()(const GMiddleboxAnnounce&) { return "gmb-announce"; }
    const char* operator()(const FlowMod&) { return "flow-mod"; }
    const char* operator()(const PacketOut&) { return "packet-out"; }
    const char* operator()(const PacketIn&) { return "packet-in"; }
    const char* operator()(const PortStatus&) { return "port-status"; }
    const char* operator()(const RoleRequest&) { return "role-request"; }
    const char* operator()(const RoleReply&) { return "role-reply"; }
    const char* operator()(const BarrierRequest&) { return "barrier-request"; }
    const char* operator()(const BarrierReply&) { return "barrier-reply"; }
    const char* operator()(const EchoRequest&) { return "echo-request"; }
    const char* operator()(const EchoReply&) { return "echo-reply"; }
    const char* operator()(const AppMessage& a) { return a.is_response ? "app-response" : "app-request"; }
    const char* operator()(const VFabricUpdate&) { return "vfabric-update"; }
  };
  return std::visit(Visitor{}, m);
}

namespace {

/// Satellite of the fault subsystem: every silently lost message is now
/// accounted for, keyed by why it was lost, so fault runs can assert on
/// `southbound_dropped_total{reason}` instead of grepping debug logs.
void count_dropped(const char* reason, std::uint64_t n = 1) {
  obs::default_registry()
      .counter("southbound_dropped_total", {{"reason", reason}})
      ->inc(n);
}

obs::Counter* impairment_counter(const char* effect) {
  return obs::default_registry().counter("southbound_impairments_total",
                                         {{"effect", effect}});
}

}  // namespace

Channel::Channel()
    : to_device_metric_(obs::default_registry().counter("southbound_messages_total",
                                                        {{"direction", "to_device"}})),
      to_controller_metric_(obs::default_registry().counter("southbound_messages_total",
                                                            {{"direction", "to_controller"}})),
      to_device_batches_metric_(obs::default_registry().counter(
          "southbound_batches_total", {{"direction", "to_device"}})),
      to_controller_batches_metric_(obs::default_registry().counter(
          "southbound_batches_total", {{"direction", "to_controller"}})) {}

bool Channel::engine_active() const {
  return binding_.engine != nullptr && binding_.engine->running() &&
         sim::ShardedSimulator::in_shard_event();
}

void Channel::count_send(bool to_device, std::uint64_t messages) {
  if (to_device) {
    sent_to_device_ += messages;
    to_device_metric_->inc(messages);
    to_device_batches_metric_->inc();
  } else {
    sent_to_controller_ += messages;
    to_controller_metric_->inc(messages);
    to_controller_batches_metric_->inc();
  }
}

void Channel::deliver_direct(const Message& m, bool to_device) {
  if (!connected_) {
    count_dropped("disconnected");
    return;
  }
  Handler& h = to_device ? to_device_ : to_controller_;
  if (h) {
    h(m);
  } else {
    count_dropped("no_handler");
    SOFTMOW_LOG(LogLevel::kDebug, "channel")
        << "dropping " << message_name(m) << " (no handler bound)";
  }
}

Channel::Fate Channel::roll_impairment(bool to_device, std::uint64_t messages) {
  Fate fate;
  if (!impair_.any()) return fate;
  Rng& rng = to_device ? impair_down_ : impair_up_;
  if (impair_.drop > 0 && rng.bernoulli(impair_.drop)) {
    fate.dropped = true;
    count_dropped("impaired", messages);
    impairment_counter("drop")->inc();
    return fate;
  }
  if (impair_.duplicate > 0 && rng.bernoulli(impair_.duplicate)) {
    fate.duplicated = true;
    impairment_counter("duplicate")->inc();
  }
  if (impair_.delay > 0 && rng.bernoulli(impair_.delay)) {
    fate.extra = impair_.jitter;
    impairment_counter("delay")->inc();
  }
  return fate;
}

void Channel::impair(const Impairment& profile, std::uint64_t seed) {
  impair_ = profile;
  // Distinct streams per direction; each side sends from one shard, so the
  // streams stay single-writer under parallel execution.
  impair_down_ = Rng(seed * 2 + 1);
  impair_up_ = Rng(seed * 2 + 2);
}

void Channel::send_to_device(Message m) {
  if (!connected_) {
    count_dropped("disconnected");
    return;
  }
  count_send(/*to_device=*/true, 1);
  Fate fate = roll_impairment(/*to_device=*/true, 1);
  if (fate.dropped) return;
  if (engine_active()) {
    // The engine captures the ambient trace context at post time and
    // restores it around the callback — same causality rule as the pump.
    sim::Duration delay = binding_.to_device_delay + fate.extra;
    if (fate.duplicated) {
      binding_.engine->post(binding_.device_shard, delay,
                            [this, msg = m] { deliver_direct(msg, true); });
    }
    binding_.engine->post(binding_.device_shard, delay,
                          [this, msg = std::move(m)] { deliver_direct(msg, true); });
    return;
  }
  obs::TraceContext ctx = obs::default_tracer().current();
  if (fate.duplicated) pending_.push_back(Pending{m, true, ctx});
  pending_.push_back(Pending{std::move(m), true, ctx});
  pump();
}

void Channel::send_to_controller(Message m) {
  if (!connected_) {
    count_dropped("disconnected");
    return;
  }
  count_send(/*to_device=*/false, 1);
  Fate fate = roll_impairment(/*to_device=*/false, 1);
  if (fate.dropped) return;
  if (engine_active()) {
    sim::Duration delay = binding_.to_controller_delay + fate.extra;
    if (fate.duplicated) {
      binding_.engine->post(binding_.controller_shard, delay,
                            [this, msg = m] { deliver_direct(msg, false); });
    }
    binding_.engine->post(binding_.controller_shard, delay,
                          [this, msg = std::move(m)] { deliver_direct(msg, false); });
    return;
  }
  obs::TraceContext ctx = obs::default_tracer().current();
  if (fate.duplicated) pending_.push_back(Pending{m, false, ctx});
  pending_.push_back(Pending{std::move(m), false, ctx});
  pump();
}

void Channel::send_to_device_batch(std::vector<Message> batch) {
  if (!connected_) {
    count_dropped("disconnected", batch.size());
    return;
  }
  if (batch.empty()) return;
  count_send(/*to_device=*/true, batch.size());
  Fate fate = roll_impairment(/*to_device=*/true, batch.size());
  if (fate.dropped) return;
  if (engine_active()) {
    // One engine event delivers the whole batch: a single cross-shard
    // handoff regardless of batch size.
    sim::Duration delay = binding_.to_device_delay + fate.extra;
    if (fate.duplicated) {
      binding_.engine->post(binding_.device_shard, delay, [this, msgs = batch] {
        for (const Message& m : msgs) deliver_direct(m, true);
      });
    }
    binding_.engine->post(binding_.device_shard, delay,
                          [this, msgs = std::move(batch)] {
                            for (const Message& m : msgs) deliver_direct(m, true);
                          });
    return;
  }
  obs::TraceContext ctx = obs::default_tracer().current();
  if (fate.duplicated) {
    for (const Message& m : batch) pending_.push_back(Pending{m, true, ctx});
  }
  for (Message& m : batch) pending_.push_back(Pending{std::move(m), true, ctx});
  pump();
}

void Channel::send_to_controller_batch(std::vector<Message> batch) {
  if (!connected_) {
    count_dropped("disconnected", batch.size());
    return;
  }
  if (batch.empty()) return;
  count_send(/*to_device=*/false, batch.size());
  Fate fate = roll_impairment(/*to_device=*/false, batch.size());
  if (fate.dropped) return;
  if (engine_active()) {
    sim::Duration delay = binding_.to_controller_delay + fate.extra;
    if (fate.duplicated) {
      binding_.engine->post(binding_.controller_shard, delay, [this, msgs = batch] {
        for (const Message& m : msgs) deliver_direct(m, false);
      });
    }
    binding_.engine->post(binding_.controller_shard, delay,
                          [this, msgs = std::move(batch)] {
                            for (const Message& m : msgs) deliver_direct(m, false);
                          });
    return;
  }
  obs::TraceContext ctx = obs::default_tracer().current();
  if (fate.duplicated) {
    for (const Message& m : batch) pending_.push_back(Pending{m, false, ctx});
  }
  for (Message& m : batch) pending_.push_back(Pending{std::move(m), false, ctx});
  pump();
}

void Channel::pump() {
  if (pumping_) return;  // already draining higher in the stack
  pumping_ = true;
  while (!pending_.empty() && connected_) {
    Pending entry = std::move(pending_.front());
    pending_.pop_front();
    Handler& h = entry.to_device ? to_device_ : to_controller_;
    if (h) {
      // Restore the sender's context for the handler: even though the queue
      // flattens nested sends, causality follows the message, not the stack.
      obs::Tracer::ScopedContext scoped(obs::default_tracer(), entry.ctx);
      h(entry.msg);
    } else {
      count_dropped("no_handler");
      SOFTMOW_LOG(LogLevel::kDebug, "channel")
          << "dropping " << message_name(entry.msg) << " (no handler bound)";
    }
  }
  pumping_ = false;
}

void Channel::disconnect() {
  connected_ = false;
  if (!pending_.empty()) count_dropped("disconnected", pending_.size());
  pending_.clear();
}

}  // namespace softmow::southbound
