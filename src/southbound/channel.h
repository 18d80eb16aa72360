// Bidirectional control channel between a controller and a device (physical
// switch agent or child RecA agent).
//
// Delivery has two modes. Unbound (the default, and always during
// bootstrap), it is queued-and-flattened: a handler that sends further
// messages never recurses into nested delivery; messages drain FIFO per
// channel, synchronously inside send. Bound to a running
// sim::ShardedSimulator (bind_shards), sends instead post delivery events
// into the receiving side's shard with the channel's propagation delay —
// same-shard hops stay immediate-order events, cross-shard hops ride the
// engine's mailboxes — so control traffic between regions executes in
// parallel yet deterministically.
//
// Batched sends (send_to_*_batch) deliver a whole vector of messages as ONE
// engine event / pump group, amortizing the cross-shard handoff; the
// registry counts messages and batches separately
// (`southbound_messages_total` / `southbound_batches_total`, by direction).
// Control-plane message volume — the "east-west" load the region
// optimization of §5.3 minimizes — is reported per direction through the
// obs metrics registry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sharded.h"
#include "southbound/messages.h"

namespace softmow::southbound {

/// Receives messages arriving at one side of a channel.
using Handler = std::function<void(const Message&)>;

/// Seeded southbound impairment profile (fault injection). Probabilities
/// apply per *delivery unit* — a batch is lost, duplicated or delayed as a
/// whole, matching the one-event batching contract. Drop and duplicate work
/// in both delivery modes; delay adds in-flight latency (and hence reorders
/// against unimpaired units) only under a bound engine — the synchronous
/// pump has no timeline to delay against.
struct Impairment {
  double drop = 0;       ///< P(delivery unit silently lost in flight)
  double duplicate = 0;  ///< P(delivery unit delivered twice)
  double delay = 0;      ///< P(delivery unit held back by `jitter`)
  sim::Duration jitter;  ///< extra in-flight latency for delayed units
  [[nodiscard]] bool any() const { return drop > 0 || duplicate > 0 || delay > 0; }
};

class Channel {
 public:
  /// Routes one channel's deliveries onto a sharded engine: each side's
  /// handler runs on its owning shard, `delay` ahead of the sender's clock
  /// (the modeled controller-switch / parent-child propagation time). Only
  /// consulted while the engine is running and the sender is executing a
  /// shard event; otherwise sends fall back to the synchronous pump.
  struct ShardBinding {
    sim::ShardedSimulator* engine = nullptr;
    sim::ShardId controller_shard = 0;
    sim::ShardId device_shard = 0;
    sim::Duration to_device_delay;      ///< controller -> device propagation
    sim::Duration to_controller_delay;  ///< device -> controller propagation
  };

  Channel();

  /// Installs the controller-side handler (receives device -> controller).
  void bind_controller(Handler h) { to_controller_ = std::move(h); }
  /// Installs the device-side handler (receives controller -> device).
  void bind_device(Handler h) { to_device_ = std::move(h); }

  [[nodiscard]] bool controller_bound() const { return static_cast<bool>(to_controller_); }
  [[nodiscard]] bool device_bound() const { return static_cast<bool>(to_device_); }

  void bind_shards(const ShardBinding& binding) { binding_ = binding; }
  void unbind_shards() { binding_ = ShardBinding{}; }
  [[nodiscard]] bool shard_bound() const { return binding_.engine != nullptr; }

  /// Controller -> device. The sender's ambient trace context is captured
  /// with the message and restored around the receiving handler, so delivery
  /// through the flattened queue (or the engine event) preserves causality.
  void send_to_device(Message m);
  /// Device -> controller.
  void send_to_controller(Message m);
  /// Controller -> device, one delivery unit for the whole vector.
  void send_to_device_batch(std::vector<Message> batch);
  /// Device -> controller, one delivery unit for the whole vector.
  void send_to_controller_batch(std::vector<Message> batch);

  /// Drops all undelivered messages (used by failure-injection tests).
  void disconnect();
  [[nodiscard]] bool connected() const { return connected_; }

  /// Applies `profile` to everything sent from now on. Each direction rolls
  /// an independent stream derived from `seed` (each side of a channel sends
  /// from exactly one shard, so the streams have a single consumer even in
  /// parallel runs) — a fixed scenario impairs the same delivery units for
  /// any worker-thread count.
  void impair(const Impairment& profile, std::uint64_t seed);
  void clear_impairment() { impair_ = Impairment{}; }
  [[nodiscard]] bool impaired() const { return impair_.any(); }

  [[nodiscard]] std::uint64_t sent_to_device() const { return sent_to_device_; }
  [[nodiscard]] std::uint64_t sent_to_controller() const { return sent_to_controller_; }

 private:
  /// What the impairment profile decided for one delivery unit.
  struct Fate {
    bool dropped = false;
    bool duplicated = false;
    sim::Duration extra;  ///< additional in-flight latency (engine mode)
  };

  void pump();
  /// True when sends must route through the bound engine (engine running
  /// and the caller is inside a shard event).
  [[nodiscard]] bool engine_active() const;
  void count_send(bool to_device, std::uint64_t messages);
  /// Runs the receiving handler for one message (engine-event body).
  void deliver_direct(const Message& m, bool to_device);
  /// Rolls the impairment dice for one delivery unit of `messages` messages.
  Fate roll_impairment(bool to_device, std::uint64_t messages);

  Handler to_controller_;
  Handler to_device_;
  struct Pending {
    Message msg;
    bool to_device;
    obs::TraceContext ctx;  ///< sender's ambient context at send time
  };
  std::deque<Pending> pending_;
  bool pumping_ = false;
  bool connected_ = true;
  // Each side of the channel sends from exactly one shard, so each field
  // below has a single writer even in parallel runs.
  std::uint64_t sent_to_device_ = 0;
  std::uint64_t sent_to_controller_ = 0;
  ShardBinding binding_;
  Impairment impair_;
  Rng impair_down_{0};  ///< controller -> device impairment stream
  Rng impair_up_{0};    ///< device -> controller impairment stream
  obs::Counter* to_device_metric_;      ///< southbound_messages_total{direction=to_device}
  obs::Counter* to_controller_metric_;  ///< southbound_messages_total{direction=to_controller}
  obs::Counter* to_device_batches_metric_;      ///< southbound_batches_total{...}
  obs::Counter* to_controller_batches_metric_;  ///< southbound_batches_total{...}
};

}  // namespace softmow::southbound
