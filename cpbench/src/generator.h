// Seeded control-plane workload generator.
//
// Turns the per-minute bins of a synthetic LTE trace into a stream of
// timestamped control operations (trace time, seconds from the first
// replayed minute): UE arrivals, bearer setups with their idle/active cycle
// and teardown, and handovers between BS groups. The schedule is open-loop:
// it depends only on the trace, the parameters and the seed, never on how
// the control plane answers or how fast it runs. The generator keeps its
// own model of where each UE sits, updated as if every operation succeeded.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "topo/lte_trace.h"

namespace cpbench {

/// SplitMix64: small, fast and identical on every platform (the standard
/// library's distributions are not), so a seed names the same inputs
/// everywhere.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool bernoulli(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

enum class OpKind : std::uint8_t { kAttach, kBearerSetup, kIdle, kActive, kTeardown, kHandover };
inline constexpr std::size_t kOpKinds = 6;
[[nodiscard]] const char* op_name(OpKind kind);

struct Op {
  double t = 0;                 ///< trace seconds since the first replayed minute
  std::uint64_t seq = 0;        ///< emission order (tie-break, digest input)
  OpKind kind = OpKind::kAttach;
  std::uint64_t bearer = 0;     ///< generator bearer index (setup/idle/active/teardown)
  std::uint32_t ue = 0;         ///< UE id value
  std::uint32_t group = 0;      ///< group index: arrival group or handover target
  std::uint32_t bs = 0;         ///< base station id value (attach, handover target)
  std::uint32_t prefix = 0;     ///< bearer destination prefix id value
  bool gbr = false;             ///< guaranteed-bit-rate bearer
};

struct GeneratorParams {
  std::size_t first_minute = 840;  ///< diurnal peak onward
  double bearer_share = 1.0;       ///< share of the trace's bearer arrivals replayed
  double gbr_share = 0.0;          ///< share of bearers that are GBR
  double idle_share = 0.2;         ///< bearers that go through ue_idle/ue_active
  double hold_min_s = 1.0;         ///< bearer hold time, uniform in [min, max]
  double hold_max_s = 4.0;
  std::uint32_t ues_per_group = 1000;  ///< resident population per group
  std::uint64_t seed = 1;
};

/// What the generator reads from a scenario.
struct TraceView {
  const std::vector<softmow::topo::TraceBin>* bins = nullptr;
  std::vector<std::vector<std::uint32_t>> group_stations;  ///< BS ids per group index
  std::uint32_t prefixes = 1;
};

[[nodiscard]] TraceView trace_view(const softmow::topo::LteTrace& trace,
                                   const softmow::dataplane::PhysicalNetwork& net,
                                   std::uint32_t prefixes);

class OpGenerator {
 public:
  OpGenerator(TraceView view, GeneratorParams params);

  /// The resident UEs, attached during setup (ue, group index, bs), in order.
  [[nodiscard]] std::vector<Op> resident_attaches() const;
  /// Next operation in trace-time order.
  Op next();
  /// UE ids handed out so far (residents and arrivals) are 1..ue_count().
  [[nodiscard]] std::uint32_t ue_count() const { return next_ue_ - 1; }

 private:
  void expand_next_minute();
  void push_derived(Op op);

  struct Later {
    bool operator()(const Op& a, const Op& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  TraceView view_;
  GeneratorParams params_;
  SplitMix rng_;
  std::vector<std::vector<std::uint32_t>> residents_;  ///< UE ids per group index
  std::vector<Op> minute_;                             ///< current minute's primary ops
  std::size_t minute_pos_ = 0;
  std::size_t minutes_expanded_ = 0;
  std::priority_queue<Op, std::vector<Op>, Later> derived_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_bearer_ = 0;
  std::uint32_t next_ue_ = 1;
};

}  // namespace cpbench
