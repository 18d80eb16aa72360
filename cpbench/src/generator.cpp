#include "generator.h"

#include <algorithm>

namespace cpbench {

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAttach: return "attach";
    case OpKind::kBearerSetup: return "bearer_setup";
    case OpKind::kIdle: return "idle";
    case OpKind::kActive: return "active";
    case OpKind::kTeardown: return "teardown";
    case OpKind::kHandover: return "handover";
  }
  return "?";
}

TraceView trace_view(const softmow::topo::LteTrace& trace,
                     const softmow::dataplane::PhysicalNetwork& net, std::uint32_t prefixes) {
  TraceView view;
  view.bins = &trace.bins;
  view.prefixes = std::max<std::uint32_t>(prefixes, 1);
  for (softmow::BsGroupId group : trace.groups) {
    std::vector<std::uint32_t> stations;
    for (softmow::BsId bs : net.bs_group(group)->members)
      stations.push_back(static_cast<std::uint32_t>(bs.value));
    view.group_stations.push_back(std::move(stations));
  }
  return view;
}

OpGenerator::OpGenerator(TraceView view, GeneratorParams params)
    : view_(std::move(view)), params_(params), rng_(params.seed) {
  residents_.resize(view_.group_stations.size());
  for (auto& group : residents_) {
    group.reserve(params_.ues_per_group);
    for (std::uint32_t slot = 0; slot < params_.ues_per_group; ++slot)
      group.push_back(next_ue_++);
  }
}

std::vector<Op> OpGenerator::resident_attaches() const {
  std::vector<Op> out;
  out.reserve(residents_.size() * params_.ues_per_group);
  for (std::uint32_t g = 0; g < residents_.size(); ++g) {
    const auto& stations = view_.group_stations[g];
    // UE ids of residents are dense per group (see the constructor).
    const std::uint32_t first = 1 + g * params_.ues_per_group;
    for (std::uint32_t slot = 0; slot < params_.ues_per_group; ++slot) {
      Op op;
      op.kind = OpKind::kAttach;
      op.ue = first + slot;
      op.group = g;
      op.bs = stations[slot % stations.size()];
      out.push_back(op);
    }
  }
  return out;
}

void OpGenerator::push_derived(Op op) {
  op.seq = next_seq_++;
  derived_.push(op);
}

void OpGenerator::expand_next_minute() {
  const auto& bins = *view_.bins;
  const std::size_t first = std::min(params_.first_minute, bins.size() - 1);
  const std::size_t span = bins.size() - first;
  const softmow::topo::TraceBin& bin = bins[first + minutes_expanded_ % span];
  const double t0 = 60.0 * static_cast<double>(minutes_expanded_);
  ++minutes_expanded_;

  // Skeletons first (kind, groups, time), then UEs in time order so the
  // residency model advances the way the operations will run.
  struct Skeleton {
    double t;
    OpKind kind;
    std::uint32_t from;
    std::uint32_t to;
  };
  std::vector<Skeleton> skeletons;
  auto rounded = [&](double expected) {
    auto n = static_cast<std::uint64_t>(expected);
    if (rng_.bernoulli(expected - static_cast<double>(n))) ++n;
    return n;
  };
  const std::uint32_t groups = static_cast<std::uint32_t>(residents_.size());
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::uint64_t bearers = rounded(bin.bearer_arrivals[g] * params_.bearer_share);
    for (std::uint64_t k = 0; k < bearers; ++k)
      skeletons.push_back({t0 + 60.0 * rng_.uniform(), OpKind::kBearerSetup, g, g});
    for (std::uint32_t k = 0; k < bin.ue_arrivals[g]; ++k)
      skeletons.push_back({t0 + 60.0 * rng_.uniform(), OpKind::kAttach, g, g});
  }
  for (const auto& [a, b, count] : bin.handovers) {
    for (std::uint32_t k = 0; k < count; ++k) {
      bool forward = rng_.bernoulli(0.5);
      skeletons.push_back(
          {t0 + 60.0 * rng_.uniform(), OpKind::kHandover, forward ? a : b, forward ? b : a});
    }
  }
  std::stable_sort(skeletons.begin(), skeletons.end(),
                   [](const Skeleton& x, const Skeleton& y) { return x.t < y.t; });

  minute_.clear();
  minute_pos_ = 0;
  for (const Skeleton& s : skeletons) {
    Op op;
    op.t = s.t;
    op.kind = s.kind;
    switch (s.kind) {
      case OpKind::kBearerSetup: {
        auto& here = residents_[s.from];
        if (here.empty()) continue;
        op.ue = here[rng_.below(here.size())];
        op.group = s.from;
        op.bearer = next_bearer_++;
        op.prefix = static_cast<std::uint32_t>(rng_.below(view_.prefixes));
        op.gbr = rng_.bernoulli(params_.gbr_share);
        const double hold =
            params_.hold_min_s + (params_.hold_max_s - params_.hold_min_s) * rng_.uniform();
        Op later = op;
        if (rng_.bernoulli(params_.idle_share)) {
          later.kind = OpKind::kIdle;
          later.t = op.t + hold / 3.0;
          push_derived(later);
          later.kind = OpKind::kActive;
          later.t = op.t + 2.0 * hold / 3.0;
          push_derived(later);
        }
        later.kind = OpKind::kTeardown;
        later.t = op.t + hold;
        push_derived(later);
        break;
      }
      case OpKind::kAttach: {
        const auto& stations = view_.group_stations[s.from];
        op.ue = next_ue_++;
        op.group = s.from;
        op.bs = stations[rng_.below(stations.size())];
        residents_[s.from].push_back(op.ue);
        break;
      }
      case OpKind::kHandover: {
        auto& from = residents_[s.from];
        if (from.empty()) continue;
        std::size_t pick = rng_.below(from.size());
        op.ue = from[pick];
        from[pick] = from.back();
        from.pop_back();
        residents_[s.to].push_back(op.ue);
        const auto& stations = view_.group_stations[s.to];
        op.group = s.to;
        op.bs = stations[rng_.below(stations.size())];
        break;
      }
      default:
        continue;
    }
    op.seq = next_seq_++;
    minute_.push_back(op);
  }
}

Op OpGenerator::next() {
  for (;;) {
    if (minute_pos_ < minute_.size()) {
      if (!derived_.empty() && Later{}(minute_[minute_pos_], derived_.top())) {
        Op op = derived_.top();
        derived_.pop();
        return op;
      }
      return minute_[minute_pos_++];
    }
    // Derived operations due before the next minute starts run first.
    const double next_minute = 60.0 * static_cast<double>(minutes_expanded_);
    if (!derived_.empty() && derived_.top().t < next_minute) {
      Op op = derived_.top();
      derived_.pop();
      return op;
    }
    expand_next_minute();
  }
}

}  // namespace cpbench
