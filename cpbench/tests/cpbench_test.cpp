// Tests of the benchmark itself: generator determinism, outcome-digest
// reproducibility, span self-time arithmetic and metric naming.
#include <gtest/gtest.h>

#include "generator.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace cpbench {
namespace {

std::vector<Op> first_ops(const softmow::topo::Scenario& sc, std::uint64_t seed, std::size_t n) {
  GeneratorParams params;
  params.first_minute = 60;
  params.ues_per_group = 20;
  params.gbr_share = 0.3;
  params.seed = seed;
  OpGenerator gen(trace_view(sc.trace, sc.net, 200), params);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) ops.push_back(gen.next());
  return ops;
}

bool same(const Op& a, const Op& b) {
  return a.t == b.t && a.seq == b.seq && a.kind == b.kind && a.bearer == b.bearer &&
         a.ue == b.ue && a.group == b.group && a.bs == b.bs && a.prefix == b.prefix &&
         a.gbr == b.gbr;
}

TEST(Generator, SameSeedSameOperations) {
  auto sc = softmow::topo::build_scenario(softmow::topo::small_scenario_params(1));
  const auto a = first_ops(*sc, 7, 5000);
  const auto b = first_ops(*sc, 7, 5000);
  const auto c = first_ops(*sc, 8, 5000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_TRUE(same(a[i], b[i])) << "op " << i;
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) differs = !same(a[i], c[i]);
  EXPECT_TRUE(differs);
}

TEST(Generator, OperationsAreInTraceTimeOrderWithEveryKind) {
  auto sc = softmow::topo::build_scenario(softmow::topo::small_scenario_params(1));
  const auto ops = first_ops(*sc, 3, 20000);
  std::array<std::size_t, kOpKinds> seen{};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) {
      ASSERT_LE(ops[i - 1].t, ops[i].t);
    }
    ++seen[static_cast<std::size_t>(ops[i].kind)];
  }
  for (std::size_t k = 0; k < kOpKinds; ++k)
    EXPECT_GT(seen[k], 0u) << op_name(static_cast<OpKind>(k));
}

RunResult small_run(const std::string& workload, std::uint64_t seed) {
  WorkloadSpec spec = *find_workload(workload);
  spec.gen.first_minute = 60;
  spec.resident_ues = 2000;
  RunOptions options;
  options.seed = seed;
  options.setups = 1;
  options.scenario = softmow::topo::small_scenario_params(1);
  options.max_ops = 3000;
  options.quiet = true;
  return run_workload(spec, options);
}

TEST(Digest, TwoRunsWithOneSeedAgree) {
  for (const char* workload : {"peak_churn", "gbr_churn"}) {
    const RunResult a = small_run(workload, 5);
    const RunResult b = small_run(workload, 5);
    EXPECT_EQ(a.warmup_digest, b.warmup_digest) << workload;
    EXPECT_EQ(a.checkpoint_digest, b.checkpoint_digest) << workload;
    EXPECT_FALSE(a.checkpoint_digest.empty()) << workload;
    EXPECT_EQ(a.digest, b.digest) << workload;
    EXPECT_EQ(a.digest_ops, b.digest_ops) << workload;
    EXPECT_GT(a.attempted, 0u) << workload;
    const RunResult c = small_run(workload, 6);
    EXPECT_NE(a.digest, c.digest) << workload;
  }
}

TEST(Digest, DiscoveryRunsAgree) {
  WorkloadSpec spec = *find_workload("discovery");
  spec.resident_ues = 2000;
  RunOptions options;
  options.setups = 1;
  options.scenario = softmow::topo::small_scenario_params(1);
  options.max_ops = 20;
  options.quiet = true;
  const RunResult a = run_workload(spec, options);
  const RunResult b = run_workload(spec, options);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_TRUE(a.correct) << (a.problems.empty() ? "" : a.problems.front());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec(true);
  const auto op = rec.intern("op");
  const auto call = rec.intern("call");
  const auto inner = rec.intern("inner");
  const auto root = rec.add(op, SpanRecorder::kNoParent, 0, 100);
  const auto a = rec.add(call, root, 10, 40);   // 30
  rec.add(call, root, 30, 60);                  // overlaps a: union adds 20
  rec.add(call, root, 90, 120);                 // clipped to the parent: 10
  rec.add(inner, a, 15, 20);                    // 5 inside a
  const auto self = rec.self_ns();
  EXPECT_DOUBLE_EQ(self[0], 100 - 60);
  EXPECT_DOUBLE_EQ(self[1], 30 - 5);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 30);
  EXPECT_DOUBLE_EQ(self[4], 5);
  const auto totals = rec.totals();
  EXPECT_EQ(totals.at("call").count, 3u);
  EXPECT_DOUBLE_EQ(totals.at("call").total_ns, 90);
  EXPECT_DOUBLE_EQ(totals.at("call").self_ns, 85);
}

TEST(Spans, OpenCloseNestsUnderTheInnermostOpenSpan) {
  SpanRecorder rec(true);
  {
    ScopedSpan outer(rec, rec.intern("outer"), 1);
    ScopedSpan inner(rec, rec.intern("inner"), 1);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, SpanRecorder::kNoParent);
  EXPECT_EQ(rec.spans()[1].parent, 0u);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  SpanRecorder off(false);
  { ScopedSpan s(off, off.intern("x")); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Metrics, NamesAreValid) {
  for (const auto& name : end_to_end_metric_names()) EXPECT_TRUE(valid_metric_name(name)) << name;
  for (const auto& name : per_layer_metric_names()) EXPECT_TRUE(valid_metric_name(name)) << name;
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a{level=1}"));
}

TEST(Stats, NearestRankQuantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 500);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 990);
  EXPECT_TRUE(summarize(v).p99_supported());
  EXPECT_FALSE(summarize({1, 2, 3}).p99_supported());
}

TEST(Stats, ChunkedQuantileIsTheMedianOfChunkQuantiles) {
  // Three chunks of 1000; the middle one is slow throughout.
  std::vector<double> v;
  for (int c = 0; c < 3; ++c)
    for (int i = 1; i <= 1000; ++i) v.push_back(c == 1 ? 10.0 * i : i);
  EXPECT_DOUBLE_EQ(chunked_quantile(v, 0.99), 990);
  EXPECT_DOUBLE_EQ(chunked_quantile(v, 0.5), 500);
  // Fewer samples than one chunk: the plain quantile.
  EXPECT_DOUBLE_EQ(chunked_quantile({3, 1, 2}, 0.5), 2);
}

}  // namespace
}  // namespace cpbench
