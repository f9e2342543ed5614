// Sharded engine suite: the oracle is bit-identity.  A ShardedTraceStore
// holding the same interval multiset as a monolithic TraceStore — under
// any partition, after any history of seal/evict/spill/compress — must
// produce the same bits through every view, model fold, partitioned
// DataCube/MeasureCache build and DP run, at every shard count including
// S = 1; and a SessionManager spanning shards must match the PR 4
// private-copy lockstep oracle round for round.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "core/aggregator.hpp"
#include "core/ingest_pipeline.hpp"
#include "core/session_manager.hpp"
#include "core/sliding_window.hpp"
#include "hierarchy/hierarchy.hpp"
#include "hierarchy/shard_plan.hpp"
#include "model/builder.hpp"
#include "trace/sharded_store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"
#include "workload/stream_split.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

constexpr std::array<std::size_t, 5> kShardCounts = {1, 2, 3, 4, 7};

void expect_results_equal(const std::vector<AggregationResult>& got,
                          const std::vector<AggregationResult>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].p, want[k].p) << context << " k=" << k;
    EXPECT_EQ(got[k].optimal_pic, want[k].optimal_pic)
        << context << " k=" << k << " p=" << got[k].p;
    EXPECT_EQ(got[k].partition.signature(), want[k].partition.signature())
        << context << " k=" << k << " p=" << got[k].p;
    EXPECT_EQ(got[k].measures.gain, want[k].measures.gain) << context;
    EXPECT_EQ(got[k].measures.loss, want[k].measures.loss) << context;
  }
}

Trace make_synthetic_trace(const Hierarchy& hierarchy, double span_s,
                           std::uint64_t seed) {
  const auto programmer = [span_s](LeafId leaf) {
    ResourceProgram p;
    const double split = span_s * 0.45;
    p.phases.push_back(
        {0.0, split,
         StatePattern{{{"compute", 0.04, 0.3}, {"send", 0.02, 0.4}}}});
    p.phases.push_back(
        {split, span_s,
         StatePattern{{{"compute", 0.05, 0.2},
                       {"wait", leaf % 3 == 0 ? 0.06 : 0.015, 0.5},
                       {"send", 0.02, 0.3}}}});
    return p;
  };
  return generate_trace(hierarchy, programmer, seed);
}

/// Lopsided tree: one deep narrow arm, one wide shallow arm, a lone leaf —
/// the frontier split has to cut subtrees of very different sizes.
Hierarchy make_irregular_hierarchy() {
  HierarchyBuilder b("root");
  const NodeId deep = b.add(0, "deep");
  const NodeId d0 = b.add(deep, "d0");
  const NodeId d00 = b.add(d0, "d00");
  b.add_many(d00, "dl", 5);
  b.add_many(d0, "dm", 2);
  const NodeId wide = b.add(0, "wide");
  b.add_many(wide, "wl", 9);
  b.add(0, "lone");
  return b.finish();
}

/// Re-shards a sealed store at S shards; returns the facade (which keeps
/// the plan alive through its shared_ptr).
std::shared_ptr<ShardedTraceStore> make_sharded(const Hierarchy& h,
                                                std::size_t shards,
                                                const TraceStore& source) {
  return std::make_shared<ShardedTraceStore>(
      h, std::make_shared<ShardPlan>(h, shards), source);
}

// --- ShardPlan ------------------------------------------------------------

void check_plan_invariants(const Hierarchy& h, std::size_t requested) {
  const ShardPlan plan(h, requested);
  const std::string ctx =
      "leaves=" + std::to_string(h.leaf_count()) +
      " requested=" + std::to_string(requested);
  ASSERT_NO_THROW(plan.audit()) << ctx;
  const std::size_t want =
      std::clamp<std::size_t>(requested, 1, h.leaf_count());
  EXPECT_EQ(plan.shard_count(), want) << ctx;
  EXPECT_EQ(plan.hierarchy(), &h) << ctx;

  // Leaf ranges partition [0, leaf_count) in order, none empty.
  LeafId expect_begin = 0;
  for (std::size_t k = 0; k < plan.shard_count(); ++k) {
    EXPECT_EQ(plan.leaf_begin(k), expect_begin) << ctx << " shard " << k;
    EXPECT_LT(plan.leaf_begin(k), plan.leaf_end(k)) << ctx << " shard " << k;
    for (LeafId leaf = plan.leaf_begin(k); leaf < plan.leaf_end(k); ++leaf) {
      EXPECT_EQ(plan.shard_of_leaf(leaf), k) << ctx << " leaf " << leaf;
    }
    expect_begin = plan.leaf_end(k);
  }
  EXPECT_EQ(static_cast<std::size_t>(expect_begin), h.leaf_count()) << ctx;

  // Ownership == leaf-interval containment; spine == boundary-crossing.
  // Owned children inherit their parent's shard (the fold partition's
  // no-cross-shard-reads guarantee).
  std::size_t owned_total = 0;
  for (std::size_t k = 0; k < plan.shard_count(); ++k) {
    owned_total += plan.owned_nodes(k).size();
    for (const NodeId id : plan.owned_nodes(k)) {
      EXPECT_EQ(plan.shard_of_node(id), static_cast<std::int32_t>(k)) << ctx;
      for (const NodeId child : h.node(id).children) {
        EXPECT_EQ(plan.shard_of_node(child), static_cast<std::int32_t>(k))
            << ctx << " child of node " << id;
      }
    }
  }
  for (const NodeId id : plan.spine_nodes()) {
    EXPECT_EQ(plan.shard_of_node(id), ShardPlan::kSpine) << ctx;
    const auto& n = h.node(id);
    const std::size_t first = plan.shard_of_leaf(n.first_leaf);
    const std::size_t last = plan.shard_of_leaf(
        static_cast<LeafId>(n.first_leaf + n.leaf_count - 1));
    EXPECT_NE(first, last) << ctx << " spine node " << id
                           << " fits one shard";
  }
  EXPECT_EQ(owned_total + plan.spine_nodes().size(), h.node_count()) << ctx;
  // S = 1 degenerates to the monolithic fold: everything owned, no spine.
  if (plan.shard_count() == 1) {
    EXPECT_TRUE(plan.spine_nodes().empty()) << ctx;
    EXPECT_EQ(plan.owned_nodes(0).size(), h.node_count()) << ctx;
  }
}

TEST(ShardPlan, InvariantsAcrossHierarchiesAndShardCounts) {
  const Hierarchy balanced = make_balanced_hierarchy(2, 4);   // 16 leaves
  const Hierarchy deep = make_balanced_hierarchy(3, 3);       // 27 leaves
  const Hierarchy irregular = make_irregular_hierarchy();     // 17 leaves
  const Hierarchy flat = make_flat_hierarchy(6);
  for (const Hierarchy* h : {&balanced, &deep, &irregular, &flat}) {
    for (const std::size_t s : kShardCounts) {
      check_plan_invariants(*h, s);
    }
    check_plan_invariants(*h, 0);                  // clamps to 1
    check_plan_invariants(*h, h->leaf_count());    // one leaf per shard
    check_plan_invariants(*h, h->leaf_count() + 5);  // clamps down
  }
}

// --- Partitioned cube/cache fold ------------------------------------------

TEST(ShardPlan, PartitionedAggregationBitIdenticalToFlat) {
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace trace = make_synthetic_trace(h, 20.0, 0xABCD);
  trace.seal();
  ModelBuildOptions build;
  build.slice_count = 24;
  const MicroscopicModel model = build_model(trace, h, build);
  const std::vector<double> ps = {0.0, 0.25, 0.5, 1.0};

  AggregationOptions ref_opt;
  ref_opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator reference(model, ref_opt);
  const auto want = reference.run_many(ps);

  for (const std::size_t s : kShardCounts) {
    const ShardPlan plan(h, s);
    for (const std::size_t lanes : {1u, 4u}) {
      AggregationOptions opt;
      opt.shard_plan = &plan;
      opt.max_lanes = lanes;
      SpatiotemporalAggregator sharded(model, opt);
      expect_results_equal(sharded.run_many(ps), want,
                           "S=" + std::to_string(s) +
                               " W=" + std::to_string(lanes));
    }
  }
}

// --- ShardedTraceStore ----------------------------------------------------

TEST(ShardedStore, ReshardPreservesTablesRoutesAndWindow) {
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace trace = make_synthetic_trace(h, 12.0, 0x7117);
  trace.seal();
  const TraceStore& source = *trace.store();
  for (const std::size_t s : kShardCounts) {
    const auto sharded = make_sharded(h, s, source);
    ASSERT_NO_THROW(sharded->audit()) << "S=" << s;
    ASSERT_EQ(sharded->resource_count(), source.resource_count());
    for (std::size_t r = 0; r < source.resource_count(); ++r) {
      const auto id = static_cast<ResourceId>(r);
      EXPECT_EQ(sharded->resource_path(id), source.resource_path(id));
      EXPECT_EQ(sharded->find_resource(source.resource_path(id)), id);
      // Leaf-path resources route by the plan, and every global id maps
      // to a live lane of its owning shard.
      const auto route = sharded->route(id);
      EXPECT_EQ(route.shard,
                sharded->plan().shard_of_leaf(static_cast<LeafId>(r)));
      EXPECT_LT(static_cast<std::size_t>(route.local),
                sharded->shard(route.shard).resource_count());
    }
    EXPECT_TRUE(sharded->states() == source.states()) << "S=" << s;
    EXPECT_TRUE(sharded->tails_sealed());
    EXPECT_EQ(sharded->begin(), source.begin());
    EXPECT_EQ(sharded->end(), source.end());
    EXPECT_EQ(sharded->state_count(), source.state_count());
  }
  EXPECT_THROW(ShardedTraceStore(h, nullptr, source), InvalidArgument);
}

/// Drives a monolithic store and an S-shard facade through the same
/// seeded history of ingest / seal / evict / compress / spill rounds and
/// asserts the model fold over every surviving window is bit-identical.
void run_randomized_history(std::size_t shards, std::uint64_t seed) {
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  const auto n_leaves = static_cast<ResourceId>(h.leaf_count());
  const std::string spill =
      "test_shard_history_s" + std::to_string(shards) + ".spill";
  for (std::size_t k = 0; k < shards; ++k) {
    std::remove((shards == 1 ? spill : spill + ".s" + std::to_string(k))
                    .c_str());
  }

  auto mono = std::make_shared<TraceStore>();
  auto sharded = std::make_shared<ShardedTraceStore>(
      h, std::make_shared<ShardPlan>(h, shards));
  ASSERT_EQ(sharded->shard_count(), shards);
  for (LeafId leaf = 0; leaf < static_cast<LeafId>(h.leaf_count()); ++leaf) {
    const std::string path = h.path(h.leaf_node(leaf));
    ASSERT_EQ(mono->add_resource(path), static_cast<ResourceId>(leaf));
    ASSERT_EQ(sharded->add_resource(path), static_cast<ResourceId>(leaf));
  }
  for (const char* name : {"compute", "send", "wait"}) {
    ASSERT_EQ(static_cast<std::size_t>(sharded->intern_state(name)),
              static_cast<std::size_t>(mono->states().intern(name)));
  }
  sharded->enable_spill(spill);

  std::uint64_t rng = seed;
  const auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };

  TimeNs now = 0;
  TimeNs horizon = 0;  // highest evict cutoff so far; windows start here
  for (int round = 0; round < 8; ++round) {
    // Ingest a burst: mono appends serially, the facade buckets the same
    // batch per shard and appends in parallel.
    std::vector<EventRecord> batch;
    const std::size_t events = 40 + next() % 80;
    for (std::size_t e = 0; e < events; ++e) {
      EventRecord rec;
      rec.resource = static_cast<ResourceId>(next() % n_leaves);
      rec.state = static_cast<StateId>(next() % 3);
      rec.begin = now + static_cast<TimeNs>(next() % seconds(2.0));
      rec.end = rec.begin + 1 + static_cast<TimeNs>(next() % seconds(0.5));
      batch.push_back(rec);
    }
    now += seconds(2.0);
    for (const EventRecord& rec : batch) {
      mono->add_state(rec.resource, rec.state, rec.begin, rec.end);
    }
    sharded->ingest(batch);
    mono->seal_chunk();
    sharded->seal_chunk();

    switch (round % 4) {
      case 1: {  // fence eviction below a cutoff both stores share
        horizon = std::max<TimeNs>(horizon, now - seconds(3.0));
        mono->evict_before(horizon);
        sharded->evict_before(horizon);
        break;
      }
      case 2: {  // re-encode sealed chunks (kAuto round-trips via views)
        const ChunkCompression policy = round < 4 ? ChunkCompression::kAuto
                                                  : ChunkCompression::kNone;
        mono->set_compression(policy);
        sharded->set_compression(policy);
        break;
      }
      case 3: {  // spill the facade cold (results must not care)
        const std::size_t resident = sharded->resident_chunk_bytes();
        (void)sharded->spill_cold(resident / 2);
        const auto split = sharded->last_spill_split();
        const std::size_t sum =
            std::accumulate(split.begin(), split.end(), std::size_t{0});
        EXPECT_LE(sum, sharded->last_spill_budget()) << "round " << round;
        break;
      }
      default:
        break;
    }
    ASSERT_NO_THROW(sharded->audit()) << "round " << round;
    // begin() may legitimately differ after eviction (chunk granularity
    // differs, so different sub-horizon prefixes get unlinked); end() is
    // the max over live tails and must agree.
    EXPECT_EQ(sharded->end(), mono->end()) << "round " << round;

    // The oracle: fold a window over both stores and compare every
    // (leaf, slice, state) duration bit for bit.
    const TimeNs w_end = std::max<TimeNs>(now, horizon + 16);
    ModelBuildOptions build;
    build.slice_count = 16;
    build.window_begin = horizon;
    build.window_end = w_end;
    const MicroscopicModel want =
        build_model(TraceView(mono, horizon, w_end), h, build);
    const MicroscopicModel got =
        build_model(TraceView(sharded, horizon, w_end), h, build);
    ASSERT_EQ(got.slice_count(), want.slice_count());
    ASSERT_EQ(got.state_count(), want.state_count());
    for (LeafId leaf = 0; leaf < n_leaves; ++leaf) {
      for (SliceId t = 0; t < want.slice_count(); ++t) {
        for (StateId x = 0; x < want.state_count(); ++x) {
          ASSERT_EQ(got.duration(leaf, t, x), want.duration(leaf, t, x))
              << "round " << round << " leaf " << leaf << " t " << t
              << " x " << x;
        }
      }
    }
  }
  sharded.reset();
  for (std::size_t k = 0; k < shards; ++k) {
    std::remove((shards == 1 ? spill : spill + ".s" + std::to_string(k))
                    .c_str());
  }
}

TEST(ShardedStore, RandomizedHistoryFoldsBitIdenticalS1) {
  run_randomized_history(1, 0x51);
}
TEST(ShardedStore, RandomizedHistoryFoldsBitIdenticalS3) {
  run_randomized_history(3, 0x53);
}
TEST(ShardedStore, RandomizedHistoryFoldsBitIdenticalS4) {
  run_randomized_history(4, 0x54);
}

// --- Sessions over shards -------------------------------------------------

TEST(ShardedSession, BitIdenticalToMonolithicAcrossShardCountsAndLanes) {
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace trace = make_synthetic_trace(h, 30.0, 0xBEEF);
  trace.seal();
  const TimeGrid window(0, seconds(16.0), 16);
  const std::vector<double> ps = {0.25, 0.6};

  for (const std::size_t lanes : {1u, 4u}) {
    SlidingWindowOptions opt;
    opt.aggregation.max_lanes = lanes;
    for (const std::size_t s : kShardCounts) {
      const std::string ctx =
          "S=" + std::to_string(s) + " W=" + std::to_string(lanes);
      // Fresh monolithic reference per shard count — one TraceStore
      // wrapped as the single shard of a facade: both sides run the
      // identical slide/extend/contract chain from the same start.
      auto mono_store = std::make_shared<TraceStore>(*trace.store());
      mono_store->seal_chunk();
      SlidingWindowSession mono(
          h, std::make_shared<ShardedTraceStore>(h, mono_store), window, ps,
          opt);
      EXPECT_EQ(&mono.store(), mono_store.get());
      EXPECT_EQ(mono.aggregator().options().shard_plan, nullptr);
      const auto sharded = make_sharded(h, s, *trace.store());
      SlidingWindowSession session(h, sharded, window, ps, opt);
      EXPECT_THROW(session.append(0, StateId{0}, 0, 1), InvalidArgument)
          << "a session over a ShardedTraceStore is shared";
      EXPECT_EQ(session.sharded_store_ptr().get(), sharded.get());
      // Multi-shard stores lend the session their plan; one shard keeps
      // the flat cube fold and cache schedule.
      EXPECT_EQ(session.aggregator().options().shard_plan,
                sharded->shard_count() > 1 ? &sharded->plan() : nullptr);
      expect_results_equal(session.results(), mono.results(),
                           ctx + " initial");
      session.slide(3);
      mono.slide(3);
      expect_results_equal(session.results(), mono.results(), ctx + " slide");
      session.extend(2);
      mono.extend(2);
      expect_results_equal(session.results(), mono.results(),
                           ctx + " extend");
      session.contract(1);
      mono.contract(1);
      expect_results_equal(session.results(), mono.results(),
                           ctx + " contract");
      session.slide(2);
      mono.slide(2);
      expect_results_equal(session.results(), mono.results(),
                           ctx + " slide 2");
      expect_results_equal(session.results(),
                           session.run_from_scratch(DpKernel::kReference),
                           ctx + " vs kReference");
    }
  }
}

/// The PR 4 lockstep oracle, sharded edition: a SessionManager over an
/// S-shard store vs private-copy sessions, with live central ingest, a
/// scoped session, and the from-scratch reference oracles.
void run_sharded_lockstep(std::size_t shards, std::size_t lanes) {
  const std::int32_t fanout = 4;
  const Hierarchy full = make_balanced_hierarchy(2, fanout);  // 16 leaves
  HierarchyBuilder scope_b("root");
  const NodeId c = scope_b.add(0, "n0_0");
  scope_b.add_many(c, "n1_", fanout);
  const Hierarchy scope = scope_b.finish();

  Trace whole = make_synthetic_trace(full, 40.0, 0x5E55);
  whole.seal();
  const auto all = static_cast<ResourceId>(whole.resource_count());
  const TimeNs horizon = seconds(22.0);
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = lanes;

  struct Spec {
    TimeGrid window;
    std::vector<double> ps;
    const Hierarchy* hierarchy;
    ResourceId scope_resources;
  };
  const std::vector<Spec> specs = {
      {TimeGrid(0, seconds(20.0), 20), {0.25, 0.5, 0.75}, nullptr, 0},
      {TimeGrid(seconds(4.0), seconds(20.0), 16), {0.0, 0.37, 1.0}, nullptr,
       0},
      {TimeGrid(0, seconds(16.0), 16), {0.6, 0.2}, &scope, fanout},
  };

  // Sharded side: one facade, one manager, N sessions.
  TraceSplit shared_split = split_trace_at(whole, horizon);
  shared_split.initial.seal();
  SessionManager manager(
      full, make_sharded(full, shards, *shared_split.initial.store()));
  ASSERT_NE(manager.sharded_store(), nullptr);
  ASSERT_EQ(manager.sharded_store()->shard_count(), shards);
  for (const Spec& spec : specs) {
    SessionSpec s;
    s.window = spec.window;
    s.ps = spec.ps;
    s.hierarchy = spec.hierarchy;
    s.options = opt;
    manager.add_session(s);
  }
  ASSERT_NO_THROW(manager.audit());

  // Private side: every session owns an exclusive copy of its events.
  std::vector<std::unique_ptr<SlidingWindowSession>> private_sessions;
  std::vector<ResourceId> private_scope;
  for (const Spec& spec : specs) {
    const ResourceId n = spec.scope_resources > 0 ? spec.scope_resources : all;
    TraceSplit ps = split_trace_at(whole, horizon, n);
    const Hierarchy& sh = spec.hierarchy != nullptr ? *spec.hierarchy : full;
    private_sessions.push_back(std::make_unique<SlidingWindowSession>(
        sh, std::move(ps.initial), spec.window, spec.ps, opt));
    private_scope.push_back(n);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_results_equal(manager.session(i).results(),
                         private_sessions[i]->results(),
                         "initial session " + std::to_string(i));
  }

  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next = 0;
  const std::array<std::int32_t, 3> slides = {1, 2, 2};
  TimeNs delivered_to = horizon;
  for (std::size_t round = 0; round < slides.size(); ++round) {
    delivered_to += seconds(3.0);
    std::vector<EventRecord> batch;
    for (; next < stream.future.size() &&
           stream.future[next].second.begin < delivered_to;
         ++next) {
      const auto& [r, s] = stream.future[next];
      batch.push_back({r, s.state, s.begin, s.end});
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (r < private_scope[i]) {
          private_sessions[i]->append(r, s.state, s.begin, s.end);
        }
      }
    }
    manager.ingest(batch);  // the facade's bucketed parallel append
    manager.slide_all(slides[round]);
    ASSERT_NO_THROW(manager.audit()) << "round " << round;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      private_sessions[i]->slide(slides[round]);
      const std::string ctx = "S=" + std::to_string(shards) + " round " +
                              std::to_string(round) + " session " +
                              std::to_string(i);
      expect_results_equal(manager.session(i).results(),
                           private_sessions[i]->results(), ctx);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_results_equal(
        manager.session(i).results(),
        manager.session(i).run_from_scratch(DpKernel::kReference),
        "final session " + std::to_string(i) + " vs kReference");
    expect_results_equal(
        manager.session(i).results(),
        manager.session(i).run_from_scratch(DpKernel::kCachedSolo),
        "final session " + std::to_string(i) + " vs kCachedSolo");
  }
}

TEST(ShardedManager, LockstepOracleS1W4) { run_sharded_lockstep(1, 4); }
TEST(ShardedManager, LockstepOracleS2W1) { run_sharded_lockstep(2, 1); }
TEST(ShardedManager, LockstepOracleS3W4) { run_sharded_lockstep(3, 4); }
TEST(ShardedManager, LockstepOracleS4W4) { run_sharded_lockstep(4, 4); }
TEST(ShardedManager, LockstepOracleS7W1) { run_sharded_lockstep(7, 1); }

TEST(ShardedManager, MemoryBudgetSplitHoldsGlobalCapEveryRound) {
  // The satellite fix: set_memory_budget over shards must keep the ONE
  // global cap holding after every round, with the per-shard split
  // proportional to resident bytes and never summing past the budget.
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace whole = make_synthetic_trace(h, 40.0, 0x5B11);
  whole.seal();
  const TimeNs horizon = seconds(22.0);
  const std::string spill = "test_shard_budget.spill";
  const std::size_t shards = 4;
  for (std::size_t k = 0; k < shards; ++k) {
    std::remove((spill + ".s" + std::to_string(k)).c_str());
  }

  const auto make_manager = [&](std::size_t budget_divisor) {
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    auto manager = std::make_unique<SessionManager>(
        h, make_sharded(h, shards, *split.initial.store()));
    if (budget_divisor != 0) {
      manager->set_memory_budget(manager->store_bytes() / budget_divisor,
                                 spill);
    }
    for (int i = 0; i < 2; ++i) {
      SessionSpec spec;
      spec.window =
          TimeGrid(seconds(2.0 * i), seconds(2.0 * i + 16.0), 16 + 4 * i);
      spec.ps = {0.3, 0.7};
      manager->add_session(spec);
    }
    return manager;
  };

  auto resident = make_manager(0);
  auto budgeted = make_manager(4);
  const std::size_t budget = budgeted->memory_budget();
  ASSERT_GT(budget, 0u);
  EXPECT_LE(budgeted->resident_chunk_bytes(), budget);

  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next = 0;
  for (int round = 0; round < 4; ++round) {
    const TimeNs frontier = horizon + seconds(3.0 * (round + 1));
    std::vector<EventRecord> batch;
    for (; next < stream.future.size() &&
           stream.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, s] = stream.future[next];
      batch.push_back({r, s.state, s.begin, s.end});
    }
    resident->ingest(batch);
    budgeted->ingest(batch);
    resident->slide_all(1);
    budgeted->slide_all(1);
    // The global cap holds over the *sum* of shard residents...
    EXPECT_LE(budgeted->resident_chunk_bytes(), budget) << "round " << round;
    // ...and the split accounting backs it: floor shares never sum past
    // the budget they enforced.
    const auto split_shares = budgeted->sharded_store()->last_spill_split();
    ASSERT_EQ(split_shares.size(), shards) << "round " << round;
    ASSERT_NO_THROW(budgeted->audit()) << "round " << round;
    for (std::size_t i = 0; i < budgeted->session_count(); ++i) {
      expect_results_equal(budgeted->session(i).results(),
                           resident->session(i).results(),
                           "round " + std::to_string(round) + " session " +
                               std::to_string(i));
    }
  }
  EXPECT_GT(budgeted->sharded_store()->spilled_chunk_bytes(), 0u);
  for (std::size_t i = 0; i < budgeted->session_count(); ++i) {
    expect_results_equal(
        budgeted->session(i).results(),
        budgeted->session(i).run_from_scratch(DpKernel::kReference),
        "final budgeted session " + std::to_string(i));
  }
  budgeted.reset();
  resident.reset();
  for (std::size_t k = 0; k < shards; ++k) {
    std::remove((spill + ".s" + std::to_string(k)).c_str());
  }
}

TEST(ShardedManager, PipelineAffinityBitIdenticalToSynchronousRounds) {
  // The staged pipeline over a sharded manager (parse-shard -> store-shard
  // affinity) must match the synchronous ingest_round path bit for bit.
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace whole = make_synthetic_trace(h, 36.0, 0xF00D);
  whole.seal();
  const TimeNs horizon = seconds(20.0);
  const std::size_t shards = 3;

  const auto make_manager = [&] {
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    auto manager = std::make_unique<SessionManager>(
        h, make_sharded(h, shards, *split.initial.store()));
    SessionSpec spec;
    spec.window = TimeGrid(0, seconds(18.0), 18);
    spec.ps = {0.3, 0.7};
    manager->add_session(spec);
    return manager;
  };

  auto sync_mgr = make_manager();
  auto piped_mgr = make_manager();
  IngestPipelineOptions popt;
  popt.parse_workers = 4;
  IngestPipeline pipeline(*piped_mgr, popt);

  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next_a = 0;
  std::size_t next_b = 0;
  for (int round = 0; round < 3; ++round) {
    const TimeNs frontier = horizon + seconds(4.0 * (round + 1));
    std::vector<EventRecord> batch;
    for (; next_a < stream.future.size() &&
           stream.future[next_a].second.begin < frontier;
         ++next_a) {
      const auto& [r, s] = stream.future[next_a];
      batch.push_back({r, s.state, s.begin, s.end});
    }
    for (; next_b < stream.future.size() &&
           stream.future[next_b].second.begin < frontier;
         ++next_b) {
      const auto& [r, s] = stream.future[next_b];
      sync_mgr->append(r, s.state, s.begin, s.end);
    }
    pipeline.submit_records(std::move(batch));
    pipeline.advance_watermark(frontier);
    pipeline.wait_until_advanced(frontier);
    sync_mgr->ingest_round(frontier);
    expect_results_equal(piped_mgr->session(0).results(),
                         sync_mgr->session(0).results(),
                         "round " + std::to_string(round));
  }
  pipeline.close();
  ASSERT_NO_THROW(piped_mgr->audit());
}

TEST(ShardedManager, TraceStoreCtorWrapsTheCallersStore) {
  // The TraceStore ctor makes the caller's object shard 0 of a one-shard
  // facade: no copy, and its spill file, codec policy, set window and
  // eviction horizon stay in force.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 20.0, 0x3A9);
  whole.seal();
  const auto store = std::make_shared<TraceStore>(*whole.store());
  const std::string spill = "test_shard_wrap.spill";
  std::remove(spill.c_str());
  store->enable_spill(spill);
  store->set_compression(ChunkCompression::kAuto);
  store->evict_before(seconds(2.0));
  store->set_window(seconds(2.0), seconds(20.0));
  const TraceChunkPtr first_chunk = store->chunks(0).front();
  {
    SessionManager manager(h, store);
    const ShardedTraceStore& facade = *manager.sharded_store();
    ASSERT_EQ(facade.shard_count(), 1u);
    EXPECT_EQ(facade.shard_ptr(0), store);
    EXPECT_EQ(manager.store_ptr(), store);
    EXPECT_EQ(&manager.store(), store.get());
    EXPECT_EQ(store->chunks(0).front(), first_chunk) << "no chunk re-linked";
    EXPECT_EQ(manager.compression(), ChunkCompression::kAuto);
    EXPECT_TRUE(facade.spill_enabled());
    EXPECT_EQ(facade.evict_horizon(), seconds(2.0));
    EXPECT_EQ(facade.begin(), seconds(2.0));
    EXPECT_EQ(manager.watermark(), seconds(20.0));
    ASSERT_EQ(manager.resource_count(), store->resource_count());
    for (std::size_t r = 0; r < store->resource_count(); ++r) {
      const auto id = static_cast<ResourceId>(r);
      EXPECT_EQ(manager.resource_path(id), store->resource_path(id));
      EXPECT_EQ(facade.find_resource(store->resource_path(id)), id);
    }
    SessionSpec spec;
    spec.window = TimeGrid(seconds(4.0), seconds(16.0), 12);
    spec.ps = {0.4};
    manager.add_session(spec);
    EXPECT_EQ(manager.session(0).store_ptr(), store);
    ASSERT_NO_THROW(manager.audit());
  }
  std::remove(spill.c_str());
}

/// A store holding no interval yet but a set window [b, e) is a complete
/// (empty) recorded prefix: the watermark starts at e, at every S.
void run_empty_windowed_store(std::size_t shards) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 18.0, 0xE3 + shards);
  whole.seal();
  const TimeNs b = seconds(2.0);
  const TimeNs e = seconds(10.0);
  TraceSplit split = split_trace_at(whole, 0);  // empty initial trace
  ASSERT_EQ(split.initial.store()->state_count(), 0u);
  std::unique_ptr<SessionManager> manager;
  if (shards == 1) {
    split.initial.store()->set_window(b, e);
    manager = std::make_unique<SessionManager>(h, split.initial.store());
  } else {
    split.initial.seal();
    const auto sharded = make_sharded(h, shards, *split.initial.store());
    sharded->set_window(b, e);
    manager = std::make_unique<SessionManager>(h, sharded);
  }
  const std::string ctx = "S=" + std::to_string(shards);
  ASSERT_EQ(manager->sharded_store()->shard_count(), shards) << ctx;
  EXPECT_EQ(manager->sharded_store()->begin(), b) << ctx;
  EXPECT_EQ(manager->sharded_store()->end(), e) << ctx;
  EXPECT_EQ(manager->watermark(), e) << ctx;
  SessionSpec spec;
  spec.window = TimeGrid(b, e, 8);
  spec.ps = {0.3, 0.7};
  manager->add_session(spec);
  ASSERT_NO_THROW(manager->advance_to_watermark(e)) << ctx;

  // Live events then arrive and the window slides over them.
  std::size_t next = 0;
  for (TimeNs frontier = e + seconds(2.0); frontier <= seconds(18.0);
       frontier += seconds(2.0)) {
    for (; next < split.future.size() &&
           split.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, st] = split.future[next];
      manager->append(r, st.state, st.begin, st.end);
    }
    manager->ingest_round(frontier);
    expect_results_equal(
        manager->session(0).results(),
        manager->session(0).run_from_scratch(DpKernel::kReference),
        ctx + " frontier " + std::to_string(frontier));
  }
  EXPECT_EQ(manager->session(0).window().end(), seconds(18.0)) << ctx;
  ASSERT_NO_THROW(manager->audit()) << ctx;
}

TEST(ShardedManager, EmptyWindowedStoreStartsAtItsWindowEndS1) {
  run_empty_windowed_store(1);
}
TEST(ShardedManager, EmptyWindowedStoreStartsAtItsWindowEndS3) {
  run_empty_windowed_store(3);
}

TEST(ShardedManager, RejectsMismatchedHierarchy) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const Hierarchy other = make_balanced_hierarchy(2, 3);
  auto sharded = std::make_shared<ShardedTraceStore>(
      h, std::make_shared<ShardPlan>(h, 2));
  EXPECT_THROW(SessionManager(other, std::move(sharded)), InvalidArgument);
  EXPECT_THROW(SessionManager(h, std::shared_ptr<ShardedTraceStore>{}),
               InvalidArgument);
}

}  // namespace
}  // namespace stagg
