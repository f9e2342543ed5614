// SessionManager suite: N concurrent sliding-window sessions over ONE
// shared immutable TraceStore must be *bit-identical* — at every advance,
// at every lane width — to N sessions each owning a private copy of the
// trace, and to from-scratch runs of the kReference oracle and of the
// production kernel.
//
// The sessions deliberately differ in window placement, slice count,
// probe set and hierarchy scope, and the store is mutated under them
// (central ingest, sealing, fence eviction) while they advance in
// parallel on the shared pool.
#include "core/session_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/aggregator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "trace/trace.hpp"
#include "workload/stream_split.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

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
    EXPECT_EQ(got[k].measures.gain, want[k].measures.gain)
        << context << " k=" << k;
    EXPECT_EQ(got[k].measures.loss, want[k].measures.loss)
        << context << " k=" << k;
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

/// Sub-hierarchy covering the first cluster (leaves 0..fanout-1) of a
/// make_balanced_hierarchy(2, fanout) platform, with identical leaf paths.
Hierarchy make_first_cluster_scope(std::int32_t fanout) {
  HierarchyBuilder b("root");
  const NodeId c = b.add(0, "n0_0");
  b.add_many(c, "n1_", fanout);
  return b.finish();
}

struct OracleSpec {
  TimeGrid window;
  std::vector<double> ps;
  const Hierarchy* hierarchy = nullptr;  ///< nullptr = full platform
  ResourceId scope_resources = 0;        ///< 0 = all resources
};

/// The acceptance drill: N shared-store sessions under one manager vs N
/// private-copy sessions, advanced in lockstep with live ingest, compared
/// bit-identically at every step and against the reference oracles.
void run_lockstep_oracle(std::size_t lanes) {
  const std::int32_t fanout = 4;
  const Hierarchy full = make_balanced_hierarchy(2, fanout);  // 16 leaves
  const Hierarchy scope = make_first_cluster_scope(fanout);   // 4 leaves
  const double span_s = 40.0;
  Trace whole = make_synthetic_trace(full, span_s, 0x5E55);
  whole.seal();
  const auto all = static_cast<ResourceId>(whole.resource_count());

  const TimeNs horizon = seconds(22.0);
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = lanes;

  const std::vector<OracleSpec> specs = {
      {TimeGrid(0, seconds(20.0), 20), {0.25, 0.5, 0.75}, nullptr, 0},
      {TimeGrid(0, seconds(18.0), 36), {0.5}, nullptr, 0},
      {TimeGrid(seconds(4.0), seconds(20.0), 16), {0.0, 0.37, 1.0}, nullptr,
       0},
      {TimeGrid(0, seconds(16.0), 16), {0.6, 0.2}, &scope, fanout},
  };

  // Shared side: one store, one manager, N sessions.
  TraceSplit shared_split = split_trace_at(whole, horizon);
  shared_split.initial.seal();
  SessionManager manager(full, shared_split.initial.store());
  for (const OracleSpec& spec : specs) {
    SessionSpec s;
    s.window = spec.window;
    s.ps = spec.ps;
    s.hierarchy = spec.hierarchy;
    s.options = opt;
    manager.add_session(s);
  }
  ASSERT_EQ(manager.session_count(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(manager.session(i).store_ptr().get(), &manager.store())
        << "session " << i << " must read the shared store";
  }

  // Private side: every session owns an exclusive copy of its events.
  std::vector<std::unique_ptr<SlidingWindowSession>> private_sessions;
  std::vector<ResourceId> private_scope;  // resource count per session
  for (const OracleSpec& spec : specs) {
    const ResourceId n = spec.scope_resources > 0 ? spec.scope_resources : all;
    TraceSplit ps = split_trace_at(whole, horizon, n);
    const Hierarchy& h = spec.hierarchy != nullptr ? *spec.hierarchy : full;
    private_sessions.push_back(std::make_unique<SlidingWindowSession>(
        h, std::move(ps.initial), spec.window, spec.ps, opt));
    private_scope.push_back(n);
  }

  // Initial windows must already agree.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_results_equal(manager.session(i).results(),
                         private_sessions[i]->results(),
                         "initial session " + std::to_string(i));
  }

  // Lockstep: deliver the stream in bursts, slide everyone, compare.
  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next = 0;
  const std::array<std::int32_t, 4> slides = {1, 2, 1, 3};
  TimeNs delivered_to = horizon;
  for (std::size_t round = 0; round < slides.size(); ++round) {
    delivered_to += seconds(3.0);
    for (; next < stream.future.size() &&
           stream.future[next].second.begin < delivered_to;
         ++next) {
      const auto& [r, s] = stream.future[next];
      manager.append(r, s.state, s.begin, s.end);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (r < private_scope[i]) {
          private_sessions[i]->append(r, s.state, s.begin, s.end);
        }
      }
    }
    manager.slide_all(slides[round]);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      private_sessions[i]->slide(slides[round]);
      const std::string ctx =
          "round " + std::to_string(round) + " session " + std::to_string(i);
      expect_results_equal(manager.session(i).results(),
                           private_sessions[i]->results(), ctx);
      expect_results_equal(manager.session(i).results(),
                           manager.session(i).run_from_scratch(),
                           ctx + " vs from-scratch");
    }
  }

  // Final cross-check against the primary reference oracle.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_results_equal(
        manager.session(i).results(),
        manager.session(i).run_from_scratch(DpKernel::kReference),
        "final session " + std::to_string(i) + " vs kReference");
  }
}

TEST(SessionManager, SharedStoreBitIdenticalToPrivateCopiesW1) {
  run_lockstep_oracle(/*lanes=*/1);
}

TEST(SessionManager, SharedStoreBitIdenticalToPrivateCopiesW4) {
  run_lockstep_oracle(/*lanes=*/4);
}

TEST(SessionManager, AdvanceToPacesDifferentSliceWidthsFromOneStream) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 30.0, 0xA11);
  whole.seal();
  TraceSplit split = split_trace_at(whole, seconds(13.0));
  split.initial.seal();

  SessionManager manager(h, split.initial.store());
  SessionSpec fast;  // 0.5 s slices
  fast.window = TimeGrid(0, seconds(12.0), 24);
  fast.ps = {0.5};
  SessionSpec slow;  // 2 s slices
  slow.window = TimeGrid(0, seconds(12.0), 6);
  slow.ps = {0.25, 0.75};
  manager.add_session(fast);
  manager.add_session(slow);

  std::size_t next = 0;
  for (TimeNs frontier = seconds(15.0); frontier <= seconds(21.0);
       frontier += seconds(3.0)) {
    for (; next < split.future.size() &&
           split.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, s] = split.future[next];
      manager.append(r, s.state, s.begin, s.end);
    }
    manager.advance_to(frontier);
    // Both windows end within one slice of the frontier and stay exact.
    for (std::size_t i = 0; i < manager.session_count(); ++i) {
      const TimeGrid& w = manager.session(i).window();
      EXPECT_LE(w.end(), frontier) << "session " << i;
      EXPECT_GT(w.end() + w.uniform_dt_ns(), frontier) << "session " << i;
      expect_results_equal(
          manager.session(i).results(),
          manager.session(i).run_from_scratch(DpKernel::kReference),
          "frontier " + std::to_string(frontier) + " session " +
              std::to_string(i));
    }
  }
}

TEST(SessionManager, CentralEvictionKeepsEverySessionExact) {
  // Sessions with very different lags: eviction must respect the slowest.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 36.0, 0xE71C);
  whole.seal();
  TraceSplit split = split_trace_at(whole, seconds(17.0));
  split.initial.seal();

  SessionManager manager(h, split.initial.store());
  SessionSpec shortw;
  shortw.window = TimeGrid(seconds(12.0), seconds(16.0), 8);
  shortw.ps = {0.5};
  SessionSpec longw;
  longw.window = TimeGrid(0, seconds(16.0), 16);
  longw.ps = {0.5};
  manager.add_session(shortw);
  manager.add_session(longw);

  const std::size_t chunks_before = manager.store().state_count();
  std::size_t next = 0;
  for (int round = 0; round < 4; ++round) {
    const TimeNs frontier =
        manager.session(0).window().end() + seconds(1.0);
    for (; next < split.future.size() &&
           split.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, s] = split.future[next];
      manager.append(r, s.state, s.begin, s.end);
    }
    manager.slide_all(2);
    for (std::size_t i = 0; i < manager.session_count(); ++i) {
      expect_results_equal(
          manager.session(i).results(), manager.session(i).run_from_scratch(),
          "round " + std::to_string(round) + " session " +
              std::to_string(i));
    }
  }
  // Eviction happened below the long window's begin only — the store
  // never grew past "everything the slowest session can still read".
  EXPECT_GT(manager.store().state_count(), 0u);
  (void)chunks_before;
}

TEST(SessionManager, LateSessionBehindEvictionHorizonIsRejected) {
  // After eviction has moved the horizon forward, a session whose window
  // reaches back past it must be rejected loudly — it would silently
  // aggregate over unlinked chunks otherwise.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 30.0, 0x99);
  whole.seal();
  TraceSplit split = split_trace_at(whole, seconds(14.0));
  split.initial.seal();

  SessionManager manager(h, split.initial.store());
  SessionSpec spec;
  spec.window = TimeGrid(seconds(4.0), seconds(12.0), 8);
  spec.ps = {0.5};
  manager.add_session(spec);
  std::size_t next = 0;
  for (int round = 0; round < 3; ++round) {
    const TimeNs frontier = manager.session(0).window().end() + seconds(1.0);
    for (; next < split.future.size() &&
           split.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, s] = split.future[next];
      manager.append(r, s.state, s.begin, s.end);
    }
    manager.slide_all(1);
  }
  ASSERT_GT(manager.store().evict_horizon(), 0);

  SessionSpec late;
  late.window = TimeGrid(0, seconds(8.0), 8);  // reaches before the horizon
  late.ps = {0.5};
  EXPECT_THROW(manager.add_session(late), InvalidArgument);

  // At or past the horizon a late session is fine — and exact.
  SessionSpec ok;
  const TimeNs begin = manager.session(0).window().begin();
  ok.window = TimeGrid(begin, begin + seconds(6.0), 6);
  ok.ps = {0.5};
  const std::size_t id = manager.add_session(ok);
  expect_results_equal(
      manager.session(id).results(),
      manager.session(id).run_from_scratch(DpKernel::kReference),
      "late session at the horizon");
}

TEST(SessionManager, MemoryBudgetSpillsColdChunksBitIdentically) {
  // A budgeted manager must hold resident chunk bytes at or under the
  // budget after every advance while producing, round for round, the same
  // bits as an unbudgeted manager over the same stream.
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace whole = make_synthetic_trace(h, 40.0, 0x5B11);
  whole.seal();
  const TimeNs horizon = seconds(22.0);
  const std::string spill = "test_session_manager_budget.spill";
  std::remove(spill.c_str());

  const auto make_manager = [&](std::size_t budget_divisor) {
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    auto manager =
        std::make_unique<SessionManager>(h, split.initial.store());
    if (budget_divisor != 0) {
      manager->set_memory_budget(
          manager->store().store_bytes() / budget_divisor, spill);
    }
    const std::array<std::int32_t, 3> slice_counts = {16, 20, 32};
    for (int i = 0; i < 3; ++i) {
      SessionSpec spec;
      spec.window = TimeGrid(seconds(2.0 * i), seconds(2.0 * i + 16.0),
                             slice_counts[static_cast<std::size_t>(i)]);
      spec.ps = {0.3, 0.7};
      manager->add_session(spec);
    }
    return manager;
  };

  auto resident = make_manager(0);
  auto budgeted = make_manager(4);  // a quarter of the initial chunk bytes
  const std::size_t budget = budgeted->memory_budget();
  ASSERT_GT(budget, 0u);
  EXPECT_LE(budgeted->resident_chunk_bytes(), budget);
  EXPECT_GT(budgeted->store().spilled_chunk_bytes(), 0u);

  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next_a = 0;
  std::size_t next_b = 0;
  for (int round = 0; round < 5; ++round) {
    const TimeNs frontier = horizon + seconds(3.0 * (round + 1));
    for (; next_a < stream.future.size() &&
           stream.future[next_a].second.begin < frontier;
         ++next_a) {
      const auto& [r, s] = stream.future[next_a];
      resident->append(r, s.state, s.begin, s.end);
    }
    for (; next_b < stream.future.size() &&
           stream.future[next_b].second.begin < frontier;
         ++next_b) {
      const auto& [r, s] = stream.future[next_b];
      budgeted->append(r, s.state, s.begin, s.end);
    }
    resident->slide_all(1);
    budgeted->slide_all(1);
    EXPECT_LE(budgeted->resident_chunk_bytes(), budget)
        << "round " << round;
    for (std::size_t i = 0; i < budgeted->session_count(); ++i) {
      expect_results_equal(budgeted->session(i).results(),
                           resident->session(i).results(),
                           "round " + std::to_string(round) + " session " +
                               std::to_string(i));
    }
  }
  // And against the from-scratch reference oracle at the end.
  for (std::size_t i = 0; i < budgeted->session_count(); ++i) {
    expect_results_equal(
        budgeted->session(i).results(),
        budgeted->session(i).run_from_scratch(DpKernel::kReference),
        "final budgeted session " + std::to_string(i));
  }
  budgeted.reset();
  resident.reset();
  std::remove(spill.c_str());
}

TEST(SessionManager, MemoryBudgetRequiresSpillFile) {
  const Hierarchy h = make_balanced_hierarchy(1, 3);
  Trace whole = make_synthetic_trace(h, 10.0, 0x5B12);
  whole.seal();
  SessionManager manager(h, whole.store());
  EXPECT_THROW(manager.set_memory_budget(1024), InvalidArgument);
}

TEST(SessionManager, SharedSessionsRejectDirectIngest) {
  const Hierarchy h = make_balanced_hierarchy(1, 3);
  Trace whole = make_synthetic_trace(h, 10.0, 0x77);
  whole.seal();
  SessionManager manager(h, whole.store());
  SessionSpec spec;
  spec.window = TimeGrid(0, seconds(8.0), 8);
  spec.ps = {0.5};
  manager.add_session(spec);
  EXPECT_THROW(
      manager.session(0).append(0, StateId{0}, seconds(8.5), seconds(8.6)),
      InvalidArgument);
  EXPECT_THROW(manager.append(0, "no-such-state", 0, 1), InvalidArgument);
  EXPECT_THROW(manager.append(0, StateId{99}, 0, 1), InvalidArgument);
}

TEST(SessionManager, CentralCompressionKeepsEverySessionBitIdentical) {
  // The shared store's codec policy lives on the manager: enabling it
  // shrinks the shared payload once for all sessions and never changes
  // any session's results — through re-encoding of sealed history, live
  // ingest, central sealing/eviction and the from-scratch oracle.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 30.0, 0xC0DE);
  whole.seal();
  const TimeNs horizon = seconds(18.0);

  const auto make_manager = [&] {
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    auto manager = std::make_unique<SessionManager>(h, split.initial.store());
    SessionSpec a;
    a.window = TimeGrid(0, seconds(16.0), 16);
    a.ps = {0.25, 0.75};
    manager->add_session(a);
    SessionSpec b;
    b.window = TimeGrid(seconds(2.0), seconds(14.0), 24);
    b.ps = {0.5};
    manager->add_session(b);
    return manager;
  };

  auto plain = make_manager();
  auto compressed = make_manager();
  const std::size_t raw_bytes = compressed->store_bytes();
  compressed->set_compression(ChunkCompression::kAuto);
  EXPECT_EQ(compressed->compression(), ChunkCompression::kAuto);
  EXPECT_LT(compressed->store_bytes(), raw_bytes)
      << "central re-encoding must shrink the shared sealed payload";
  // A late session attaches under each manager's own policy.
  SessionSpec late;
  late.window = TimeGrid(seconds(4.0), seconds(16.0), 12);
  late.ps = {0.5};
  plain->add_session(late);
  compressed->add_session(late);
  EXPECT_EQ(plain->compression(), ChunkCompression::kNone);

  for (std::size_t i = 0; i < plain->session_count(); ++i) {
    expect_results_equal(compressed->session(i).results(),
                         plain->session(i).results(),
                         "initial session " + std::to_string(i));
  }

  // Lockstep live ingest: encoded chunks seal under both managers' feet.
  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next = 0;
  TimeNs delivered_to = horizon;
  for (int round = 0; round < 3; ++round) {
    delivered_to += seconds(3.0);
    for (; next < stream.future.size() &&
           stream.future[next].second.begin < delivered_to;
         ++next) {
      const auto& [r, s] = stream.future[next];
      plain->append(r, s.state, s.begin, s.end);
      compressed->append(r, s.state, s.begin, s.end);
    }
    plain->slide_all(2);
    compressed->slide_all(2);
    for (std::size_t i = 0; i < plain->session_count(); ++i) {
      expect_results_equal(
          compressed->session(i).results(), plain->session(i).results(),
          "round " + std::to_string(round) + " session " + std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < plain->session_count(); ++i) {
    expect_results_equal(
        compressed->session(i).results(),
        compressed->session(i).run_from_scratch(DpKernel::kReference),
        "final session " + std::to_string(i) + " vs kReference");
  }
  EXPECT_LT(compressed->store_bytes(), plain->store_bytes());
}

TEST(SessionManager, WatermarkGatesAdvancesOverSealedDataOnly) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 24.0, 0x3A7E);
  whole.seal();
  TraceSplit split = split_trace_at(whole, seconds(11.0));
  split.initial.seal();
  SessionManager manager(h, split.initial.store());
  // A freshly attached store is a complete sealed prefix.
  EXPECT_EQ(manager.watermark(), manager.store().end());

  SessionSpec spec;
  spec.window = TimeGrid(0, seconds(10.0), 10);
  spec.ps = {0.5};
  manager.add_session(spec);

  // Advancing past the watermark is a contract violation, not a refresh.
  EXPECT_THROW(manager.advance_to_watermark(manager.watermark() + 1),
               InvalidArgument);

  // Stage the stream, then seal: the watermark is the seal's promise.
  std::size_t next = 0;
  const TimeNs frontier = seconds(14.0);
  for (; next < split.future.size() &&
         split.future[next].second.begin < frontier;
       ++next) {
    const auto& [r, s] = split.future[next];
    manager.append(r, s.state, s.begin, s.end);
  }
  const TimeNs wm = manager.seal_staged(frontier);
  EXPECT_EQ(wm, frontier);
  EXPECT_EQ(manager.watermark(), frontier);
  // Monotone: a lower frontier never lowers the watermark.
  EXPECT_EQ(manager.seal_staged(frontier - seconds(2.0)), frontier);

  manager.advance_to_watermark(frontier);
  const TimeGrid& w = manager.session(0).window();
  EXPECT_LE(w.end(), frontier);
  EXPECT_GT(w.end() + w.uniform_dt_ns(), frontier);
  expect_results_equal(
      manager.session(0).results(),
      manager.session(0).run_from_scratch(DpKernel::kReference),
      "after advance_to_watermark");
}

TEST(SessionManager, IngestRoundMatchesAppendAdvancePath) {
  // The staged entry points (ingest + ingest_round) and the historical
  // append + advance_to loop are shims over the same stage functions —
  // prove it bit for bit, round for round.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 28.0, 0x16E5);
  whole.seal();
  const TimeNs horizon = seconds(12.0);

  const auto make_manager = [&] {
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    auto manager = std::make_unique<SessionManager>(h, split.initial.store());
    SessionSpec spec;
    spec.window = TimeGrid(0, seconds(10.0), 20);
    spec.ps = {0.3, 0.7};
    manager->add_session(spec);
    return manager;
  };
  auto classic = make_manager();
  auto staged = make_manager();

  TraceSplit stream = split_trace_at(whole, horizon);
  std::size_t next = 0;
  for (TimeNs frontier = seconds(15.0); frontier <= seconds(24.0);
       frontier += seconds(3.0)) {
    std::vector<EventRecord> batch;
    for (; next < stream.future.size() &&
           stream.future[next].second.begin < frontier;
         ++next) {
      const auto& [r, s] = stream.future[next];
      classic->append(r, s.state, s.begin, s.end);
      batch.push_back(EventRecord{r, s.state, s.begin, s.end});
    }
    classic->advance_to(frontier);
    staged->ingest(batch);
    staged->ingest_round(frontier);
    EXPECT_EQ(staged->watermark(), classic->watermark());
    expect_results_equal(staged->session(0).results(),
                         classic->session(0).results(),
                         "frontier " + std::to_string(frontier));
  }
  expect_results_equal(
      staged->session(0).results(),
      staged->session(0).run_from_scratch(DpKernel::kReference),
      "final staged manager vs kReference");
}

TEST(SessionManager, ScopedSessionRequiresMatchingLeaves) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 10.0, 0x88);
  whole.seal();
  SessionManager manager(h, whole.store());
  HierarchyBuilder b("root");
  const NodeId c = b.add(0, "nope");
  b.add_many(c, "x", 2);
  const Hierarchy bad = b.finish();
  SessionSpec spec;
  spec.window = TimeGrid(0, seconds(8.0), 8);
  spec.ps = {0.5};
  spec.hierarchy = &bad;
  EXPECT_THROW(manager.add_session(spec), DimensionError);
}

}  // namespace
}  // namespace stagg
