// Splice-equivalence and hardening suite for the incremental
// re-aggregation subsystem (SlidingWindowSession + run_incremental).
//
// The contract is *exactness*: after any sequence of append / slide /
// extend / contract / refresh operations, the session's results are
// bit-identical (EXPECT_EQ on doubles, identical partitions) to a
// from-scratch run_many over the same window — verified against the
// kReference oracle and the production kernel run from scratch, and
// across lane widths 1/4/8.  The
// boundary tests pin the half-open edge convention: an event's mass lands
// in exactly one slice partition, never twice, never zero-plus-twice.
#include "core/sliding_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aggregator.hpp"
#include "core/measure_cache.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/platform.hpp"
#include "model/builder.hpp"
#include "workload/fixtures.hpp"
#include "workload/nas_lu.hpp"
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
    EXPECT_TRUE(got[k].partition == want[k].partition)
        << context << " k=" << k;
    EXPECT_EQ(got[k].measures.gain, want[k].measures.gain)
        << context << " k=" << k;
    EXPECT_EQ(got[k].measures.loss, want[k].measures.loss)
        << context << " k=" << k;
  }
}

/// A time-ordered stream of (resource, interval) events feeding a session:
/// the test driver delivers every event whose begin precedes the window
/// horizon before each advance, like a live ingest frontier would.
struct EventStream {
  std::vector<std::pair<ResourceId, StateInterval>> events;
  std::size_t next = 0;

  static EventStream from_trace(const Trace& trace, TimeNs horizon,
                                Trace& initial) {
    EventStream stream;
    for (const auto& name : trace.states().names()) {
      (void)initial.states().intern(name);
    }
    for (ResourceId r = 0;
         r < static_cast<ResourceId>(trace.resource_count()); ++r) {
      initial.add_resource(trace.resource_path(r));
      for (const auto& s : trace.intervals(r)) {
        if (s.begin < horizon) {
          initial.add_state(r, s.state, s.begin, s.end);
        } else {
          stream.events.emplace_back(r, s);
        }
      }
    }
    std::sort(stream.events.begin(), stream.events.end(),
              [](const auto& a, const auto& b) {
                if (a.second.begin != b.second.begin) {
                  return a.second.begin < b.second.begin;
                }
                if (a.first != b.first) return a.first < b.first;
                return a.second.end < b.second.end;
              });
    return stream;
  }

  /// Appends to an exclusive session or a SessionManager alike.
  template <class Sink>
  void deliver_until(Sink& sink, TimeNs horizon) {
    while (next < events.size() && events[next].second.begin < horizon) {
      const auto& [r, s] = events[next];
      sink.append(r, s.state, s.begin, s.end);
      ++next;
    }
  }
};

Trace make_synthetic_trace(const Hierarchy& hierarchy, double span_s,
                           std::uint64_t seed) {
  const auto programmer = [span_s](LeafId leaf) {
    ResourceProgram p;
    const double phase_split = span_s * 0.4;
    p.phases.push_back(
        {0.0, phase_split,
         StatePattern{{{"compute", 0.04, 0.3}, {"send", 0.02, 0.4}}}});
    p.phases.push_back(
        {phase_split, span_s,
         StatePattern{{{"compute", 0.05, 0.2},
                       {"wait", leaf % 3 == 0 ? 0.06 : 0.015, 0.5},
                       {"send", 0.02, 0.3}}}});
    return p;
  };
  return generate_trace(hierarchy, programmer, seed);
}

// ---------------------------------------------------------------------------
// Static equivalence: an untouched session is a plain run_many.
// ---------------------------------------------------------------------------

TEST(SlidingWindow, InitialResultsMatchBatchRunMany) {
  const Hierarchy h = make_balanced_hierarchy(2, 4);
  Trace trace = make_synthetic_trace(h, 40.0, 11);
  const TimeGrid window(0, seconds(32.0), 32);
  const std::vector<double> ps = {0.0, 0.3, 0.55, 0.8, 1.0};
  SlidingWindowSession session(h, std::move(trace), window, ps);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kCached),
                       "initial/wavefront");
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "initial/reference");
}

TEST(SlidingWindow, RepeatedRunWithoutChangesIsIdenticalAndCheap) {
  // A refresh with nothing staged recomputes no column (the retained
  // extraction path); the results must still be bit-identical.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_synthetic_trace(h, 30.0, 23);
  SlidingWindowSession session(h, std::move(trace),
                               TimeGrid(0, seconds(24.0), 24), {0.25, 0.75});
  const auto first = session.results();
  EXPECT_EQ(session.pending_dirty_slice(), 24);  // clean retained state
  const auto& second = session.refresh();
  expect_results_equal(second, first, "refresh-noop");
}

// ---------------------------------------------------------------------------
// Half-open edge convention: boundary events land exactly once.
// ---------------------------------------------------------------------------

class EdgeConvention : public ::testing::Test {
 protected:
  void SetUp() override {
    hierarchy_ = make_flat_hierarchy(2);
    trace_.add_resource(hierarchy_.path(hierarchy_.leaves()[0]));
    trace_.add_resource(hierarchy_.path(hierarchy_.leaves()[1]));
    (void)trace_.states().intern("busy");
    // Baseline activity so the model is not degenerate.
    trace_.add_state(0, StateId{0}, 0, seconds(10.0));
  }
  Hierarchy hierarchy_;
  Trace trace_;
};

TEST_F(EdgeConvention, EventExactlyAtWindowEndContributesNothingUntilExtend) {
  SlidingWindowSession session(hierarchy_, std::move(trace_),
                               TimeGrid(0, seconds(10.0), 10), {0.5});
  const double mass_before = session.model().total_mass();
  // A state entered exactly at the window end: by [begin, end) it overlaps
  // the window nowhere — the old-suffix partition must not count it.
  session.append(ResourceId{1}, StateId{0}, seconds(10.0), seconds(11.0));
  session.refresh();
  EXPECT_EQ(session.model().total_mass(), mass_before);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "at-window-end/refresh");
  // Extending makes it visible — entirely inside the new suffix, exactly
  // once: total mass grows by exactly the 1 s the event spans.
  session.extend(1);
  EXPECT_DOUBLE_EQ(session.model().total_mass(), mass_before + 1.0);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "at-window-end/extend");
}

TEST_F(EdgeConvention, ZeroDurationEventAtWindowEndIsInert) {
  SlidingWindowSession session(hierarchy_, std::move(trace_),
                               TimeGrid(0, seconds(10.0), 10), {0.5});
  const auto baseline = session.results();
  const double mass_before = session.model().total_mass();
  session.append(ResourceId{1}, StateId{0}, seconds(10.0), seconds(10.0));
  session.refresh();
  EXPECT_EQ(session.model().total_mass(), mass_before);
  expect_results_equal(session.results(), baseline, "zero-duration");
  session.extend(1);
  EXPECT_EQ(session.model().total_mass(), mass_before);
}

TEST_F(EdgeConvention, EventStartingOnSliceEdgeFoldsIntoOneSliceOnly) {
  SlidingWindowSession session(hierarchy_, std::move(trace_),
                               TimeGrid(0, seconds(10.0), 10), {0.5});
  // [7 s, 7.5 s) starts exactly on the slice 6|7 edge: slice 6 must see
  // none of it, slice 7 all of it.
  session.append(ResourceId{1}, StateId{0}, seconds(7.0), seconds(7.5));
  session.refresh();
  EXPECT_EQ(session.model().duration(LeafId{1}, 6, 0), 0.0);
  EXPECT_DOUBLE_EQ(session.model().duration(LeafId{1}, 7, 0), 0.5);
  // And one *ending* exactly on the 8|9 edge: slice 9 sees none of it.
  session.append(ResourceId{1}, StateId{0}, seconds(8.5), seconds(9.0));
  session.refresh();
  EXPECT_DOUBLE_EQ(session.model().duration(LeafId{1}, 8, 0), 0.5);
  EXPECT_EQ(session.model().duration(LeafId{1}, 9, 0), 0.0);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "slice-edge");
}

TEST_F(EdgeConvention, SlideDropsExactlyTheLeadingSlices) {
  SlidingWindowSession session(hierarchy_, std::move(trace_),
                               TimeGrid(0, seconds(10.0), 10), {0.5});
  // An event straddling the slide boundary: after slide(2) only its part
  // in [2 s, 10 s) + the appended tail remains.
  session.slide(2);
  EXPECT_EQ(session.window().begin(), seconds(2.0));
  EXPECT_EQ(session.window().end(), seconds(12.0));
  // leaf 0 was busy over [0, 10 s): 8 s survive the slide.
  EXPECT_DOUBLE_EQ(session.model().total_mass(), 8.0);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "slide-clip");
}

// ---------------------------------------------------------------------------
// Randomized splice property: 200 random ops, synthetic + NAS-LU, W 1/4/8.
// ---------------------------------------------------------------------------

struct PropertyRunStats {
  int ops = 0;
  int reference_checks = 0;
};

PropertyRunStats drive_random_ops(SlidingWindowSession& session,
                                  EventStream& stream, Rng& rng, int op_count,
                                  const std::string& tag) {
  PropertyRunStats stats;
  const TimeNs dt = session.window().uniform_dt_ns();
  for (int op = 0; op < op_count; ++op) {
    const auto t = session.window().slice_count();
    TimeGrid next = session.window();
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind <= 4) {
      next = next.advanced(static_cast<std::int32_t>(rng.uniform_int(1, 3)));
    } else if (kind <= 6 && t < 56) {
      next = next.extended(static_cast<std::int32_t>(rng.uniform_int(1, 2)));
    } else if (kind == 7 && t > 20) {
      next = next.contracted(static_cast<std::int32_t>(rng.uniform_int(1, 2)));
    }  // kind 8, 9 (and guarded cases): refresh over the same window
    // Occasionally inject a hand-made boundary event: exactly on the next
    // window's end, on a slice edge, or reaching back into the clean
    // prefix (a correct-but-slow full-dirty advance).
    if (rng.chance(0.3)) {
      const auto r = static_cast<ResourceId>(rng.uniform_int(
          0, static_cast<std::int64_t>(session.trace().resource_count()) - 1));
      const TimeNs end = next.end();
      TimeNs b = 0;
      TimeNs e = 0;
      switch (rng.uniform_int(0, 3)) {
        case 0: b = end; e = end + dt; break;                  // at window end
        case 1: b = end - dt; e = end - dt / 2; break;         // on slice edge
        case 2: b = end - dt / 3; e = end + dt / 3; break;     // straddling
        default:                                               // reaching back
          b = next.begin() + (next.end() - next.begin()) / 2;
          e = b + dt / 4;
          break;
      }
      session.append(r, StateId{0}, b, e);
    }
    stream.deliver_until(session, next.end());
    const std::int32_t shift = static_cast<std::int32_t>(
        (next.begin() - session.window().begin()) / dt);
    if (shift > 0) {
      session.slide(shift);
    } else if (next.slice_count() > t) {
      session.extend(next.slice_count() - t);
    } else if (next.slice_count() < t) {
      session.contract(t - next.slice_count());
    } else {
      session.refresh();
    }
    ++stats.ops;
    const std::string context = tag + " op=" + std::to_string(op);
    expect_results_equal(session.results(), session.run_from_scratch(),
                         context + "/scratch");
    if (op % 7 == 3) {
      ++stats.reference_checks;
      expect_results_equal(session.results(),
                           session.run_from_scratch(DpKernel::kReference),
                           context + "/reference");
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  return stats;
}

TEST(SlidingWindowProperty, RandomOpsBitIdenticalAcrossLaneWidths) {
  const Hierarchy h = make_balanced_hierarchy(2, 4);  // 16 leaves
  const Trace full = [&] {
    Trace t = make_synthetic_trace(h, 150.0, 20260729);
    t.seal();
    return t;
  }();
  int total_ops = 0;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}}) {
    Trace initial;
    Trace source = full;  // reset the stream per width
    EventStream stream = EventStream::from_trace(source, seconds(32.0),
                                                 initial);
    SlidingWindowOptions opt;
    opt.aggregation.max_lanes = width;
    const std::vector<double> ps = {0.0, 0.2, 0.45, 0.45, 0.7, 1.0};
    SlidingWindowSession session(h, std::move(initial),
                                 TimeGrid(0, seconds(32.0), 32), ps, opt);
    Rng rng(977, width);
    const PropertyRunStats stats =
        drive_random_ops(session, stream, rng, 50,
                         "synthetic W=" + std::to_string(width));
    total_ops += stats.ops;
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(total_ops, 150);
}

TEST(SlidingWindowProperty, NasLuWorkloadRandomOps) {
  const PlatformSpec platform = grid5000_nancy().scaled_to(48);
  const Hierarchy h = platform.build_hierarchy();
  LuWorkloadOptions lu;
  lu.event_scale = 1.0 / 256.0;
  lu.span_s = 65.0;
  const Trace full = [&] {
    Trace t = generate_lu_trace(h, platform, lu);
    t.seal();
    return t;
  }();
  Trace initial;
  Trace source = full;
  // 26 s window, 40 slices: dt = 0.65 s (integer ns), covers the
  // heterogeneous Allreduce / rupture structure as the window slides.
  EventStream stream = EventStream::from_trace(source, seconds(26.0),
                                               initial);
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = 4;
  SlidingWindowSession session(h, std::move(initial),
                               TimeGrid(0, seconds(26.0), 40),
                               {0.1, 0.4, 0.6, 0.9}, opt);
  Rng rng(31337);
  const PropertyRunStats stats =
      drive_random_ops(session, stream, rng, 50, "nas-lu");
  EXPECT_EQ(stats.ops, 50);
}

// ---------------------------------------------------------------------------
// Working-set / arena guards across window changes (ASan-covered).
// ---------------------------------------------------------------------------

TEST(SlidingWindow, WorkingSetAccountingTracksPostAdvanceWindow) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_synthetic_trace(h, 80.0, 5);
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = 4;
  const std::vector<double> ps = {0.1, 0.5, 0.9};
  SlidingWindowSession session(h, std::move(trace),
                               TimeGrid(0, seconds(30.0), 30), ps, opt);
  const SpatiotemporalAggregator& agg = session.aggregator();
  const std::size_t nodes = h.node_count();

  // Sliding layout: every triangle spans |T| + window_slack(|T|) columns.
  const auto capacity = [](std::int32_t slices) {
    return slices + window_slack(slices);
  };
  const auto retained_bytes = [&](std::int32_t slices) {
    // One 3-lane wave: pIC (8) + count (4) bytes per cell per lane over
    // the capacity triangle; no cut is retained.
    return nodes * TriangularIndex(capacity(slices)).size() * ps.size() *
           (sizeof(double) + sizeof(std::int32_t));
  };
  const std::size_t ws30 = agg.working_set_bytes(3);
  EXPECT_EQ(agg.incremental_state_bytes(), retained_bytes(30));
  EXPECT_EQ(agg.measure_cache().memory_bytes(),
            MeasureCache::estimate_bytes(nodes, capacity(30)));

  session.extend(10);  // |T| = 40
  EXPECT_EQ(agg.incremental_state_bytes(), retained_bytes(40));
  EXPECT_EQ(agg.measure_cache().memory_bytes(),
            MeasureCache::estimate_bytes(nodes, capacity(40)));
  EXPECT_GT(agg.working_set_bytes(3), ws30);

  session.contract(15);  // |T| = 25: shrink must release cell spans
  EXPECT_EQ(agg.incremental_state_bytes(), retained_bytes(25));
  EXPECT_EQ(agg.measure_cache().memory_bytes(),
            MeasureCache::estimate_bytes(nodes, capacity(25)));
  EXPECT_LT(agg.working_set_bytes(3), ws30);

  // The estimate must agree with a fresh aggregator of the same shape at
  // the post-advance |T| — no stale-lane or stale-|T| accounting.
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kCached),
                       "post-contract");
  session.slide(3);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "post-contract-slide");
}

TEST(SlidingWindow, ShrinkGrowShrinkCyclesStayExact) {
  // Exercises the relocation paths hard (ASan hunts dangling spans): grow
  // far beyond the start size, shrink far below it, slide in between.
  const Hierarchy h = make_balanced_hierarchy(3, 2);
  Trace trace = make_synthetic_trace(h, 90.0, 404);
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = 2;
  SlidingWindowSession session(h, std::move(trace),
                               TimeGrid(0, seconds(24.0), 24),
                               {0.15, 0.5, 0.85}, opt);
  const std::int32_t grows[] = {20, -30, 8, -4, 16, -20};
  for (const std::int32_t delta : grows) {
    if (delta > 0) {
      session.extend(delta);
    } else {
      session.contract(-delta);
    }
    session.slide(2);
    expect_results_equal(session.results(), session.run_from_scratch(),
                         "cycle delta=" + std::to_string(delta));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(SlidingWindow, IncrementalBudgetChargesTheAllocatedState) {
  // The run_incremental budget check charges exactly what the session
  // then holds: the sliding working set plus the retained state (a 2-lane
  // and a 1-lane wave here).  One byte less must throw.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const TimeGrid window(0, seconds(30.0), 30);
  const std::vector<double> ps = {0.1, 0.5, 0.9};
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = 2;
  const SlidingWindowSession probe(h, make_synthetic_trace(h, 40.0, 5),
                                   window, ps, opt);
  const std::size_t need = probe.aggregator().working_set_bytes(2) +
                           probe.aggregator().incremental_state_bytes();
  opt.aggregation.memory_budget_bytes = need - 1;
  EXPECT_THROW(SlidingWindowSession(h, make_synthetic_trace(h, 40.0, 5),
                                    window, ps, opt),
               BudgetError);
  opt.aggregation.memory_budget_bytes = need;
  const SlidingWindowSession exact(h, make_synthetic_trace(h, 40.0, 5),
                                   window, ps, opt);
  expect_results_equal(exact.results(), probe.results(), "exact-budget");
}

TEST(SlidingWindow, CleanRefreshesBuildNoViewAndStayExact) {
  // A refresh with nothing staged and no window move folds nothing: it
  // builds no TraceView, moves no cell, and returns the retained results
  // — which must still be the from-scratch reference results.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const Trace full = [&] {
    Trace t = make_synthetic_trace(h, 60.0, 77);
    t.seal();
    return t;
  }();
  Trace initial;
  Trace source = full;
  EventStream stream = EventStream::from_trace(source, seconds(24.0), initial);
  SlidingWindowSession session(h, std::move(initial),
                               TimeGrid(0, seconds(24.0), 24),
                               {0.2, 0.5, 0.8});
  EXPECT_EQ(session.views_built(), 1u);  // the attach fold
  stream.deliver_until(session, seconds(26.0));
  session.slide(2);
  EXPECT_EQ(session.views_built(), 2u);
  const std::size_t moved = session.aggregator().relocated_cells();
  for (int k = 0; k < 6; ++k) {
    session.refresh();
    expect_results_equal(session.results(),
                         session.run_from_scratch(DpKernel::kReference),
                         "clean refresh " + std::to_string(k));
  }
  EXPECT_EQ(session.views_built(), 2u);
  EXPECT_EQ(session.aggregator().relocated_cells(), moved);
  // A staged event dirties its column: the next refresh folds again.
  session.append(0, StateId{0}, seconds(25.5), seconds(25.75));
  session.refresh();
  EXPECT_EQ(session.views_built(), 3u);
  expect_results_equal(session.results(),
                       session.run_from_scratch(DpKernel::kReference),
                       "dirty refresh");
}

TEST(SlidingWindow, SlidesMoveNoCellBetweenCompactions) {
  // Count gate of the origin-addressed layout: |T| = 48 has
  // s = window_slack(48) = 6 spare columns, so one-column slides move the
  // window origin through 0..s without touching a cell, and every
  // (s + 1)-th slide runs one in-place compaction that moves exactly the
  // surviving window — the cache triangle, each retained pIC and count
  // triangle (one wave here) and the cube's slice columns.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const Trace full = [&] {
    Trace t = make_synthetic_trace(h, 260.0, 4242);
    t.seal();
    return t;
  }();
  Trace initial;
  Trace source = full;
  EventStream stream = EventStream::from_trace(source, seconds(48.0), initial);
  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = 4;
  SlidingWindowSession session(h, std::move(initial),
                               TimeGrid(0, seconds(48.0), 48),
                               {0.2, 0.5, 0.8}, opt);
  // The session's aggregator is built in the sliding layout: attaching
  // (cube fold, cache build, first DP) relocates nothing.
  EXPECT_EQ(session.aggregator().relocated_cells(), 0u);
  constexpr std::int32_t kT = 48;
  const std::int32_t slack = window_slack(kT);
  ASSERT_EQ(slack, 6);
  const std::size_t nodes = h.node_count();
  const std::size_t survivors = TriangularIndex(kT - 1).size();
  const std::size_t per_compaction =
      nodes * (survivors * (1 + 2) + static_cast<std::size_t>(kT - 1));
  std::vector<int> compactions;
  for (int slide = 1; slide <= 200; ++slide) {
    stream.deliver_until(session, session.window().end() + seconds(1.0));
    const std::size_t before = session.aggregator().relocated_cells();
    session.slide(1);
    const std::size_t moved = session.aggregator().relocated_cells() - before;
    if (moved != 0) {
      compactions.push_back(slide);
      EXPECT_EQ(moved, per_compaction) << "slide " << slide;
    }
    expect_results_equal(session.results(),
                         session.run_from_scratch(DpKernel::kReference),
                         "slide " + std::to_string(slide));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  std::vector<int> expected;
  for (int slide = slack + 1; slide <= 200; slide += slack + 1) {
    expected.push_back(slide);
  }
  EXPECT_EQ(compactions, expected);
}

TEST(SlidingWindowProperty, CompactionsAndRelayoutsExactAtEveryLaneWidth) {
  // Slides of 1-3 columns (crossing compactions), interleaved extend and
  // contract (re-layouts) and clean refreshes, at lane widths 1-8:
  // bit-identical to kReference at every step.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  const Trace full = [&] {
    Trace t = make_synthetic_trace(h, 200.0, 8128);
    t.seal();
    return t;
  }();
  const std::vector<double> ps = {0.0, 0.15, 0.3, 0.45, 0.45, 0.6, 0.8, 1.0};
  for (std::size_t config = 1; config <= kMaxDpLanes; ++config) {
    SlidingWindowOptions opt;
    opt.aggregation.max_lanes = config;
    Trace initial;
    Trace source = full;
    EventStream stream =
        EventStream::from_trace(source, seconds(24.0), initial);
    SlidingWindowSession session(h, std::move(initial),
                                 TimeGrid(0, seconds(24.0), 24), ps, opt);
    Rng rng(31, config);
    for (int op = 0; op < 30; ++op) {
      const auto t = session.window().slice_count();
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      TimeGrid next = session.window();
      if (kind <= 5) {
        next = next.advanced(static_cast<std::int32_t>(rng.uniform_int(1, 3)));
      } else if (kind == 6 && t < 32) {
        next = next.extended(static_cast<std::int32_t>(rng.uniform_int(1, 4)));
      } else if (kind == 7 && t > 16) {
        next = next.contracted(
            static_cast<std::int32_t>(rng.uniform_int(1, 4)));
      }
      stream.deliver_until(session, next.end());
      const TimeNs dt = session.window().uniform_dt_ns();
      const auto shift = static_cast<std::int32_t>(
          (next.begin() - session.window().begin()) / dt);
      if (shift > 0) {
        session.slide(shift);
      } else if (next.slice_count() > t) {
        session.extend(next.slice_count() - t);
      } else if (next.slice_count() < t) {
        session.contract(t - next.slice_count());
      } else {
        session.refresh();
      }
      expect_results_equal(session.results(),
                           session.run_from_scratch(DpKernel::kReference),
                           "config " + std::to_string(config) + " op " +
                               std::to_string(op));
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }
}

// ---------------------------------------------------------------------------
// Session/API validation.
// ---------------------------------------------------------------------------

TEST(SlidingWindow, RejectsUnsupportedConfigurations) {
  const Hierarchy h = make_flat_hierarchy(2);
  const auto make_trace = [&] {
    Trace t;
    t.add_resource(h.path(h.leaves()[0]));
    t.add_resource(h.path(h.leaves()[1]));
    (void)t.states().intern("s");
    t.add_state(0, StateId{0}, 0, seconds(5.0));
    return t;
  };
  {
    SlidingWindowOptions opt;
    opt.aggregation.kernel = DpKernel::kReference;
    EXPECT_THROW(SlidingWindowSession(h, make_trace(),
                                      TimeGrid(0, seconds(10.0), 10), {0.5},
                                      opt),
                 InvalidArgument);
  }
  {
    SlidingWindowOptions opt;
    opt.aggregation.normalize = true;
    EXPECT_THROW(SlidingWindowSession(h, make_trace(),
                                      TimeGrid(0, seconds(10.0), 10), {0.5},
                                      opt),
                 InvalidArgument);
  }
  {
    SlidingWindowOptions opt;
    opt.aggregation.memory_budget_bytes = 1024;  // absurdly small
    EXPECT_THROW(SlidingWindowSession(h, make_trace(),
                                      TimeGrid(0, seconds(10.0), 10), {0.5},
                                      opt),
                 BudgetError);
  }
  // Non-uniform dt: derived windows could drift, rejected up front.
  EXPECT_THROW(
      SlidingWindowSession(h, make_trace(), TimeGrid(0, 1000000007, 10),
                           {0.5}),
      InvalidArgument);
  // Unknown states cannot be appended mid-session (|X| is fixed).
  SlidingWindowSession session(h, make_trace(), TimeGrid(0, seconds(10.0), 10),
                               {0.5});
  EXPECT_THROW(session.append(0, StateId{7}, 0, 1), InvalidArgument);
  EXPECT_THROW(session.append(0, "unregistered", 0, 1), InvalidArgument);
  EXPECT_THROW(session.slide(-1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Chunk compression plumbing: the codec policy is invisible to results.
// ---------------------------------------------------------------------------

TEST(SlidingWindow, CompressionPolicyKeepsEveryAdvanceBitIdentical) {
  // Twins over the same event stream, one a one-session SessionManager
  // with seal-time chunk compression: every advance must agree bit-exactly
  // with the plain exclusive session and with the kReference from-scratch
  // oracle, while the compressed store holds fewer payload bytes.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 36.0, 0xC0DEC);
  whole.seal();
  const TimeNs horizon = seconds(22.0);
  const TimeGrid window(0, seconds(20.0), 20);
  const std::vector<double> ps = {0.25, 0.5, 0.75};

  Trace plain_initial;
  EventStream plain_stream =
      EventStream::from_trace(whole, horizon, plain_initial);
  Trace compressed_initial;
  EventStream compressed_stream =
      EventStream::from_trace(whole, horizon, compressed_initial);

  SlidingWindowSession plain(h, std::move(plain_initial), window, ps);
  SessionManager compressed(h, compressed_initial.store());
  compressed.set_compression(ChunkCompression::kAuto);
  compressed.add_session({window, ps});
  EXPECT_EQ(compressed.store().compression(), ChunkCompression::kAuto);
  EXPECT_LT(compressed.store().store_bytes(), plain.store().store_bytes())
      << "the codec policy must shrink the sealed payload";
  expect_results_equal(compressed.session(0).results(), plain.results(),
                       "initial");

  TimeNs delivered_to = horizon;
  for (int round = 0; round < 4; ++round) {
    delivered_to += seconds(3.0);
    plain_stream.deliver_until(plain, delivered_to);
    compressed_stream.deliver_until(compressed, delivered_to);
    plain.slide(3);
    compressed.slide_all(3);
    const std::string ctx = "round " + std::to_string(round);
    const SlidingWindowSession& session = compressed.session(0);
    expect_results_equal(session.results(), plain.results(), ctx);
    expect_results_equal(session.results(),
                         session.run_from_scratch(DpKernel::kReference),
                         ctx + " vs kReference");
  }
  EXPECT_LT(compressed.store().store_bytes(), plain.store().store_bytes());
}

TEST(SlidingWindow, CompressionComposesWithMemoryBudget) {
  // Budget + compression: the budget counts encoded bytes, spilled
  // records stay compressed, and results stay bit-identical to an
  // unconstrained plain session.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace whole = make_synthetic_trace(h, 30.0, 0xB5D6E7);
  whole.seal();
  const TimeNs horizon = seconds(18.0);
  const TimeGrid window(0, seconds(16.0), 16);
  const std::vector<double> ps = {0.5};
  const std::string spill = "test_sliding_window_compress.spill";
  std::remove(spill.c_str());

  Trace plain_initial;
  EventStream plain_stream =
      EventStream::from_trace(whole, horizon, plain_initial);
  Trace tight_initial;
  EventStream tight_stream =
      EventStream::from_trace(whole, horizon, tight_initial);

  SlidingWindowSession plain(h, std::move(plain_initial), window, ps);
  const std::size_t budget = plain.store().store_bytes() / 8;
  {
    SessionManager tight(h, tight_initial.store());
    tight.set_compression(ChunkCompression::kAuto);
    tight.set_memory_budget(budget, spill);
    tight.add_session({window, ps});
    EXPECT_LE(tight.store().resident_chunk_bytes(), budget);
    expect_results_equal(tight.session(0).results(), plain.results(),
                         "initial");

    TimeNs delivered_to = horizon;
    for (int round = 0; round < 3; ++round) {
      delivered_to += seconds(3.0);
      plain_stream.deliver_until(plain, delivered_to);
      tight_stream.deliver_until(tight, delivered_to);
      plain.slide(3);
      tight.slide_all(3);
      EXPECT_LE(tight.store().resident_chunk_bytes(), budget)
          << "round " << round;
      expect_results_equal(tight.session(0).results(), plain.results(),
                           "round " + std::to_string(round));
    }
    EXPECT_GT(tight.store().spilled_chunk_bytes(), 0u);
  }
  std::remove(spill.c_str());
}

}  // namespace
}  // namespace stagg
