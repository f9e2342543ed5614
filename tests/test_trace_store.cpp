// TraceStore / TraceView suite: the immutable chunked substrate and its
// zero-copy window/scope selection.
//
// The load-bearing properties:
//   * Layout independence — however the same interval multiset is
//     partitioned into sealed chunks (streaming seals, compaction,
//     eviction, copies), the merged per-resource sequence and every model
//     fold built from it are bit-identical to a freshly sorted
//     single-owner trace.
//   * Fence pruning is an optimization, never a semantic — a view over
//     [t0, t1) folds exactly what a whole-trace build with that window
//     folds.
//   * IO equivalence — write -> read, write -> stream-fold, and
//     chunked-store ingest of the same events produce bit-identical
//     models (including the empty trace, zero-duration events, window
//     overrides, and evict_before mid-stream).
#include "trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/aggregator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"

namespace stagg {
namespace {

// Per-lane chunk bound of the compaction tests below (raw lanes keep it
// under tiered compaction), and the round counts derived from it.
constexpr std::size_t kChunkBound = 16;

/// Temp-file path helper (tests run in the build directory).
std::string temp_path(const std::string& name) {
  return "test_trace_store_" + name + ".stgt";
}

void expect_models_equal(const MicroscopicModel& a, const MicroscopicModel& b,
                         const std::string& context) {
  ASSERT_EQ(a.resource_count(), b.resource_count()) << context;
  ASSERT_EQ(a.slice_count(), b.slice_count()) << context;
  ASSERT_EQ(a.state_count(), b.state_count()) << context;
  const auto ra = a.raw();
  const auto rb = b.raw();
  ASSERT_EQ(ra.size(), rb.size()) << context;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i], rb[i]) << context << " cell " << i;
  }
}

/// Random trace with edge-heavy timing: events on slice edges, zero
/// durations, duplicates.
Trace make_random_trace(const Hierarchy& h, std::uint64_t seed,
                        TimeNs span, int events_per_resource) {
  SplitMix64 mix(seed);
  Trace t;
  const StateId states[] = {t.states().intern("a"), t.states().intern("b"),
                            t.states().intern("c")};
  for (LeafId leaf = 0; leaf < static_cast<LeafId>(h.leaf_count()); ++leaf) {
    const ResourceId r = t.add_resource(h.path(h.leaf_node(leaf)));
    for (int k = 0; k < events_per_resource; ++k) {
      const TimeNs b = static_cast<TimeNs>(mix.next() % span);
      TimeNs d = static_cast<TimeNs>(mix.next() % (span / 16));
      if (mix.next() % 8 == 0) d = 0;  // zero-duration (instantaneous call)
      t.add_state(r, states[mix.next() % 3], b, b + d);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Chunk mechanics.
// ---------------------------------------------------------------------------

TEST(TraceStore, SealAcrossRoundsBuildsChunksWithFences) {
  TraceStore store;
  const ResourceId r = store.add_resource("r");
  const StateId x = store.states().intern("s");
  store.add_state(r, x, 100, 200);
  store.add_state(r, x, 0, 50);
  store.seal_chunk();
  ASSERT_EQ(store.chunks(r).size(), 1u);
  EXPECT_EQ(store.chunks(r)[0]->min_begin(), 0);
  EXPECT_EQ(store.chunks(r)[0]->min_end(), 50);
  EXPECT_EQ(store.chunks(r)[0]->max_end(), 200);
  EXPECT_TRUE(store.sealed());

  store.add_state(r, x, 300, 400);
  EXPECT_FALSE(store.sealed());
  store.seal_chunk();
  ASSERT_EQ(store.chunks(r).size(), 2u);
  EXPECT_EQ(store.begin(), 0);
  EXPECT_EQ(store.end(), 400);
  EXPECT_EQ(store.state_count(), 3u);

  // Idempotent: a clean re-seal creates no chunk.
  store.seal_chunk();
  EXPECT_EQ(store.chunks(r).size(), 2u);
}

TEST(TraceStore, MergedRowsAreLayoutIndependent) {
  // The same multiset sealed in one round vs many rounds materializes to
  // the same sequence.
  SplitMix64 mix(7);
  Trace incremental;
  Trace batch;
  const ResourceId ri = incremental.add_resource("r");
  const ResourceId rb = batch.add_resource("r");
  (void)incremental.states().intern("s");
  (void)batch.states().intern("s");
  for (int round = 0; round < 12; ++round) {
    for (int k = 0; k < 17; ++k) {
      const auto b = static_cast<TimeNs>(mix.next() % 500);
      const auto d = static_cast<TimeNs>(mix.next() % 40);
      incremental.add_state(ri, StateId{0}, b, b + d);
      batch.add_state(rb, StateId{0}, b, b + d);
    }
    incremental.seal();
  }
  incremental.seal();
  batch.seal();
  EXPECT_GT(incremental.store()->chunks(ri).size(), 1u);
  const auto a = incremental.intervals(ri);
  const auto e = batch.intervals(rb);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
}

TEST(TraceStore, CompactionBoundsChunkCountAndPreservesRows) {
  Trace many;
  Trace once;
  const ResourceId rm = many.add_resource("r");
  const ResourceId ro = once.add_resource("r");
  (void)many.states().intern("s");
  (void)once.states().intern("s");
  SplitMix64 mix(11);
  const int rounds = 3 * static_cast<int>(kChunkBound);
  for (int round = 0; round < rounds; ++round) {
    const auto b = static_cast<TimeNs>(mix.next() % 10000);
    many.add_state(rm, StateId{0}, b, b + 5);
    once.add_state(ro, StateId{0}, b, b + 5);
    many.seal();  // one chunk per round, compacted past the threshold
  }
  once.seal();
  EXPECT_LE(many.store()->chunks(rm).size(),
            kChunkBound + 1);
  const auto a = many.intervals(rm);
  const auto e = once.intervals(ro);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
}

TEST(TraceStore, CopySharesChunksButMutatesIndependently) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 10);
  t.add_state(r, x, 20, 30);
  t.seal();

  Trace copy = t;
  // The sealed chunk is shared by pointer, not duplicated.
  ASSERT_EQ(copy.store()->chunks(r).size(), 1u);
  EXPECT_EQ(copy.store()->chunks(r)[0].get(), t.store()->chunks(r)[0].get());

  copy.add_state(r, x, 40, 50);
  copy.seal();
  copy.store()->evict_before(30);  // the shared chunk is dead in the copy
  copy.seal();
  EXPECT_EQ(copy.state_count(), 1u);  // [40,50)
  EXPECT_EQ(t.state_count(), 2u);     // original untouched: [0,10), [20,30)
  EXPECT_EQ(t.intervals(r)[0].begin, 0);
}

TEST(TraceStore, EvictBeforeDropsOnlyWholeDeadChunks) {
  TraceStore store;
  const ResourceId r = store.add_resource("r");
  const StateId x = store.states().intern("s");
  store.add_state(r, x, 0, 10);
  store.add_state(r, x, 10, 20);
  store.seal_chunk();  // chunk A: max_end 20
  store.add_state(r, x, 15, 40);
  store.add_state(r, x, 50, 60);
  store.seal_chunk();  // chunk B: straddles any cutoff in (15, 40]
  ASSERT_EQ(store.chunks(r).size(), 2u);

  store.evict_before(20);
  // A is provably dead (max_end <= 20) and unlinked; B straddles and is
  // kept whole — including its [15, 40) interval.
  ASSERT_EQ(store.chunks(r).size(), 1u);
  EXPECT_EQ(store.state_count(), 2u);
  EXPECT_EQ(store.chunks(r)[0]->min_begin(), 15);
}

TEST(TraceStore, CompactionRespectsEvictionHorizonUnderSlidingIngest) {
  // A long-running sliding ingest whose chunks carry long straddling
  // intervals, so dozens stay fence-alive at once and compaction runs
  // regularly.  Merged chunks must let go of intervals below the
  // eviction horizon — retained memory tracks the live window plus the
  // straddle span, never everything ever ingested.
  TraceStore store;
  const ResourceId r = store.add_resource("r");
  const StateId x = store.states().intern("s");
  const TimeNs dt = 10;
  const TimeNs straddle = 40 * dt;  // keeps ~44 chunks fence-alive
  const TimeNs window = 4 * dt;
  const int rounds = 16 * static_cast<int>(kChunkBound);
  for (int round = 0; round < rounds; ++round) {
    const TimeNs t = dt * round;
    store.add_state(r, x, t, t + dt / 2);    // dead a few rounds later
    store.add_state(r, x, t, t + straddle);  // pins the chunk's fence
    store.seal_chunk();
    store.evict_before(t - window);
  }
  // Alive: ~(straddle + window)/dt straddlers + the short tail of the
  // window, with compaction slack — far below the 2 * rounds ingested.
  const auto alive_bound = static_cast<std::uint64_t>(
      2 * ((straddle + window) / dt) + 4 * kChunkBound);
  EXPECT_LE(store.state_count(), alive_bound);
  EXPECT_LT(store.state_count(), static_cast<std::uint64_t>(rounds));
  EXPECT_LE(store.chunks(r).size(), kChunkBound + 1);
}

// In-order live ingest: every round appends `per_round` gapless intervals
// to each of `lanes` lanes and seals; with `window` > 0 it also evicts
// everything that ended more than `window` rounds ago.
struct InOrderIngest {
  std::size_t lanes = 2;
  int per_round = 1;
  ChunkCompression policy = ChunkCompression::kNone;
  int window = 0;
  static constexpr TimeNs kRound = 1200;
};

void ingest_round(TraceStore& store, const InOrderIngest& cfg, int round) {
  const TimeNs step = InOrderIngest::kRound / cfg.per_round;
  for (std::size_t r = 0; r < cfg.lanes; ++r) {
    for (int k = 0; k < cfg.per_round; ++k) {
      const TimeNs b = InOrderIngest::kRound * round + step * k;
      store.add_state(static_cast<ResourceId>(r),
                      static_cast<StateId>((k + round) % 3), b, b + step);
    }
  }
  store.seal_chunk();
  if (cfg.window > 0 && round > cfg.window) {
    store.evict_before(InOrderIngest::kRound * (round - cfg.window));
  }
}

TraceStore make_ingest_store(const InOrderIngest& cfg) {
  TraceStore store;
  for (std::size_t r = 0; r < cfg.lanes; ++r) {
    (void)store.add_resource("r" + std::to_string(r));
  }
  for (const char* name : {"a", "b", "c"}) (void)store.states().intern(name);
  store.set_compression(cfg.policy);
  return store;
}

TEST(TraceStoreCompaction, CopiesPerIntervalAreLogarithmic) {
  // 10 000 in-order rounds.  Tiered compaction copies an interval once per
  // size class it climbs plus the copy that closes it, so copies per
  // sealed interval stay below c * log2(n) with c = 1 (n = intervals
  // sealed).  The smallest-first policy it replaced re-merged its large
  // chunks and read up to 70 (raw) and 1 334 (kAuto) copies per interval
  // here.  After every seal each lane is within lane_chunk_bound().
  constexpr int kRounds = 10000;
  for (const ChunkCompression policy :
       {ChunkCompression::kNone, ChunkCompression::kAuto}) {
    for (const int window : {0, 400}) {
      for (const int per_round : {1, 12}) {
        InOrderIngest cfg;
        cfg.per_round = per_round;
        cfg.policy = policy;
        cfg.window = window;
        const std::string context =
            std::string(policy == ChunkCompression::kAuto ? "kAuto" : "raw") +
            " window " + std::to_string(window) + " per_round " +
            std::to_string(per_round);
        TraceStore store = make_ingest_store(cfg);
        std::size_t worst_excess = 0;
        for (int round = 0; round < kRounds; ++round) {
          ingest_round(store, cfg, round);
          for (std::size_t r = 0; r < cfg.lanes; ++r) {
            std::size_t stored = 0;
            const auto chunks = store.chunks(static_cast<ResourceId>(r));
            for (const TraceChunkPtr& c : chunks) stored += c->size();
            const std::size_t bound =
                TraceStore::lane_chunk_bound(stored, policy);
            if (chunks.size() > bound) {
              worst_excess = std::max(worst_excess, chunks.size() - bound);
            }
          }
        }
        EXPECT_EQ(worst_excess, 0u) << context;
        const double sealed = static_cast<double>(kRounds) * per_round *
                              static_cast<double>(cfg.lanes);
        const double per_interval =
            static_cast<double>(store.compaction_copies()) / sealed;
        EXPECT_LE(per_interval, std::log2(sealed)) << context;
        EXPECT_NO_THROW(store.audit()) << context;
      }
    }
  }
}

TEST(TraceStoreCompaction, NewestSliceViewSelectsOnlyItsChunks) {
  // After 2 000 evicting in-order rounds, a view over the newest slice
  // selects that slice's intervals plus at most one chunk cap per lane —
  // old data is never merged into the chunks that hold new data.  (The
  // smallest-first policy's compressed blocks grew with the lane: it
  // selected 2 380 intervals against a bound of 1 144 here.)
  constexpr int kWindow = 1500;
  constexpr int kRounds = kWindow + 2000;
  constexpr int kSliceRounds = 5;
  for (const ChunkCompression policy :
       {ChunkCompression::kNone, ChunkCompression::kAuto}) {
    InOrderIngest cfg;
    cfg.per_round = 12;
    cfg.policy = policy;
    cfg.window = kWindow;
    auto store = std::make_shared<TraceStore>(make_ingest_store(cfg));
    for (int round = 0; round < kRounds; ++round) {
      ingest_round(*store, cfg, round);
    }
    const TimeNs t1 = InOrderIngest::kRound * kRounds;
    const TimeNs t0 = t1 - InOrderIngest::kRound * kSliceRounds;
    const TraceView view(store, t0, t1);
    std::uint64_t slack = 0;
    for (std::size_t r = 0; r < cfg.lanes; ++r) {
      std::size_t stored = 0;
      for (const TraceChunkPtr& c : store->chunks(static_cast<ResourceId>(r))) {
        stored += c->size();
      }
      slack += TraceStore::chunk_cap(stored, policy);
    }
    const std::uint64_t slice = static_cast<std::uint64_t>(kSliceRounds) *
                                static_cast<std::uint64_t>(cfg.per_round) *
                                cfg.lanes;
    EXPECT_LE(view.selected_count(), slice + slack)
        << (policy == ChunkCompression::kAuto ? "kAuto" : "raw");
  }
}

TEST(TraceView, LeadFenceAndT1StopDeliverExactlyTheWindow) {
  // One lane of back-to-back 10 ns intervals, sealed in in-order rounds
  // of 10.  Every chunk's last interval is the only one that can reach
  // past its last begin, so a window starting after a chunk's lead fence
  // reads that chunk's last interval off the fence instead of streaming
  // the chunk, and a compressed chunk reaching past t1 stops its cursor
  // at t1.  Either way the delivered stream is sorted, holds every
  // interval that overlaps the window and none beginning at or past t1.
  for (const ChunkCompression policy :
       {ChunkCompression::kNone, ChunkCompression::kAuto}) {
    const char* label = policy == ChunkCompression::kAuto ? "kAuto" : "raw";
    auto store = std::make_shared<TraceStore>();
    const ResourceId r = store->add_resource("r");
    const StateId a = store->states().intern("a");
    const StateId b = store->states().intern("b");
    store->set_compression(policy);
    for (int round = 0; round < 10; ++round) {
      for (int k = 0; k < 10; ++k) {
        const TimeNs begin = 10 * (10 * round + k);
        store->add_state(r, k % 3 == 0 ? a : b, begin, begin + 10);
      }
      store->seal_chunk();
    }
    store->audit();
    for (const TimeNs t0 : {TimeNs{0}, TimeNs{55}, TimeNs{95}, TimeNs{500},
                            TimeNs{995}}) {
      for (const TimeNs t1 : {t0 + 5, t0 + 50, TimeNs{1000}}) {
        const TraceView view(store, t0, t1);
        std::vector<StateInterval> got;
        view.for_each(0, [&](const StateInterval& s) { got.push_back(s); });
        std::vector<StateInterval> overlapping;
        for (const StateInterval& s : got) {
          EXPECT_LT(s.begin, t1) << label << " [" << t0 << ", " << t1 << ")";
          if (s.end > t0) overlapping.push_back(s);
        }
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), interval_key_less))
            << label;
        const TimeNs first = t0 / 10 * 10;
        ASSERT_EQ(overlapping.size(),
                  static_cast<std::size_t>((std::min<TimeNs>(t1, 1000) -
                                            first + 9) / 10))
            << label << " [" << t0 << ", " << t1 << ")";
        for (std::size_t k = 0; k < overlapping.size(); ++k) {
          EXPECT_EQ(overlapping[k].begin,
                    first + 10 * static_cast<TimeNs>(k))
              << label;
        }
      }
    }
    // Only the newest chunk reaches 995, and only by its last interval.
    EXPECT_EQ(TraceView(store, 995, 1000).selected_count(), 1u) << label;
  }
}

TEST(TraceStore, OutstandingViewsSurviveEvictionAndCompaction) {
  auto store = std::make_shared<TraceStore>();
  const ResourceId r = store->add_resource("r");
  const StateId x = store->states().intern("s");
  store->add_state(r, x, 0, 10);
  store->seal_chunk();
  store->set_window(0, 100);
  const TraceView view(store, 0, 100);
  ASSERT_EQ(view.selected_count(), 1u);

  store->evict_before(50);  // unlinks the only chunk
  EXPECT_EQ(store->state_count(), 0u);
  // The view's snapshot still reads the unlinked chunk.
  std::size_t seen = 0;
  view.for_each(0, [&](const StateInterval& s) {
    EXPECT_EQ(s.begin, 0);
    EXPECT_EQ(s.end, 10);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

// ---------------------------------------------------------------------------
// View selection folds exactly like whole-trace builds.
// ---------------------------------------------------------------------------

TEST(TraceView, WindowSelectionFoldsBitIdenticalToWholeTraceBuild) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0xAB, seconds(30.0), 120);
  trace.seal();
  // Force a multi-chunk layout of the same multiset.
  Trace chunked;
  for (const auto& name : trace.states().names()) {
    (void)chunked.states().intern(name);
  }
  SplitMix64 mix(3);
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    chunked.add_resource(trace.resource_path(r));
    int n = 0;
    for (const auto& s : trace.intervals(r)) {
      chunked.add_state(r, s.state, s.begin, s.end);
      if (++n % 25 == 0) chunked.seal();  // several sealed runs per lane
    }
  }
  chunked.set_window(trace.begin(), trace.end());
  chunked.seal();

  for (const auto& [t0, t1] : std::vector<std::pair<TimeNs, TimeNs>>{
           {seconds(5.0), seconds(17.0)},
           {0, seconds(30.0)},
           {seconds(29.0), seconds(31.0)},
       }) {
    ModelBuildOptions opt;
    opt.slice_count = 24;
    opt.window_begin = t0;
    opt.window_end = t1;
    MicroscopicModel whole = build_model(trace, h, opt);
    const TraceView view(chunked.store(), t0, t1);
    EXPECT_LE(view.selected_count(), trace.state_count());
    MicroscopicModel pruned = build_model(view, h, opt);
    expect_models_equal(whole, pruned,
                        "window [" + std::to_string(t0) + ", " +
                            std::to_string(t1) + ")");
  }
}

TEST(TraceView, ScopedViewMatchesPrivateSubTrace) {
  const Hierarchy full = make_balanced_hierarchy(2, 3);  // 9 leaves
  // Scope: first cluster only (leaves 0..2).
  HierarchyBuilder b("root");
  const NodeId c = b.add(0, "n0_0");
  b.add_many(c, "n1_", 3);
  const Hierarchy sub = b.finish();

  Trace trace = make_random_trace(full, 0xCD, seconds(20.0), 80);
  trace.seal();

  // Private sub-trace holding only the scoped resources (all states
  // interned so |X| matches).
  Trace private_sub;
  for (const auto& name : trace.states().names()) {
    (void)private_sub.states().intern(name);
  }
  std::vector<ResourceId> scope;
  for (ResourceId r = 0; r < 3; ++r) {
    private_sub.add_resource(trace.resource_path(r));
    for (const auto& s : trace.intervals(r)) {
      private_sub.add_state(r, s.state, s.begin, s.end);
    }
    scope.push_back(r);
  }
  private_sub.set_window(trace.begin(), trace.end());
  private_sub.seal();

  ModelBuildOptions opt;
  opt.slice_count = 16;
  opt.window_begin = seconds(2.0);
  opt.window_end = seconds(18.0);
  MicroscopicModel expected = build_model(private_sub, sub, opt);
  const TraceView view(trace.store(), opt.window_begin, opt.window_end,
                       scope);
  ASSERT_EQ(view.resource_count(), 3u);
  MicroscopicModel got = build_model(view, sub, opt);
  expect_models_equal(expected, got, "scoped view");
}

TEST(TraceView, RequiresSealedTails) {
  auto store = std::make_shared<TraceStore>();
  const ResourceId r = store->add_resource("r");
  const StateId x = store->states().intern("s");
  store->add_state(r, x, 0, 10);
  EXPECT_THROW(TraceView(store, 0, 10), InvalidArgument);
  store->seal_chunk();
  EXPECT_NO_THROW(TraceView(store, 0, 10));
}

// ---------------------------------------------------------------------------
// IO equivalence property: write -> read, write -> stream, chunked-store
// ingest are bit-identical.
// ---------------------------------------------------------------------------

TEST(TraceStoreIo, ReadStreamAndChunkedIngestAreBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0xEF, seconds(25.0), 150);
  trace.seal();
  const std::string path = temp_path("property");
  write_binary_trace(trace, path);

  ModelBuildOptions opt;
  opt.slice_count = 30;

  Trace read = read_binary_trace(path);
  MicroscopicModel from_read = build_model(read, h, opt);
  MicroscopicModel from_stream = build_model_streaming(path, h, opt);
  expect_models_equal(from_read, from_stream, "read vs stream");

  // Tiny chunk budget: the ingest seals many chunks per resource and
  // exercises compaction — the fold must not notice.
  const auto store = read_binary_trace_store(path, /*chunk_records=*/64);
  EXPECT_EQ(store->state_count(), trace.state_count());
  MicroscopicModel from_store = build_model(TraceView(store), h, opt);
  expect_models_equal(from_read, from_store, "read vs chunked store");

  std::remove(path.c_str());
}

TEST(TraceStoreIo, EmptyTraceRoundTripsThroughStoreIngest) {
  Trace empty;
  (void)empty.states().intern("s");  // states table, zero records
  empty.add_resource("r");
  empty.set_window(0, seconds(1.0));
  empty.seal();
  const std::string path = temp_path("empty");
  write_binary_trace(empty, path);

  const auto store = read_binary_trace_store(path);
  EXPECT_EQ(store->state_count(), 0u);
  EXPECT_EQ(store->resource_count(), 1u);
  EXPECT_EQ(store->begin(), 0);
  EXPECT_EQ(store->end(), seconds(1.0));
  const TraceView view(store);
  EXPECT_EQ(view.selected_count(), 0u);

  Trace read = read_binary_trace(path);
  EXPECT_EQ(read.state_count(), 0u);
  EXPECT_EQ(read.end(), seconds(1.0));
  std::remove(path.c_str());
}

TEST(TraceStoreIo, WindowOverrideSurvivesStoreIngest) {
  const Hierarchy h = make_balanced_hierarchy(1, 2);
  Trace trace = make_random_trace(h, 0x11, seconds(10.0), 40);
  trace.set_window(-seconds(1.0), seconds(12.0));  // wider than the data
  trace.seal();
  const std::string path = temp_path("window");
  write_binary_trace(trace, path);

  const auto store = read_binary_trace_store(path, /*chunk_records=*/32);
  EXPECT_EQ(store->begin(), -seconds(1.0));
  EXPECT_EQ(store->end(), seconds(12.0));

  ModelBuildOptions opt;
  opt.slice_count = 26;
  Trace read = read_binary_trace(path);
  expect_models_equal(build_model(read, h, opt),
                      build_model(TraceView(store), h, opt),
                      "override window");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Backend polymorphism: spilled (file-backed) chunks are bit-identical to
// resident ones through every reader, mutation and layout change.
// ---------------------------------------------------------------------------

std::string spill_path(const std::string& name) {
  return "test_trace_store_" + name + ".spill";
}

/// Collects the streamed interval sequence of every view resource.
std::vector<std::vector<StateInterval>> stream_all(const TraceView& view) {
  std::vector<std::vector<StateInterval>> rows(view.resource_count());
  for (std::size_t r = 0; r < view.resource_count(); ++r) {
    view.for_each(r, [&rows, r](const StateInterval& s) {
      rows[r].push_back(s);
    });
  }
  return rows;
}

void expect_aggregations_equal(const MicroscopicModel& a,
                               const MicroscopicModel& b, std::size_t lanes,
                               const std::string& context) {
  AggregationOptions opt;
  opt.max_lanes = lanes;
  const std::vector<double> ps = {0.0, 0.25, 0.5, 0.75, 1.0};
  SpatiotemporalAggregator agg_a(a, opt);
  SpatiotemporalAggregator agg_b(b, opt);
  const auto ra = agg_a.run_many(ps);
  const auto rb = agg_b.run_many(ps);
  ASSERT_EQ(ra.size(), rb.size()) << context;
  for (std::size_t k = 0; k < ra.size(); ++k) {
    EXPECT_EQ(ra[k].optimal_pic, rb[k].optimal_pic)
        << context << " W=" << lanes << " p=" << ps[k];
    EXPECT_EQ(ra[k].partition.signature(), rb[k].partition.signature())
        << context << " W=" << lanes << " p=" << ps[k];
  }
}

/// Multi-chunk store of the given trace's events (several sealed runs per
/// lane so spill decisions have real choices).
Trace make_chunked_copy(const Trace& trace) {
  Trace chunked;
  for (const auto& name : trace.states().names()) {
    (void)chunked.states().intern(name);
  }
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    chunked.add_resource(trace.resource_path(r));
    int n = 0;
    for (const auto& s : trace.intervals(r)) {
      chunked.add_state(r, s.state, s.begin, s.end);
      if (++n % 25 == 0) chunked.seal();
    }
  }
  chunked.set_window(trace.begin(), trace.end());
  chunked.seal();
  return chunked;
}

TEST(TraceStoreSpill, SpillPinStreamBitIdenticalToResident) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace resident = make_random_trace(h, 0x51, seconds(25.0), 140);
  resident.seal();
  Trace chunked = make_chunked_copy(resident);
  const std::string spill = spill_path("property");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  ModelBuildOptions opt;
  opt.slice_count = 24;
  const MicroscopicModel want = build_model(resident, h, opt);

  // Budget 0: everything sealed leaves anonymous memory.
  const std::size_t total = chunked.store()->store_bytes();
  (void)chunked.store()->spill_cold(0);
  EXPECT_EQ(chunked.store()->resident_chunk_bytes(), 0u);
  EXPECT_GE(chunked.store()->spilled_chunk_bytes(), total / 2);
  EXPECT_EQ(chunked.state_count(), resident.state_count());

  const TraceView view(chunked.store());
  EXPECT_GT(view.spilled_run_count(), 0u);
  const MicroscopicModel spilled = build_model(view, h, opt);
  expect_models_equal(want, spilled, "fully spilled store");
  // The PR 4 layout-independence oracle, now across storage backends:
  // identical folds must aggregate identically at every lane width.
  expect_aggregations_equal(want, spilled, /*lanes=*/1, "spilled");
  expect_aggregations_equal(want, spilled, /*lanes=*/4, "spilled");

  // Pin everything back and fold again: backend swaps never touch data.
  const std::size_t pinned = chunked.store()->pin_all();
  EXPECT_GT(pinned, 0u);
  EXPECT_EQ(chunked.store()->spilled_chunk_bytes(), 0u);
  const MicroscopicModel repinned =
      build_model(TraceView(chunked.store()), h, opt);
  expect_models_equal(want, repinned, "spill -> pin round trip");
  expect_aggregations_equal(want, repinned, /*lanes=*/4, "repinned");

  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, PartialBudgetRespectsColdFirstOrderAndBudget) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  // Six adopted chunks (a seal per round would let compaction merge them;
  // adopted chunks stay as they are while the lane is under its bound).
  for (int round = 0; round < 6; ++round) {
    std::vector<StateInterval> run;
    for (int k = 0; k < 8; ++k) {
      const TimeNs b = 100 * round + k;
      run.push_back({b, b + 5, x});
    }
    t.store()->adopt_chunk(r, TraceChunk::from_sorted(run));
  }
  t.seal();
  const std::string spill = spill_path("budget");
  std::remove(spill.c_str());
  t.store()->enable_spill(spill);
  const std::size_t total = t.store()->resident_chunk_bytes();
  ASSERT_EQ(t.store()->chunks(r).size(), 6u);

  const std::size_t spilled_chunks = t.store()->spill_cold(total / 2);
  EXPECT_LE(t.store()->resident_chunk_bytes(), total / 2);
  EXPECT_EQ(spilled_chunks, 3u);
  // Coldest (smallest fence max-end) chunks went first: the oldest rounds
  // are file-backed, the newest stay resident.
  const auto chunks = t.store()->chunks(r);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i]->resident(), i >= 3) << "chunk " << i;
  }
  // Idempotent under the same budget.
  EXPECT_EQ(t.store()->spill_cold(total / 2), 0u);
  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, MidStreamSpillUnderOpenViewIsInvisible) {
  const Hierarchy h = make_balanced_hierarchy(1, 3);
  Trace trace = make_random_trace(h, 0x52, seconds(10.0), 60);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string spill = spill_path("midstream");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  const TraceView before(chunked.store());
  const auto want = stream_all(before);

  // Spill the whole store while `before` is mid-stream: the view pinned
  // its chunks by reference and must not notice.
  bool spilled_mid_stream = false;
  std::vector<std::vector<StateInterval>> got(before.resource_count());
  for (std::size_t r = 0; r < before.resource_count(); ++r) {
    before.for_each(r, [&](const StateInterval& s) {
      if (!spilled_mid_stream) {
        (void)chunked.store()->spill_cold(0);
        spilled_mid_stream = true;
      }
      got[r].push_back(s);
    });
  }
  ASSERT_TRUE(spilled_mid_stream);
  EXPECT_EQ(got, want);

  // A fresh view over the now-spilled store streams the same sequence —
  // even after the spill file is unlinked (mapped pages stay alive) and
  // after the store pins chunks back mid-lifetime.
  const TraceView after(chunked.store());
  EXPECT_GT(after.spilled_run_count(), 0u);
  std::remove(spill.c_str());
  EXPECT_EQ(stream_all(after), want);
  (void)chunked.store()->pin_all();
  EXPECT_EQ(stream_all(after), want);
}

TEST(TraceStoreSpill, SpillThenEvictBeforePreservesSuffixWindows) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0x53, seconds(20.0), 100);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string spill = spill_path("evict");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);
  (void)chunked.store()->spill_cold(0);

  const TimeNs cutoff = seconds(9.0);
  const auto before = chunked.state_count();
  chunked.store()->evict_before(cutoff);
  EXPECT_LT(chunked.state_count(), before)
      << "fence eviction must unlink dead spilled chunks too";

  ModelBuildOptions opt;
  opt.slice_count = 22;
  opt.window_begin = cutoff;
  opt.window_end = seconds(20.0);
  expect_models_equal(
      build_model(trace, h, opt),
      build_model(TraceView(chunked.store(), cutoff, seconds(20.0)), h, opt),
      "post-evict suffix window over spilled store");
  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, CompactionPinsSpilledChunksAndPreservesRows) {
  // Regression (satellite): size-tier compaction across a *mixed*
  // resident/spilled lane must pin file-backed members before merging —
  // and the merged rows must equal a never-spilled single-seal store.
  Trace mixed;
  Trace once;
  const ResourceId rm = mixed.add_resource("r");
  const ResourceId ro = once.add_resource("r");
  (void)mixed.states().intern("s");
  (void)once.states().intern("s");
  const std::string spill = spill_path("compaction");
  std::remove(spill.c_str());
  mixed.store()->enable_spill(spill);

  SplitMix64 mix(0x54);
  const int rounds = 3 * static_cast<int>(kChunkBound);
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < 4; ++k) {
      const auto b = static_cast<TimeNs>(mix.next() % 10000);
      mixed.add_state(rm, StateId{0}, b, b + 7);
      once.add_state(ro, StateId{0}, b, b + 7);
    }
    mixed.seal();  // one chunk per round; compaction past the threshold
    // Keep roughly half of every lane file-backed so each compaction
    // merges across spilled chunks.
    (void)mixed.store()->spill_cold(mixed.store()->resident_chunk_bytes() /
                                    2);
  }
  once.seal();
  EXPECT_LE(mixed.store()->chunks(rm).size(),
            kChunkBound + 1);
  EXPECT_GT(mixed.store()->spilled_chunk_bytes(), 0u);
  const auto a = mixed.intervals(rm);
  const auto e = once.intervals(ro);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
  std::remove(spill.c_str());
}

// ---------------------------------------------------------------------------
// Chunk files: zero-copy open, loud rejection of truncation/corruption.
// ---------------------------------------------------------------------------

TEST(TraceStoreIo, ChunkFileReopensZeroCopyAndFoldsBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0x61, seconds(25.0), 150);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string path = temp_path("chunkfile");
  const std::uint64_t bytes = write_chunk_file(*chunked.store(), path);
  EXPECT_GT(bytes, 0u);
  ASSERT_TRUE(is_chunk_file(path));

  // read_binary_trace_store sniffs the magic and takes the mmap path:
  // nothing is rehydrated, the store starts fully file-backed.
  const auto store = read_binary_trace_store(path);
  EXPECT_EQ(store->state_count(), trace.state_count());
  EXPECT_EQ(store->resident_chunk_bytes(), 0u);
  EXPECT_GT(store->spilled_chunk_bytes(), 0u);
  EXPECT_EQ(store->begin(), trace.begin());
  EXPECT_EQ(store->end(), trace.end());

  ModelBuildOptions opt;
  opt.slice_count = 30;
  const MicroscopicModel want = build_model(trace, h, opt);
  const MicroscopicModel mapped = build_model(TraceView(store), h, opt);
  expect_models_equal(want, mapped, "mmapped chunk file");
  expect_aggregations_equal(want, mapped, /*lanes=*/1, "mmapped chunk file");
  expect_aggregations_equal(want, mapped, /*lanes=*/4, "mmapped chunk file");

  // The Trace facade reader sniffs too.
  Trace reread = read_binary_trace(path);
  EXPECT_EQ(reread.state_count(), trace.state_count());
  expect_models_equal(want, build_model(reread, h, opt),
                      "chunk file through the facade reader");
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ChunkFileRejectsTruncationAndCorruptionWithOffsets) {
  // One resource, one state, one 3-interval chunk: a fixed layout whose
  // offsets the corruption below can target deterministically.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 10);
  t.add_state(r, x, 5, 25);
  t.add_state(r, x, 20, 30);
  t.seal();
  const std::string path = temp_path("corrupt");
  write_chunk_file(*t.store(), path);

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 60u);

  const auto write_bytes_to = [&](const std::string& p,
                                  const std::vector<char>& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  const auto expect_throws_with = [&](const std::string& p,
                                      const std::string& needle) {
    try {
      (void)read_binary_trace_store(p);
      FAIL() << "expected TraceFormatError mentioning '" << needle << "'";
    } catch (const TraceFormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  };

  // Truncated payload: drop the trailing 12 bytes of the only chunk.
  std::vector<char> truncated(bytes.begin(), bytes.end() - 12);
  write_bytes_to(path, truncated);
  expect_throws_with(path, "truncated chunk");

  // Bit flip inside the state column (bytes.size()-4 is record padding for
  // a 3-entry chunk; -5 is the last state byte): checksum must trip.
  std::vector<char> corrupt = bytes;
  corrupt[corrupt.size() - 5] ^= 0x40;
  write_bytes_to(path, corrupt);
  expect_throws_with(path, "checksum mismatch");

  // And the pristine bytes must still open cleanly.
  write_bytes_to(path, bytes);
  EXPECT_NO_THROW((void)read_binary_trace_store(path));
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ChunkFileRewriteOverItsOwnMappingIsSafe) {
  // Writing a chunk file over the very file the store's chunks are mapped
  // from must not truncate the pages mid-read (write-to-temp + rename).
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  for (int k = 0; k < 32; ++k) t.add_state(r, x, k * 10, k * 10 + 5);
  t.seal();
  const std::string path = temp_path("self_rewrite");
  write_chunk_file(*t.store(), path);

  const auto mapped = read_binary_trace_store(path);
  ASSERT_EQ(mapped->resident_chunk_bytes(), 0u);
  const std::uint64_t rewritten = write_chunk_file(*mapped, path);
  EXPECT_GT(rewritten, 0u);
  // The mapped store still reads its (pre-rename) pages, and the new file
  // reopens to the same content.
  EXPECT_EQ(mapped->state_count(), 32u);
  const auto reopened = read_binary_trace_store(path);
  EXPECT_EQ(reopened->state_count(), 32u);
  std::remove(path.c_str());
}

TEST(TraceStoreSpill, SpillRefusesForeignOrMisalignedFiles) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.add_state(r, x, 0, 10);
  t.seal();
  const std::string foreign = spill_path("foreign");
  {
    std::ofstream out(foreign, std::ios::binary | std::ios::trunc);
    out << "definitely not a spill file";
  }
  t.store()->enable_spill(foreign);
  EXPECT_THROW((void)t.store()->spill_cold(0), IoError);
  std::remove(foreign.c_str());
}

// ---------------------------------------------------------------------------
// Compressed backend: encoded chunks are bit-identical to raw ones through
// every reader, backend mix, mutation and file round trip.
// ---------------------------------------------------------------------------

/// Multi-chunk copy of the trace sealed under a compression policy set
/// *before* ingest (the seal-time encode path, as opposed to the
/// set_compression re-encode sweep).
Trace make_compressed_copy(const Trace& trace) {
  Trace out;
  for (const auto& name : trace.states().names()) {
    (void)out.states().intern(name);
  }
  out.store()->set_compression(ChunkCompression::kAuto);
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    out.add_resource(trace.resource_path(r));
    int n = 0;
    for (const auto& s : trace.intervals(r)) {
      out.add_state(r, s.state, s.begin, s.end);
      if (++n % 25 == 0) out.seal();
    }
  }
  out.set_window(trace.begin(), trace.end());
  out.seal();
  return out;
}

std::size_t count_chunks(const TraceStore& store, bool addressable,
                         bool resident) {
  std::size_t n = 0;
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    for (const TraceChunkPtr& c : store.chunks(r)) {
      if (c->addressable() == addressable && c->resident() == resident) ++n;
    }
  }
  return n;
}

TEST(TraceStoreCompress, AutoPolicyShrinksStoreAndFoldsBitIdentical) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace resident = make_random_trace(h, 0x71, seconds(25.0), 140);
  resident.seal();
  ModelBuildOptions opt;
  opt.slice_count = 24;
  const MicroscopicModel want = build_model(resident, h, opt);

  // Raw multi-chunk twin for the byte comparison.
  Trace raw = make_chunked_copy(resident);
  const std::size_t raw_bytes = raw.store()->store_bytes();

  // Seal-time path: the policy encodes every chunk as it seals.
  Trace sealed = make_compressed_copy(resident);
  EXPECT_EQ(sealed.store()->compression(), ChunkCompression::kAuto);
  EXPECT_LT(sealed.store()->store_bytes(), raw_bytes);
  EXPECT_GT(count_chunks(*sealed.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  const TraceView view(sealed.store());
  EXPECT_GT(view.compressed_run_count(), 0u);
  EXPECT_GT(view.cursor_scratch_bytes(), 0u);
  // The cursor scratch is bounded: fixed decoder state per run, far from
  // a decompressed copy of the store.
  EXPECT_LT(view.cursor_scratch_bytes(), raw_bytes / 4);
  const MicroscopicModel compressed = build_model(view, h, opt);
  expect_models_equal(want, compressed, "seal-time compressed store");
  expect_aggregations_equal(want, compressed, /*lanes=*/1, "compressed");
  expect_aggregations_equal(want, compressed, /*lanes=*/4, "compressed");

  // Re-encode sweep: set_compression(kAuto) on already-sealed raw chunks
  // rewrites them in place, shrinking the store without touching results.
  raw.store()->set_compression(ChunkCompression::kAuto);
  EXPECT_LT(raw.store()->store_bytes(), raw_bytes);
  expect_models_equal(want, build_model(TraceView(raw.store()), h, opt),
                      "re-encoded store");
  // Dropping back to kNone stops future encoding but never rewrites what
  // is already sealed.
  const std::size_t encoded_bytes = raw.store()->store_bytes();
  raw.store()->set_compression(ChunkCompression::kNone);
  EXPECT_EQ(raw.store()->store_bytes(), encoded_bytes);
}

TEST(TraceStoreCompress, MixedBackendStoreFoldsBitIdenticalAtW1AndW4) {
  // All three payload backends in one store — resident raw, mapped raw,
  // compressed (resident and mapped) — folded through one view against
  // the PR 4/5 oracles at both lane widths.
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace resident = make_random_trace(h, 0x72, seconds(25.0), 140);
  resident.seal();
  Trace chunked = make_chunked_copy(resident);
  const std::string spill = spill_path("mixed");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  // Half the raw chunks to the file, then compress what stayed resident.
  (void)chunked.store()->spill_cold(chunked.store()->store_bytes() / 2);
  ASSERT_GT(count_chunks(*chunked.store(), /*addressable=*/true,
                         /*resident=*/false),
            0u);
  chunked.store()->set_compression(ChunkCompression::kAuto);
  ASSERT_GT(count_chunks(*chunked.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  // Spilling again writes compressed records: mapped compressed chunks.
  (void)chunked.store()->spill_cold(
      chunked.store()->resident_chunk_bytes() / 2);
  ASSERT_GT(count_chunks(*chunked.store(), /*addressable=*/false,
                         /*resident=*/false),
            0u);

  ModelBuildOptions opt;
  opt.slice_count = 24;
  const MicroscopicModel want = build_model(resident, h, opt);
  const TraceView view(chunked.store());
  EXPECT_GT(view.spilled_run_count(), 0u);
  EXPECT_GT(view.compressed_run_count(), 0u);
  const MicroscopicModel mixed = build_model(view, h, opt);
  expect_models_equal(want, mixed, "mixed-backend store");
  expect_aggregations_equal(want, mixed, /*lanes=*/1, "mixed backends");
  expect_aggregations_equal(want, mixed, /*lanes=*/4, "mixed backends");
  std::remove(spill.c_str());
}

TEST(TraceStoreCompress, MidStreamCompressAndSpillUnderOpenViewIsInvisible) {
  const Hierarchy h = make_balanced_hierarchy(1, 3);
  Trace trace = make_random_trace(h, 0x73, seconds(10.0), 60);
  trace.seal();
  Trace chunked = make_chunked_copy(trace);
  const std::string spill = spill_path("midcompress");
  std::remove(spill.c_str());
  chunked.store()->enable_spill(spill);

  const TraceView before(chunked.store());
  const auto want = stream_all(before);

  // Re-encode the whole store AND spill it while `before` is mid-stream:
  // the view pinned its chunks by shared pointer and must not notice.
  bool mutated_mid_stream = false;
  std::vector<std::vector<StateInterval>> got(before.resource_count());
  for (std::size_t r = 0; r < before.resource_count(); ++r) {
    before.for_each(r, [&](const StateInterval& s) {
      if (!mutated_mid_stream) {
        chunked.store()->set_compression(ChunkCompression::kAuto);
        (void)chunked.store()->spill_cold(0);
        mutated_mid_stream = true;
      }
      got[r].push_back(s);
    });
  }
  ASSERT_TRUE(mutated_mid_stream);
  EXPECT_EQ(got, want);

  // A fresh view streams the compressed records from the file; the
  // spilled accounting counts *encoded* bytes, so the file-backed side is
  // smaller than the raw columns it replaced.
  const TraceView after(chunked.store());
  EXPECT_GT(after.compressed_run_count(), 0u);
  EXPECT_EQ(stream_all(after), want);
  EXPECT_EQ(chunked.store()->resident_chunk_bytes(), 0u);
  EXPECT_LT(chunked.store()->spilled_chunk_bytes(),
            trace.store()->store_bytes());

  // Pinning back keeps chunks compressed (compressed-resident copies) and
  // bit-identical.
  (void)chunked.store()->pin_all();
  EXPECT_EQ(chunked.store()->spilled_chunk_bytes(), 0u);
  EXPECT_GT(count_chunks(*chunked.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  EXPECT_EQ(stream_all(TraceView(chunked.store())), want);
  std::remove(spill.c_str());
}

TEST(TraceStoreCompress, MixedBackendCompactionPreservesRows) {
  // Size-tier compaction over lanes mixing raw-mapped, compressed-resident
  // and compressed-mapped members: the cursor-based merge must reproduce a
  // never-spilled never-compressed single-seal store exactly.
  Trace mixed;
  Trace once;
  const ResourceId rm = mixed.add_resource("r");
  const ResourceId ro = once.add_resource("r");
  (void)mixed.states().intern("s");
  (void)once.states().intern("s");
  const std::string spill = spill_path("mixed_compaction");
  std::remove(spill.c_str());
  mixed.store()->enable_spill(spill);

  SplitMix64 mix(0x74);
  const int rounds = 3 * static_cast<int>(kChunkBound);
  for (int round = 0; round < rounds; ++round) {
    // Raw chunks for the first tier, compressed ones from then on.
    if (round == static_cast<int>(kChunkBound)) {
      mixed.store()->set_compression(ChunkCompression::kAuto);
    }
    for (int k = 0; k < 4; ++k) {
      const auto b = static_cast<TimeNs>(mix.next() % 10000);
      mixed.add_state(rm, StateId{0}, b, b + 7);
      once.add_state(ro, StateId{0}, b, b + 7);
    }
    mixed.seal();
    (void)mixed.store()->spill_cold(mixed.store()->resident_chunk_bytes() /
                                    2);
  }
  once.seal();
  EXPECT_LE(mixed.store()->chunks(rm).size(),
            kChunkBound + 1);
  const auto a = mixed.intervals(rm);
  const auto e = once.intervals(ro);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], e[i]) << i;
  std::remove(spill.c_str());
}

TEST(TraceStoreSpill, SpillFileCompactionBoundsChurnGrowth) {
  // Churn regression (satellite): seal/spill/evict cycles keep appending
  // records and killing old ones.  Without compaction the spill file
  // grows without bound; with it, dead bytes never exceed live bytes and
  // the file stays within a small multiple of the live payload.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  const std::string spill = spill_path("churn");
  std::remove(spill.c_str());
  t.store()->enable_spill(spill);

  const auto file_size = [&]() -> std::size_t {
    std::ifstream in(spill, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::size_t>(in.tellg()) : 0;
  };

  SplitMix64 mix(0x75);
  std::vector<StateInterval> added;
  std::size_t max_file = 0;
  for (int round = 0; round < 120; ++round) {
    const TimeNs base = round * 1000;
    for (int k = 0; k < 25; ++k) {
      const auto b = base + static_cast<TimeNs>(mix.next() % 1000);
      t.add_state(r, x, b, b + 40);
      added.push_back({b, b + 40, x});
    }
    t.seal();
    (void)t.store()->spill_cold(0);
    // A trailing 8-round window: everything older dies, so most of the
    // file's records are garbage within a few rounds.
    if (round >= 8) t.store()->evict_before((round - 8) * 1000);

    EXPECT_LE(t.store()->spill_dead_bytes(), t.store()->spill_live_bytes())
        << "round " << round
        << ": compaction must run before dead bytes overtake live bytes";
    // live + dead + magic/padding slack bounds the file.
    EXPECT_LE(file_size(), 2 * t.store()->spill_live_bytes() + 4096)
        << "round " << round;
    max_file = std::max(max_file, file_size());
  }
  ASSERT_GT(t.store()->spill_live_bytes(), 0u);
  // The whole churn wrote ~120 rounds of records; the file never held
  // more than a small multiple of one round's live set.
  EXPECT_LT(max_file, 8 * t.store()->spill_live_bytes() + 4096);

  // Eviction drops only whole dead chunks, so survivors may reach behind
  // the horizon — but everything at or past it must be present exactly.
  const TimeNs horizon = (119 - 8) * 1000;
  std::vector<StateInterval> expected;
  for (const auto& s : added) {
    if (s.begin >= horizon) expected.push_back(s);
  }
  std::sort(expected.begin(), expected.end(), interval_key_less);
  std::vector<StateInterval> got;
  for (const auto& s : t.intervals(r)) {
    if (s.begin >= horizon) got.push_back(s);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << i;
  }
  std::remove(spill.c_str());
}

TEST(TraceStoreIo, CompressedChunkFileRoundTripsAndRejectsCorruption) {
  // A compression-enabled store writes v2 records that keep the encoded
  // sections; reopening streams them zero-copy from the mapping, and any
  // tampering is rejected with the record's file offset.
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  t.store()->set_compression(ChunkCompression::kAuto);
  TimeNs at = 0;
  for (int k = 0; k < 40; ++k) {
    t.add_state(r, x, at, at + 250);
    at += 250;
  }
  t.seal();
  ASSERT_GT(count_chunks(*t.store(), /*addressable=*/false,
                         /*resident=*/true),
            0u);
  const std::string path = temp_path("compressed_chunkfile");
  write_chunk_file(*t.store(), path);
  ASSERT_TRUE(is_chunk_file(path));

  const auto reopened = read_binary_trace_store(path);
  EXPECT_EQ(reopened->state_count(), 40u);
  // The record stays encoded on disk and maps back as a compressed chunk:
  // nothing resident, and the file-backed bytes are the encoded ones.
  EXPECT_EQ(reopened->resident_chunk_bytes(), 0u);
  EXPECT_GT(reopened->spilled_chunk_bytes(), 0u);
  EXPECT_LT(reopened->spilled_chunk_bytes(), 40u * 20u);
  EXPECT_EQ(stream_all(TraceView(reopened)), stream_all(TraceView(t.store())));

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Fixed layout: 48-byte file header, "r" + "s" tables (10 bytes) padded
  // to 64, then the 72-byte record header — the encoded begin section
  // starts at 136.
  ASSERT_GT(bytes.size(), 140u);

  const auto write_bytes_to = [&](const std::string& p,
                                  const std::vector<char>& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  const auto expect_throws_with = [&](const std::string& p,
                                      const std::string& needle) {
    try {
      (void)read_binary_trace_store(p);
      FAIL() << "expected TraceFormatError mentioning '" << needle << "'";
    } catch (const TraceFormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  };

  // Truncated encoded payload.
  std::vector<char> truncated(bytes.begin(), bytes.end() - 12);
  write_bytes_to(path, truncated);
  expect_throws_with(path, "truncated chunk");

  // Bit flip inside the encoded begin section: checksum must trip.
  std::vector<char> corrupt = bytes;
  corrupt[136] ^= 0x40;
  write_bytes_to(path, corrupt);
  expect_throws_with(path, "checksum mismatch");

  // Invalid codec tag (end column claiming the begin-only gap codec; byte
  // 69 is the record header's end-codec tag).
  std::vector<char> bad_codec = bytes;
  bad_codec[69] = 4;
  write_bytes_to(path, bad_codec);
  expect_throws_with(path, "invalid chunk codec tags");

  // Pristine bytes still open and fold identically.
  write_bytes_to(path, bytes);
  EXPECT_EQ(stream_all(TraceView(read_binary_trace_store(path))),
            stream_all(TraceView(t.store())));
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ChunkFileV1IsRejectedNamingPath) {
  // The retired v1 chunk format (magic "STGCHK01", raw columns, 40-byte
  // record headers) is no longer read: a well-formed v1 file synthesized
  // byte-for-byte is not a chunk file, and both open paths refuse it with
  // a TraceFormatError that names the file.  The same bytes are committed
  // as fuzz/corpus/regressions/chunk_file/v1_rejected.bin.
  std::vector<std::uint8_t> bytes;
  const auto append_pod = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  };
  const auto append_string = [&](const std::string& s) {
    append_pod(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  };
  const char magic[8] = {'S', 'T', 'G', 'C', 'H', 'K', '0', '1'};
  bytes.insert(bytes.end(), magic, magic + 8);
  append_pod(std::uint64_t{1});  // resources
  append_pod(std::uint64_t{1});  // states
  append_pod(TimeNs{0});         // window begin
  append_pod(TimeNs{30});        // window end
  append_pod(std::uint64_t{1});  // chunk count
  append_string("r");
  append_string("s");
  while (bytes.size() % 8 != 0) bytes.push_back(0);

  const TimeNs begins[3] = {0, 5, 20};
  const TimeNs ends[3] = {10, 25, 30};
  const StateId states[3] = {0, 0, 0};
  std::uint64_t checksum = 1469598103934665603ull;
  const auto fnv = [&](const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      checksum ^= p[i];
      checksum *= 1099511628211ull;
    }
  };
  fnv(begins, sizeof begins);
  fnv(ends, sizeof ends);
  fnv(states, sizeof states);

  // v1 record header: u32 resource | pad | u64 count | i64 min_end |
  // i64 max_end | u64 checksum = 40 bytes, then raw columns padded to 8.
  append_pod(std::uint32_t{0});
  append_pod(std::uint32_t{0});
  append_pod(std::uint64_t{3});
  append_pod(TimeNs{10});
  append_pod(TimeNs{30});
  append_pod(checksum);
  for (const TimeNs b : begins) append_pod(b);
  for (const TimeNs e : ends) append_pod(e);
  for (const StateId s : states) append_pod(s);
  append_pod(std::uint32_t{0});  // state-column pad to 8

  const std::string path = temp_path("v1_rejected");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(is_chunk_file(path));
  const auto expect_rejected = [&](const auto& open, const char* api) {
    try {
      (void)open();
      ADD_FAILURE() << api << " accepted a v1 chunk file";
    } catch (const TraceFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << api << ": " << e.what();
    }
  };
  expect_rejected([&] { return read_binary_trace_store(path); },
                  "read_binary_trace_store");
  expect_rejected([&] { return open_chunk_file_store(path); },
                  "open_chunk_file_store");
  std::remove(path.c_str());
}

TEST(TraceStoreIo, EvictBeforeMidStreamPreservesSuffixWindows) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  Trace trace = make_random_trace(h, 0x22, seconds(20.0), 120);
  trace.seal();
  const std::string path = temp_path("evict");
  write_binary_trace(trace, path);

  const auto store = read_binary_trace_store(path, /*chunk_records=*/64);
  const TimeNs cutoff = seconds(8.0);
  store->evict_before(cutoff);

  // Any window at or past the cutoff folds bit-identically to the
  // unevicted trace.
  ModelBuildOptions opt;
  opt.slice_count = 18;
  opt.window_begin = cutoff;
  opt.window_end = seconds(20.0);
  Trace read = read_binary_trace(path);
  expect_models_equal(
      build_model(read, h, opt),
      build_model(TraceView(store, opt.window_begin, opt.window_end), h, opt),
      "post-evict suffix window");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Columnar STGT load on hand-built files: record order, corruption and
// lying headers are under the test's control, byte for byte.
// ---------------------------------------------------------------------------

struct RawRecord {
  std::uint32_t resource = 0;
  std::uint32_t state = 0;
  TimeNs begin = 0;
  TimeNs end = 0;
};

/// Writes an STGT file with the records in the given order and returns the
/// record section's file offset.  `declared_count` overrides the header's
/// record count (a lying header); by default it is records.size().
std::uint64_t write_raw_stgt(const std::string& path,
                             const std::vector<std::string>& resources,
                             const std::vector<std::string>& states,
                             TimeNs window_end,
                             const std::vector<RawRecord>& records,
                             std::optional<std::uint64_t> declared_count = {}) {
  std::vector<std::uint8_t> bytes;
  const auto append_pod = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  };
  const auto append_string = [&](const std::string& s) {
    append_pod(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  };
  const char magic[8] = {'S', 'T', 'G', 'T', 'R', 'C', '0', '1'};
  bytes.insert(bytes.end(), magic, magic + 8);
  append_pod(static_cast<std::uint64_t>(resources.size()));
  append_pod(static_cast<std::uint64_t>(states.size()));
  append_pod(TimeNs{0});
  append_pod(window_end);
  append_pod(declared_count.value_or(records.size()));
  for (const std::string& r : resources) append_string(r);
  for (const std::string& s : states) append_string(s);
  const std::uint64_t records_base = bytes.size();
  for (const RawRecord& rec : records) {
    append_pod(rec.resource);
    append_pod(rec.state);
    append_pod(rec.begin);
    append_pod(rec.end);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return records_base;
}

/// Records interleaved across resources and unsorted within each (edge
/// timing: zero durations and exact duplicates included).  The tests ask
/// for 20 000, which span several load ranges on a multi-core host.
std::vector<RawRecord> make_shuffled_records(std::size_t resources,
                                             std::size_t count,
                                             TimeNs span) {
  SplitMix64 mix(0x5EED);
  std::vector<RawRecord> records;
  records.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    RawRecord rec;
    rec.resource = static_cast<std::uint32_t>(mix.next() % resources);
    rec.state = static_cast<std::uint32_t>(mix.next() % 3);
    rec.begin = static_cast<TimeNs>(mix.next() % static_cast<std::uint64_t>(span));
    const TimeNs d = mix.next() % 8 == 0
                         ? 0
                         : static_cast<TimeNs>(mix.next() % (span / 16));
    rec.end = rec.begin + d;
    records.push_back(rec);
    if (mix.next() % 16 == 0) records.push_back(rec);  // exact duplicate
  }
  return records;
}

TEST(TraceStoreIo, ColumnarLoadOfInterleavedUnsortedRecordsMatchesStreaming) {
  const Hierarchy h = make_balanced_hierarchy(2, 3);
  std::vector<std::string> resources;
  for (LeafId leaf = 0; leaf < static_cast<LeafId>(h.leaf_count()); ++leaf) {
    resources.push_back(h.path(h.leaf_node(leaf)));
  }
  const TimeNs span = seconds(10.0);
  const std::vector<RawRecord> records =
      make_shuffled_records(resources.size(), 20000, span);
  const std::string path = temp_path("shuffled");
  write_raw_stgt(path, resources, {"a", "b", "c"}, span, records);

  // Expected rows: each resource's records sorted by the total key.
  std::vector<std::vector<StateInterval>> expected(resources.size());
  for (const RawRecord& rec : records) {
    expected[rec.resource].push_back(
        {rec.begin, rec.end, static_cast<StateId>(rec.state)});
  }
  for (auto& row : expected) {
    std::sort(row.begin(), row.end(), interval_key_less);
  }
  // Fold oracle: the streaming fold of the canonical file of the same
  // multiset.  (Streaming the shuffled file itself sums each resource in
  // file order, so its cells can differ from any sorted fold in the last
  // ulp; the store's fold depends only on the multiset.)
  Trace canonical;
  for (const std::string& name : {"a", "b", "c"}) {
    (void)canonical.states().intern(name);
  }
  for (const std::string& r : resources) canonical.add_resource(r);
  for (const RawRecord& rec : records) {
    canonical.add_state(static_cast<ResourceId>(rec.resource),
                        static_cast<StateId>(rec.state), rec.begin, rec.end);
  }
  canonical.set_window(0, span);
  const std::string canonical_path = temp_path("shuffled_canonical");
  write_binary_trace(canonical, canonical_path);
  ModelBuildOptions opt;
  opt.slice_count = 30;
  const MicroscopicModel streamed =
      build_model_streaming(canonical_path, h, opt);
  std::remove(canonical_path.c_str());

  for (const std::size_t chunk_records :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{0}}) {
    const std::string context =
        "chunk_records " + (chunk_records == 0 ? std::string("default")
                                               : std::to_string(chunk_records));
    const auto store = chunk_records == 0
                           ? read_binary_trace_store(path)
                           : read_binary_trace_store(path, chunk_records);
    EXPECT_NO_THROW(store->audit()) << context;
    EXPECT_EQ(store->state_count(), records.size()) << context;
    for (std::size_t r = 0; r < resources.size(); ++r) {
      EXPECT_LE(store->chunks(static_cast<ResourceId>(r)).size(),
                kChunkBound)
          << context;
    }
    EXPECT_EQ(stream_all(TraceView(store)), expected) << context;
    expect_models_equal(streamed, build_model(TraceView(store), h, opt),
                        context);
  }
  std::remove(path.c_str());
}

TEST(TraceStoreIo, ColumnarLoadReportsTheFirstBadRecordOfTheFile) {
  const std::vector<std::string> resources = {"r0", "r1", "r2"};
  std::vector<RawRecord> records =
      make_shuffled_records(resources.size(), 20000, seconds(1.0));
  const std::size_t early = 5;
  const std::size_t late = records.size() - 3;  // in the last load range
  records[early].state = 99;                    // unknown state
  records[late].end = records[late].begin - 1;  // end < begin
  const std::string path = temp_path("corrupt");
  const std::uint64_t base =
      write_raw_stgt(path, resources, {"a", "b", "c"}, seconds(1.0), records);

  const auto error_of = [](const auto& read) {
    try {
      read();
    } catch (const TraceFormatError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto store_error = [&] {
    return error_of([&] { (void)read_binary_trace_store(path); });
  };
  const auto stream_error = [&] {
    return error_of([&] {
      stream_binary_trace(path, [](std::span<const TraceRecord>) {});
    });
  };
  // Exactly the streaming decoder's message, naming the lower offset.
  EXPECT_EQ(store_error(),
            "trace format error: record references unknown state in '" +
                path + "' at offset " +
                std::to_string(base + early * StgtRecordDecoder::kRecordBytes));
  EXPECT_EQ(store_error(), stream_error());

  // With the early record repaired, the last range's error surfaces.
  records[early].state = 0;
  write_raw_stgt(path, resources, {"a", "b", "c"}, seconds(1.0), records);
  EXPECT_EQ(store_error(),
            "trace format error: record with end < begin in '" + path +
                "' at offset " +
                std::to_string(base + late * StgtRecordDecoder::kRecordBytes));
  EXPECT_EQ(store_error(), stream_error());
  std::remove(path.c_str());
}

TEST(TraceStoreIo, DuplicateResourcePathIsRejected) {
  // File ids index the store's lanes: a duplicate path must not merge two
  // lanes and shift every later id.
  const std::string path = temp_path("duplicate_path");
  const std::vector<RawRecord> records = {RawRecord{2, 0, 0, 10}};
  write_raw_stgt(path, {"r0", "r1", "r0"}, {"s"}, 10, records);
  try {
    (void)read_binary_trace_store(path);
    ADD_FAILURE() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate resource path 'r0'"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// Also a seed of the chunk_file fuzz corpus
// (fuzz/corpus/regressions/chunk_file/huge_record_count.bin).
TEST(TraceStoreIo, HugeRecordCountFailsAsTruncationNotAllocation) {
  const std::string path = temp_path("huge_count");
  const std::vector<RawRecord> one = {RawRecord{0, 0, 0, 10}};
  write_raw_stgt(path, {"r"}, {"s"}, 10, one, std::uint64_t{1} << 61);
  const auto expect_truncation = [&](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "expected TraceFormatError";
    } catch (const TraceFormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("truncated"), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  };
  expect_truncation([&] { (void)read_binary_trace_store(path); });
  expect_truncation([&] { (void)read_binary_trace_store(path, 1); });
  expect_truncation([&] {
    stream_binary_trace(path, [](std::span<const TraceRecord>) {},
                        std::size_t{1} << 40);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stagg
