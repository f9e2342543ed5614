// IngestPipeline suite: the staged parse -> seal -> advance pipeline must
// be *bit-identical* at every sealed watermark to the synchronous
// append + advance_to loop (which is itself pinned to the kReference
// oracle), and a throttled advance worker must throttle the
// producer through bounded queues — no drops, no per-resource reorders,
// no unbounded depth.
#include "core/ingest_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/aggregator.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/hierarchy.hpp"
#include "trace/trace.hpp"
#include "workload/stream_split.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

Trace make_synthetic_trace(const Hierarchy& hierarchy, double span_s,
                           std::uint64_t seed) {
  const auto programmer = [span_s](LeafId leaf) {
    ResourceProgram p;
    const double split = span_s * 0.5;
    p.phases.push_back(
        {0.0, split,
         StatePattern{{{"compute", 0.05, 0.35}, {"send", 0.02, 0.3}}}});
    p.phases.push_back(
        {split, span_s,
         StatePattern{{{"compute", 0.04, 0.25},
                       {"wait", leaf % 2 == 0 ? 0.05 : 0.02, 0.45},
                       {"send", 0.02, 0.25}}}});
    return p;
  };
  return generate_trace(hierarchy, programmer, seed);
}

/// Comparable fingerprint of one AggregationResult (the bit-identity
/// fields the whole library pins against its oracles).
struct ResultKey {
  double p = 0;
  double optimal_pic = 0;
  std::uint64_t signature = 0;
  double gain = 0;
  double loss = 0;

  bool operator==(const ResultKey&) const = default;
};

std::vector<ResultKey> keys_of(const std::vector<AggregationResult>& rs) {
  std::vector<ResultKey> keys;
  keys.reserve(rs.size());
  for (const AggregationResult& r : rs) {
    keys.push_back({r.p, r.optimal_pic, r.partition.signature(),
                    r.measures.gain, r.measures.loss});
  }
  return keys;
}

/// Per-watermark snapshot of every session's results.
struct Snapshot {
  TimeNs watermark = 0;
  std::vector<std::vector<ResultKey>> sessions;

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot_of(const SessionManager& manager, TimeNs wm) {
  Snapshot snap;
  snap.watermark = wm;
  for (std::size_t i = 0; i < manager.session_count(); ++i) {
    snap.sessions.push_back(keys_of(manager.session(i).results()));
  }
  return snap;
}

struct Fixture {
  Hierarchy hierarchy;
  Trace whole;
  TimeNs horizon = 0;

  explicit Fixture(std::uint64_t seed, double span_s = 26.0)
      : hierarchy(make_balanced_hierarchy(2, 3)),
        whole(make_synthetic_trace(hierarchy, span_s, seed)),
        horizon(seconds(10.0)) {
    whole.seal();
  }

  std::unique_ptr<SessionManager> make_manager(std::size_t lanes) {
    TraceSplit split = split_trace_at(whole, horizon);
    split.initial.seal();
    auto manager =
        std::make_unique<SessionManager>(hierarchy, split.initial.store());
    SlidingWindowOptions opt;
    opt.aggregation.max_lanes = lanes;
    SessionSpec a;
    a.window = TimeGrid(0, seconds(8.0), 16);
    a.ps = {0.25, 0.75};
    a.options = opt;
    manager->add_session(a);
    SessionSpec b;
    b.window = TimeGrid(seconds(1.0), seconds(9.0), 8);
    b.ps = {0.5};
    b.options = opt;
    manager->add_session(b);
    return manager;
  }

  /// The future stream, bucketed into rounds by frontier; round k holds
  /// the events with begin in [frontier(k-1), frontier(k)).
  std::vector<std::pair<TimeNs, std::vector<EventRecord>>> rounds(
      TimeNs step, TimeNs last) {
    TraceSplit split = split_trace_at(whole, horizon);
    std::vector<std::pair<TimeNs, std::vector<EventRecord>>> out;
    std::size_t next = 0;
    for (TimeNs frontier = horizon + step; frontier <= last;
         frontier += step) {
      std::vector<EventRecord> records;
      for (; next < split.future.size() &&
             split.future[next].second.begin < frontier;
           ++next) {
        const auto& [r, s] = split.future[next];
        records.push_back(EventRecord{r, s.state, s.begin, s.end});
      }
      out.emplace_back(frontier, std::move(records));
    }
    return out;
  }
};

/// Runs the synchronous reference loop and snapshots every frontier.
std::vector<Snapshot> run_sync_oracle(
    SessionManager& sync,
    const std::vector<std::pair<TimeNs, std::vector<EventRecord>>>& rounds) {
  std::vector<Snapshot> snaps;
  for (const auto& [frontier, records] : rounds) {
    for (const EventRecord& rec : records) {
      sync.append(rec.resource, rec.state, rec.begin, rec.end);
    }
    sync.advance_to(frontier);
    snaps.push_back(snapshot_of(sync, frontier));
  }
  return snaps;
}

/// The acceptance drill: same stream, same frontiers, one synchronous
/// manager vs one pipelined manager — snapshots at every watermark must
/// match bit for bit, under both single-lane and 4-lane DP.
void run_pipeline_oracle(std::size_t lanes, std::size_t parse_workers) {
  Fixture fx(0x1D5E + lanes);
  auto sync = fx.make_manager(lanes);
  auto piped = fx.make_manager(lanes);
  const auto rounds = fx.rounds(seconds(2.0), seconds(24.0));
  ASSERT_GE(rounds.size(), 5u);
  const std::vector<Snapshot> sync_snaps = run_sync_oracle(*sync, rounds);

  std::vector<Snapshot> pipe_snaps;
  {
    IngestPipelineOptions opt;
    opt.parse_workers = parse_workers;
    opt.on_advance = [&](TimeNs wm) {
      pipe_snaps.push_back(snapshot_of(*piped, wm));
    };
    IngestPipeline pipeline(*piped, opt);
    for (const auto& [frontier, records] : rounds) {
      pipeline.submit_records(records);
      pipeline.advance_watermark(frontier);
    }
    pipeline.wait_until_advanced(rounds.back().first);
    pipeline.close();

    const IngestPipelineStats stats = pipeline.stats();
    std::uint64_t submitted = 0;
    for (const auto& [frontier, records] : rounds) {
      submitted += records.size();
    }
    EXPECT_EQ(stats.records_parsed, submitted);
    EXPECT_EQ(stats.records_sealed, submitted);
    EXPECT_EQ(stats.rounds_advanced, rounds.size());
    EXPECT_EQ(stats.advanced_watermark, rounds.back().first);
  }

  ASSERT_EQ(pipe_snaps.size(), sync_snaps.size());
  for (std::size_t k = 0; k < sync_snaps.size(); ++k) {
    EXPECT_EQ(pipe_snaps[k].watermark, sync_snaps[k].watermark)
        << "round " << k;
    EXPECT_EQ(pipe_snaps[k], sync_snaps[k])
        << "pipelined results diverged from the synchronous path at "
           "watermark "
        << sync_snaps[k].watermark << " (round " << k << ")";
  }
  // And both agree with the from-scratch reference oracle at the end.
  for (std::size_t i = 0; i < piped->session_count(); ++i) {
    EXPECT_EQ(keys_of(piped->session(i).results()),
              keys_of(piped->session(i).run_from_scratch(
                  DpKernel::kReference)))
        << "final session " << i << " vs kReference";
  }
}

TEST(IngestPipeline, BitIdenticalToSynchronousPathW1) {
  run_pipeline_oracle(/*lanes=*/1, /*parse_workers=*/4);
}

TEST(IngestPipeline, BitIdenticalToSynchronousPathW4) {
  run_pipeline_oracle(/*lanes=*/4, /*parse_workers=*/4);
}

TEST(IngestPipeline, SingleParseWorkerDegenerateCase) {
  run_pipeline_oracle(/*lanes=*/4, /*parse_workers=*/1);
}

TEST(IngestPipeline, CsvTextPathMatchesRecordPath) {
  Fixture fx(0xCAFE);
  auto sync = fx.make_manager(4);
  auto piped = fx.make_manager(4);
  const auto rounds = fx.rounds(seconds(3.0), seconds(22.0));
  const std::vector<Snapshot> sync_snaps = run_sync_oracle(*sync, rounds);

  std::vector<Snapshot> pipe_snaps;
  IngestPipelineOptions opt;
  opt.parse_workers = 3;
  opt.text_format = TextTraceFormat::kCsv;
  opt.on_advance = [&](TimeNs wm) {
    pipe_snaps.push_back(snapshot_of(*piped, wm));
  };
  IngestPipeline pipeline(*piped, opt);
  const TraceStore& store = piped->store();
  for (const auto& [frontier, records] : rounds) {
    std::string text = "# round up to " + std::to_string(frontier) + "\n";
    for (const EventRecord& rec : records) {
      text += "STATE," + store.resource_path(rec.resource) + "," +
              store.states().name(rec.state) + "," +
              std::to_string(rec.begin) + "," + std::to_string(rec.end) +
              "\n";
    }
    pipeline.submit_text(text);
    pipeline.advance_watermark(frontier);
  }
  pipeline.close();

  ASSERT_EQ(pipe_snaps.size(), sync_snaps.size());
  for (std::size_t k = 0; k < sync_snaps.size(); ++k) {
    EXPECT_EQ(pipe_snaps[k], sync_snaps[k]) << "round " << k;
  }
}

TEST(IngestPipeline, BackpressureBoundsDepthWithoutDropsOrReorders) {
  // A deliberately slow advance worker with tiny queues: the producer
  // must get throttled (blocked pushes observed), depth must never pass
  // the configured capacities, and — the no-drop/no-reorder property —
  // the final state must still be bit-identical to the synchronous loop.
  Fixture fx(0xB10C);
  auto sync = fx.make_manager(1);
  auto piped = fx.make_manager(1);
  const auto rounds = fx.rounds(seconds(0.5), seconds(24.0));
  ASSERT_GE(rounds.size(), 20u);
  (void)run_sync_oracle(*sync, rounds);

  IngestPipelineOptions opt;
  opt.parse_workers = 2;
  opt.shard_queue_capacity = 2;
  opt.batch_queue_capacity = 2;
  opt.watermark_queue_capacity = 1;
  opt.max_batch_records = 32;
  opt.on_advance = [](TimeNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  IngestPipeline pipeline(*piped, opt);
  std::uint64_t submitted = 0;
  for (const auto& [frontier, records] : rounds) {
    // Split each round into several submissions so shard queues see
    // steady small jobs rather than one blob per round.
    std::size_t i = 0;
    while (i < records.size()) {
      const std::size_t n = std::min<std::size_t>(96, records.size() - i);
      pipeline.submit_records(std::vector<EventRecord>(
          records.begin() + static_cast<std::ptrdiff_t>(i),
          records.begin() + static_cast<std::ptrdiff_t>(i + n)));
      i += n;
    }
    submitted += records.size();
    pipeline.advance_watermark(frontier);
  }
  pipeline.close();

  const IngestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.records_sealed, submitted) << "no event may be dropped";
  EXPECT_EQ(stats.rounds_advanced, rounds.size());
  std::uint64_t blocked = stats.batch_queue.blocked_pushes +
                          stats.watermark_queue.blocked_pushes;
  for (const BoundedQueueStats& q : stats.shard_queues) {
    EXPECT_LE(q.high_water, q.capacity) << "shard queue depth unbounded";
    blocked += q.blocked_pushes;
  }
  EXPECT_LE(stats.batch_queue.high_water, stats.batch_queue.capacity);
  EXPECT_LE(stats.watermark_queue.high_water,
            stats.watermark_queue.capacity);
  EXPECT_GT(blocked, 0u)
      << "a throttled consumer must block some producer push";

  // Bit-identity after the storm — covers drop and reorder alike (a
  // reorder within a resource would change the sealed interval sequence
  // and with it some window's partition).
  for (std::size_t i = 0; i < sync->session_count(); ++i) {
    EXPECT_EQ(keys_of(piped->session(i).results()),
              keys_of(sync->session(i).results()))
        << "session " << i;
  }
}

TEST(IngestPipeline, OneShardStoreSpreadsRecordsOverEveryParseWorker) {
  // A manager over a plain TraceStore holds a one-shard facade: grouping
  // records by store shard would send every batch to parse worker 0, so
  // the pipeline must split the batch across all P parse queues.
  Fixture fx(0x5A4D);
  auto piped = fx.make_manager(1);
  ASSERT_EQ(piped->sharded_store()->shard_count(), 1u);
  const auto rounds = fx.rounds(seconds(2.0), seconds(12.0));
  ASSERT_GE(rounds.front().second.size(), 4u);
  IngestPipelineOptions opt;
  opt.parse_workers = 4;
  IngestPipeline pipeline(*piped, opt);
  pipeline.submit_records(rounds.front().second);
  const IngestPipelineStats stats = pipeline.stats();
  ASSERT_EQ(stats.shard_queues.size(), 4u);
  for (std::size_t i = 0; i < stats.shard_queues.size(); ++i) {
    EXPECT_GT(stats.shard_queues[i].pushed, 0u) << "parse queue " << i;
  }
  pipeline.advance_watermark(rounds.front().first);
  pipeline.close();
  EXPECT_EQ(pipeline.stats().records_sealed, rounds.front().second.size());
}

TEST(IngestPipeline, FirstFrontierBelowTheInitialWatermarkRefreshes) {
  // The attached prefix's last intervals end past the split horizon, so
  // the store's initial watermark lies beyond a first frontier at the
  // horizon: that round is legal and only refreshes (audit builds check
  // frontier monotonicity from the first advanced round on).
  Fixture fx(0xF1F0);
  auto sync = fx.make_manager(1);
  auto piped = fx.make_manager(1);
  ASSERT_LT(fx.horizon, piped->watermark());
  sync->advance_to(fx.horizon);
  IngestPipeline pipeline(*piped, {});
  pipeline.advance_watermark(fx.horizon);
  pipeline.close();
  EXPECT_EQ(pipeline.stats().rounds_advanced, 1u);
  for (std::size_t i = 0; i < sync->session_count(); ++i) {
    EXPECT_EQ(keys_of(piped->session(i).results()),
              keys_of(sync->session(i).results()))
        << "session " << i;
  }
}

TEST(IngestPipeline, RandomizedRoundSizesStayIdentical) {
  // Fuzz the batching: random per-submission sizes compared against the
  // synchronous loop at every watermark.
  Fixture fx(0xF22);
  auto sync = fx.make_manager(4);
  auto piped = fx.make_manager(4);
  const auto rounds = fx.rounds(seconds(2.0), seconds(24.0));
  const std::vector<Snapshot> sync_snaps = run_sync_oracle(*sync, rounds);
  std::mt19937_64 rng(0xDEAD5EED);

  std::vector<Snapshot> pipe_snaps;
  IngestPipelineOptions opt;
  opt.parse_workers = 4;
  opt.max_batch_records = 64;
  opt.on_advance = [&](TimeNs wm) {
    pipe_snaps.push_back(snapshot_of(*piped, wm));
  };
  IngestPipeline pipeline(*piped, opt);
  for (const auto& [frontier, records] : rounds) {
    std::size_t i = 0;
    while (i < records.size()) {
      const std::size_t n = std::min<std::size_t>(
          1 + rng() % 200, records.size() - i);
      pipeline.submit_records(std::vector<EventRecord>(
          records.begin() + static_cast<std::ptrdiff_t>(i),
          records.begin() + static_cast<std::ptrdiff_t>(i + n)));
      i += n;
    }
    pipeline.advance_watermark(frontier);
  }
  pipeline.close();

  ASSERT_EQ(pipe_snaps.size(), sync_snaps.size());
  for (std::size_t k = 0; k < sync_snaps.size(); ++k) {
    EXPECT_EQ(pipe_snaps[k], sync_snaps[k]) << "round " << k;
  }
}

TEST(IngestPipeline, UnknownNamesFailTheWholePipeline) {
  Fixture fx(0xE44);
  auto piped = fx.make_manager(1);
  IngestPipelineOptions opt;
  opt.parse_workers = 2;
  IngestPipeline pipeline(*piped, opt);
  try {
    // Any of these may observe the failure first, depending on when the
    // parse worker hits the bad record — all of them must surface it.
    pipeline.submit_text("STATE,no/such/resource,compute,0,5\n");
    pipeline.advance_watermark(fx.horizon + seconds(1.0));
    pipeline.wait_until_advanced(fx.horizon + seconds(1.0));
    FAIL() << "pipeline must fail on an unknown resource";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown resource"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(pipeline.close(), InvalidArgument);
}

TEST(IngestPipeline, RejectsMisuse) {
  Fixture fx(0xE45);
  auto piped = fx.make_manager(1);
  {
    IngestPipelineOptions opt;
    opt.parse_workers = 0;
    EXPECT_THROW(IngestPipeline(*piped, opt), InvalidArgument);
  }
  IngestPipeline pipeline(*piped, {});
  pipeline.advance_watermark(fx.horizon + seconds(2.0));
  EXPECT_THROW(pipeline.advance_watermark(fx.horizon + seconds(1.0)),
               InvalidArgument)
      << "watermark frontiers must be non-decreasing";
  pipeline.close();
  EXPECT_THROW(pipeline.submit_records({EventRecord{0, 0, 0, 1}}),
               InvalidArgument);
  EXPECT_THROW(pipeline.advance_watermark(fx.horizon + seconds(3.0)),
               InvalidArgument);
}

}  // namespace
}  // namespace stagg
