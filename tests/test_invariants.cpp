// Symmetry and invariance properties of the aggregation (parameterized
// property tests).  These pin down semantics the paper implies but never
// states: the criterion is additive over states, blind to state identity,
// covariant with time reversal and with sibling permutations, and
// insensitive to uniform time rescaling.
//
// The AuditLayer section below is different in kind: it drives the
// contract/audit subsystem (TraceStore::audit, DataCube::audit,
// MeasureCache::audit, SessionManager::audit — see common/contract.hpp)
// through randomized seal/spill/compact/slide/pipeline histories, and
// proves the audits actually *reject* deliberately corrupted state.  The
// audit() methods are compiled in every build, so these tests run with or
// without -DSTAGG_AUDIT=ON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/aggregator.hpp"
#include "core/cube.hpp"
#include "core/ingest_pipeline.hpp"
#include "core/measure_cache.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "trace/trace.hpp"
#include "trace/trace_store.hpp"
#include "workload/fixtures.hpp"
#include "workload/stream_split.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

/// Copies a model with the state axis permuted: perm[x] = new index of x.
OwnedModel permute_states(const OwnedModel& src,
                          const std::vector<StateId>& perm) {
  OwnedModel out;
  out.hierarchy = std::make_unique<Hierarchy>(*src.hierarchy);
  StateRegistry states;
  std::vector<std::string> names(perm.size());
  for (StateId x = 0; x < static_cast<StateId>(perm.size()); ++x) {
    names[static_cast<std::size_t>(perm[static_cast<std::size_t>(x)])] =
        src.model.states().name(x);
  }
  for (const auto& n : names) states.intern(n);
  out.model =
      MicroscopicModel(out.hierarchy.get(), src.model.grid(), states);
  for (LeafId s = 0; s < src.model.resource_count(); ++s) {
    for (SliceId t = 0; t < src.model.slice_count(); ++t) {
      for (StateId x = 0; x < src.model.state_count(); ++x) {
        out.model.set_duration(s, t,
                               perm[static_cast<std::size_t>(x)],
                               src.model.duration(s, t, x));
      }
    }
  }
  return out;
}

/// Copies a model with time reversed (slice t -> T-1-t).
OwnedModel reverse_time(const OwnedModel& src) {
  OwnedModel out;
  out.hierarchy = std::make_unique<Hierarchy>(*src.hierarchy);
  StateRegistry states = src.model.states();
  out.model =
      MicroscopicModel(out.hierarchy.get(), src.model.grid(), states);
  const SliceId last = src.model.slice_count() - 1;
  for (LeafId s = 0; s < src.model.resource_count(); ++s) {
    for (SliceId t = 0; t <= last; ++t) {
      for (StateId x = 0; x < src.model.state_count(); ++x) {
        out.model.set_duration(s, last - t, x, src.model.duration(s, t, x));
      }
    }
  }
  return out;
}

class InvariantTest : public ::testing::TestWithParam<int> {
 protected:
  OwnedModel make() const {
    return make_random_model({.levels = 2,
                              .fanout = 3,
                              .slices = 10,
                              .states = 3,
                              .block_slices = 3,
                              .block_leaves = 2,
                              .idle_fraction = 0.1,
                              .seed = static_cast<std::uint64_t>(GetParam())});
  }
};

TEST_P(InvariantTest, StateRelabelingPreservesOptimum) {
  const OwnedModel a = make();
  const OwnedModel b = permute_states(a, {2, 0, 1});
  SpatiotemporalAggregator agg_a(a.model);
  SpatiotemporalAggregator agg_b(b.model);
  for (const double p : {0.2, 0.5, 0.8}) {
    const auto ra = agg_a.run(p);
    const auto rb = agg_b.run(p);
    EXPECT_NEAR(ra.optimal_pic, rb.optimal_pic, 1e-9);
    EXPECT_EQ(ra.partition.signature(), rb.partition.signature());
  }
}

TEST_P(InvariantTest, AllZeroExtraStateIsNeutral) {
  const OwnedModel a = make();
  // Rebuild with one extra, never-used state.
  OwnedModel b;
  b.hierarchy = std::make_unique<Hierarchy>(*a.hierarchy);
  StateRegistry states = a.model.states();
  states.intern("phantom_state");
  b.model = MicroscopicModel(b.hierarchy.get(), a.model.grid(), states);
  for (LeafId s = 0; s < a.model.resource_count(); ++s) {
    for (SliceId t = 0; t < a.model.slice_count(); ++t) {
      for (StateId x = 0; x < a.model.state_count(); ++x) {
        b.model.set_duration(s, t, x, a.model.duration(s, t, x));
      }
    }
  }
  SpatiotemporalAggregator agg_a(a.model);
  SpatiotemporalAggregator agg_b(b.model);
  const auto ra = agg_a.run(0.5);
  const auto rb = agg_b.run(0.5);
  EXPECT_NEAR(ra.optimal_pic, rb.optimal_pic, 1e-9);
  EXPECT_EQ(ra.partition.signature(), rb.partition.signature());
}

TEST_P(InvariantTest, TimeReversalMirrorsThePartition) {
  const OwnedModel a = make();
  const OwnedModel b = reverse_time(a);
  SpatiotemporalAggregator agg_a(a.model);
  SpatiotemporalAggregator agg_b(b.model);
  const double p = 0.4;
  const auto ra = agg_a.run(p);
  const auto rb = agg_b.run(p);
  EXPECT_NEAR(ra.optimal_pic, rb.optimal_pic, 1e-9);
  // Mirror ra's areas and compare as sets.
  const SliceId last = a.model.slice_count() - 1;
  Partition mirrored;
  for (const auto& area : ra.partition.areas()) {
    mirrored.add(area.node, last - area.time.j, last - area.time.i);
  }
  EXPECT_EQ(mirrored.signature(), rb.partition.signature());
}

TEST_P(InvariantTest, MeasuresAreTimeUnitInvariant) {
  // Rescaling the window (and durations) by any factor leaves proportions,
  // hence gain/loss, unchanged.  Build the same logical trace at two time
  // scales and compare the cubes.
  const Hierarchy h = make_flat_hierarchy(3);
  const auto build = [&](double unit) {
    Trace t;
    for (std::size_t s = 0; s < 3; ++s) {
      t.add_resource(h.path(h.leaf_node(static_cast<LeafId>(s))));
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    Rng rng(seed);
    for (ResourceId r = 0; r < 3; ++r) {
      double cursor = 0.0;
      while (cursor < 8.0) {
        const double dur = rng.uniform(0.05, 0.4);
        t.add_state(r, rng.chance(0.5) ? "a" : "b",
                    seconds(cursor * unit),
                    seconds(std::min(cursor + dur, 8.0) * unit));
        cursor += dur + rng.uniform(0.0, 0.1);
      }
    }
    t.set_window(0, seconds(8.0 * unit));
    return build_model(t, h, {.slice_count = 8});
  };
  const MicroscopicModel m1 = build(1.0);
  const MicroscopicModel m5 = build(5.0);
  const DataCube c1(m1), c5(m5);
  for (SliceId i = 0; i < 8; ++i) {
    for (SliceId j = i; j < 8; ++j) {
      const auto a = c1.measures(h.root(), i, j);
      const auto b = c5.measures(h.root(), i, j);
      EXPECT_NEAR(a.gain, b.gain, 1e-6);
      EXPECT_NEAR(a.loss, b.loss, 1e-6);
    }
  }
}

TEST_P(InvariantTest, PicIsAdditiveOverStates) {
  const OwnedModel a = make();
  const DataCube cube(a.model);
  const Hierarchy& h = *a.hierarchy;
  for (NodeId n = 0; n < static_cast<NodeId>(h.node_count()); n += 2) {
    const AreaMeasures whole = cube.measures(n, 2, 7);
    AreaMeasures by_state;
    for (StateId x = 0; x < a.model.state_count(); ++x) {
      by_state += cube.state_measures(n, 2, 7, x);
    }
    EXPECT_NEAR(whole.gain, by_state.gain, 1e-9);
    EXPECT_NEAR(whole.loss, by_state.loss, 1e-9);
  }
}

TEST_P(InvariantTest, PicIsAdditiveOverPartitionParts) {
  const OwnedModel a = make();
  SpatiotemporalAggregator agg(a.model);
  const auto r = agg.run(0.35);
  AreaMeasures sum;
  for (const auto& area : r.partition.areas()) {
    sum += agg.cube().measures(area.node, area.time.i, area.time.j);
  }
  EXPECT_NEAR(pic(0.35, sum.gain, sum.loss), r.optimal_pic, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- Audit layer ------------------------------------------------------------

/// Scratch file path for spill-enabled store histories.
std::string audit_scratch(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("stagg_audit_") + tag + ".spill"))
      .string();
}

/// Drives one TraceStore through a randomized append/seal/evict/spill/
/// compact/compress history, auditing after every mutation.  The audit is
/// the assertion: any internal inconsistency (broken fences, unsorted
/// columns, horizon leak, spill-byte drift) throws ContractError and fails
/// the test loudly.
void run_random_store_history(std::uint64_t seed, bool spill) {
  Rng rng(seed);
  TraceStore store;
  const ResourceId resources = 3;
  for (ResourceId r = 0; r < resources; ++r) {
    store.add_resource("res/" + std::to_string(r));
  }
  const StateId states = 3;
  for (StateId x = 0; x < states; ++x) {
    store.states().intern("state_" + std::to_string(x));
  }
  std::string spill_path;
  if (spill) {
    spill_path = audit_scratch(("hist" + std::to_string(seed)).c_str());
    std::remove(spill_path.c_str());
    store.enable_spill(spill_path);
    store.audit();
  }
  TimeNs cursor = 0;
  for (int step = 0; step < 120; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 4) {
      // Append a small batch; occasionally backdated (still >= horizon
      // history is irrelevant — stale intervals are legal in tails).
      const int n = static_cast<int>(rng.uniform_int(1, 40));
      for (int i = 0; i < n; ++i) {
        const auto r = static_cast<ResourceId>(rng.uniform_int(0, 2));
        const auto x = static_cast<StateId>(rng.uniform_int(0, 2));
        const TimeNs begin =
            rng.chance(0.2) ? rng.uniform_int(0, cursor + 1)  // backdated
                            : cursor + rng.uniform_int(0, 50);
        const TimeNs end = begin + rng.uniform_int(1, 200);
        store.add_state(r, x, begin, end);
        cursor = std::max(cursor, end);
      }
    } else if (op == 5) {
      store.seal_chunk();
    } else if (op == 6 || op == 7) {
      store.seal_chunk();
      store.evict_before(rng.uniform_int(0, cursor + 1));
    } else if (op == 8 && spill) {
      store.seal_chunk();
      store.spill_cold(static_cast<std::size_t>(rng.uniform_int(0, 4096)));
      if (rng.chance(0.3)) store.pin_all();
    } else if (op == 9) {
      store.set_compression(rng.chance(0.5) ? ChunkCompression::kAuto
                                            : ChunkCompression::kNone);
    }
    store.audit();
  }
  store.seal_chunk();
  store.audit();
  if (spill) std::remove(spill_path.c_str());
}

TEST(AuditLayer, RandomizedStoreHistoriesPassAudit) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    run_random_store_history(seed, /*spill=*/false);
  }
}

TEST(AuditLayer, RandomizedSpillingStoreHistoriesPassAudit) {
  for (const std::uint64_t seed : {55u, 66u}) {
    run_random_store_history(seed, /*spill=*/true);
  }
}

TEST(AuditLayer, AuditRejectsUnsortedAdoptedChunk) {
  TraceStore store;
  store.add_resource("res/0");
  store.states().intern("a");
  // The trusting column ctor + adopt_chunk is the only door for unsorted
  // data (binary_io validates before using it); audit() must slam it.  In
  // audit builds seal_chunk() audits on its own and throws right there,
  // so the whole sequence sits inside the EXPECT_THROW.
  EXPECT_THROW(
      {
        store.adopt_chunk(0, std::make_shared<const TraceChunk>(
                                 std::vector<TimeNs>{100, 0},
                                 std::vector<TimeNs>{200, 50},
                                 std::vector<StateId>{0, 0}));
        store.seal_chunk();
        store.audit();
      },
      ContractError);
}

TEST(AuditLayer, AuditRejectsOutOfRangeStateId) {
  TraceStore store;
  store.add_resource("res/0");
  store.states().intern("a");
  EXPECT_THROW(
      {
        store.adopt_chunk(
            0, std::make_shared<const TraceChunk>(
                   std::vector<TimeNs>{0}, std::vector<TimeNs>{10},
                   std::vector<StateId>{7}));  // only state 0 exists
        store.seal_chunk();
        store.audit();
      },
      ContractError);
}

TEST(AuditLayer, AuditRejectsIntervalWithEndBeforeBegin) {
  TraceStore store;
  store.add_resource("res/0");
  store.states().intern("a");
  EXPECT_THROW(
      {
        store.adopt_chunk(0, std::make_shared<const TraceChunk>(
                                 std::vector<TimeNs>{100},
                                 std::vector<TimeNs>{40},
                                 std::vector<StateId>{0}));
        store.seal_chunk();
        store.audit();
      },
      ContractError);
}

TEST(AuditLayer, CubeAndMeasureCacheAuditsHoldOnRandomModels) {
  for (const std::uint64_t seed : {7u, 8u}) {
    const OwnedModel m = make_random_model({.levels = 2,
                                            .fanout = 3,
                                            .slices = 8,
                                            .states = 3,
                                            .block_slices = 2,
                                            .block_leaves = 2,
                                            .idle_fraction = 0.1,
                                            .seed = seed});
    const DataCube cube(m.model);
    cube.audit();
    MeasureCache cache;
    cache.audit(cube);  // not built: must be a no-op
    cache.build(cube);
    cache.audit(cube);
  }
}

TEST(AuditLayer, MeasureCacheAuditRejectsMismatchedCube) {
  const OwnedModel a = make_random_model({.levels = 2,
                                          .fanout = 3,
                                          .slices = 8,
                                          .states = 3,
                                          .block_slices = 2,
                                          .block_leaves = 2,
                                          .idle_fraction = 0.1,
                                          .seed = 1u});
  const OwnedModel b = make_random_model({.levels = 2,
                                          .fanout = 3,
                                          .slices = 8,
                                          .states = 3,
                                          .block_slices = 2,
                                          .block_leaves = 2,
                                          .idle_fraction = 0.1,
                                          .seed = 2u});
  const DataCube cube_a(a.model);
  const DataCube cube_b(b.model);
  MeasureCache cache;
  cache.build(cube_a);
  cache.audit(cube_a);
  // A cache claiming to mirror a cube it was not built from is exactly the
  // staleness bug the audit exists to catch.
  EXPECT_THROW(cache.audit(cube_b), ContractError);
}

/// One SessionManager fixture: balanced hierarchy, synthetic trace split
/// at a horizon, two overlapping sliding windows.
struct AuditFixture {
  Hierarchy hierarchy = make_balanced_hierarchy(2, 3);
  Trace whole;
  TimeNs horizon = seconds(8.0);

  explicit AuditFixture(std::uint64_t seed) {
    const auto programmer = [](LeafId leaf) {
      ResourceProgram p;
      p.phases.push_back({0.0, 20.0,
                          StatePattern{{{"compute", 0.05, 0.3},
                                        {"wait", leaf % 2 == 0 ? 0.04 : 0.02,
                                         0.4},
                                        {"send", 0.02, 0.3}}}});
      return p;
    };
    whole = generate_trace(hierarchy, programmer, seed);
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
    a.window = TimeGrid(0, seconds(6.0), 12);
    a.ps = {0.3, 0.7};
    a.options = opt;
    manager->add_session(a);
    SessionSpec b;
    b.window = TimeGrid(seconds(1.0), seconds(7.0), 6);
    b.ps = {0.5};
    b.options = opt;
    manager->add_session(b);
    return manager;
  }

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

void run_manager_audit_history(std::size_t lanes) {
  AuditFixture fx(0xA0D1 + lanes);
  auto manager = fx.make_manager(lanes);
  manager->audit();
  std::size_t appended = 0;
  for (const auto& [frontier, records] : fx.rounds(seconds(2.0),
                                                   seconds(18.0))) {
    for (const EventRecord& rec : records) {
      manager->append(rec.resource, rec.state, rec.begin, rec.end);
      ++appended;
    }
    manager->advance_to(frontier);
    manager->audit();
  }
  ASSERT_GT(appended, 100u) << "history must actually carry events";
}

TEST(AuditLayer, SessionManagerSlideHistoryPassesAuditW1) {
  run_manager_audit_history(1);
}

TEST(AuditLayer, SessionManagerSlideHistoryPassesAuditW4) {
  run_manager_audit_history(4);
}

void run_pipeline_audit_history(std::size_t lanes) {
  AuditFixture fx(0xB0B + lanes);
  auto manager = fx.make_manager(lanes);
  const auto rounds = fx.rounds(seconds(2.0), seconds(18.0));
  ASSERT_GE(rounds.size(), 3u);
  {
    IngestPipelineOptions opt;
    opt.parse_workers = 2;
    IngestPipeline pipeline(*manager, opt);
    for (const auto& [frontier, records] : rounds) {
      pipeline.submit_records(records);
      pipeline.advance_watermark(frontier);
    }
    pipeline.wait_until_advanced(rounds.back().first);
    pipeline.close();
  }
  // The pipeline is quiesced: the shared store and sessions must audit
  // clean after the staged parse/seal/advance history.
  manager->audit();
}

TEST(AuditLayer, PipelineHistoryPassesAuditW1) {
  run_pipeline_audit_history(1);
}

TEST(AuditLayer, PipelineHistoryPassesAuditW4) {
  run_pipeline_audit_history(4);
}

}  // namespace
}  // namespace stagg
