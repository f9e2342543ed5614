#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace stagg {
namespace {

TEST(Trace, ResourceRegistrationIsIdempotent) {
  Trace t;
  const ResourceId a = t.add_resource("root/a");
  const ResourceId b = t.add_resource("root/b");
  EXPECT_EQ(t.add_resource("root/a"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.resource_count(), 2u);
  EXPECT_EQ(t.find_resource("root/b"), b);
  EXPECT_EQ(t.find_resource("nope"), kInvalidResource);
}

TEST(Trace, SealSortsIntervals) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  t.add_state(r, "s", 100, 200);
  t.add_state(r, "s", 0, 50);
  t.add_state(r, "s", 60, 90);
  t.seal();
  const auto iv = t.intervals(r);
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0].begin, 0);
  EXPECT_EQ(iv[1].begin, 60);
  EXPECT_EQ(iv[2].begin, 100);
}

TEST(Trace, WindowFromEvents) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  t.add_state(r, "s", 50, 200);
  t.add_state(r, "s", 10, 40);
  t.seal();
  EXPECT_EQ(t.begin(), 10);
  EXPECT_EQ(t.end(), 200);
  EXPECT_EQ(t.span(), 190);
}

TEST(Trace, WindowOverrideSurvivesSeal) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  t.add_state(r, "s", 50, 200);
  t.set_window(0, 1000);
  t.seal();
  EXPECT_EQ(t.begin(), 0);
  EXPECT_EQ(t.end(), 1000);
  EXPECT_THROW(t.set_window(10, 5), InvalidArgument);
}

TEST(Trace, EventCountIsTwiceStates) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  t.add_state(r, "s", 0, 1);
  t.add_state(r, "s", 1, 2);
  t.add_state(r, "s", 2, 3);
  EXPECT_EQ(t.state_count(), 3u);
  EXPECT_EQ(t.event_count(), 6u);
}

TEST(Trace, AddStateValidation) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  const StateId x = t.states().intern("s");
  EXPECT_THROW(t.add_state(static_cast<ResourceId>(5), x, 0, 1),
               InvalidArgument);
  EXPECT_THROW(t.add_state(r, static_cast<StateId>(9), 0, 1),
               InvalidArgument);
  EXPECT_THROW(t.add_state(r, x, 10, 5), InvalidArgument);
  // Zero-length states are allowed (instantaneous call).
  t.add_state(r, x, 5, 5);
}

TEST(Trace, EmptyTraceWindow) {
  Trace t;
  t.seal();
  EXPECT_EQ(t.begin(), 0);
  EXPECT_EQ(t.end(), 0);
  EXPECT_EQ(t.state_count(), 0u);
}

TEST(Trace, AppendAfterSealUnsealsAndResorts) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  t.add_state(r, "s", 10, 20);
  t.seal();
  EXPECT_TRUE(t.sealed());
  t.add_state(r, "s", 0, 5);
  EXPECT_FALSE(t.sealed());
  t.seal();
  EXPECT_EQ(t.intervals(r)[0].begin, 0);
}

TEST(Trace, EvictBeforeIsHalfOpen) {
  Trace t;
  const ResourceId r = t.add_resource("r");
  t.add_state(r, "s", 0, 10);    // ends exactly at the cutoff: dropped
  t.add_state(r, "s", 0, 11);    // overlaps [10, inf): kept
  t.add_state(r, "s", 10, 10);   // zero-duration at the cutoff: dropped
  t.add_state(r, "s", 10, 12);   // starts at the cutoff: kept
  t.add_state(r, "s", 15, 16);   // strictly after: kept
  // Unsealed intervals sit in the tail, which eviction filters one
  // interval at a time.
  t.store()->evict_before(10);
  t.seal();
  const auto iv = t.intervals(r);
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0].end, 11);
  EXPECT_EQ(iv[1].begin, 10);
  EXPECT_EQ(iv[1].end, 12);
  EXPECT_EQ(iv[2].begin, 15);
  EXPECT_EQ(t.begin(), 0);  // interval [0, 11) survived
  // A sealed chunk whose max end equals the cutoff is dead as a whole; the
  // next seal re-derives the auto-computed window from the survivors (the
  // evicted prefix must no longer stretch it back to 0).
  t.add_state(r, "s", 20, 30);
  t.seal();
  t.store()->evict_before(16);
  t.seal();
  ASSERT_EQ(t.intervals(r).size(), 1u);
  EXPECT_EQ(t.begin(), 20);
  EXPECT_EQ(t.end(), 30);
}

TEST(Trace, IncrementalSealMatchesFullSort) {
  // Appends interleaved with seals across several resources must yield the
  // same per-resource interval order as appending everything then sealing
  // once (the dirty-resource sort skips only untouched resources).
  SplitMix64 mix(42);
  Trace incremental;
  Trace batch;
  for (int r = 0; r < 4; ++r) {
    incremental.add_resource("r" + std::to_string(r));
    batch.add_resource("r" + std::to_string(r));
  }
  (void)incremental.states().intern("s");
  (void)batch.states().intern("s");
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 25; ++k) {
      const auto r = static_cast<ResourceId>(mix.next() % 4);
      const auto b = static_cast<TimeNs>(mix.next() % 1000);
      const auto d = static_cast<TimeNs>(mix.next() % 50);
      incremental.add_state(r, StateId{0}, b, b + d);
      batch.add_state(r, StateId{0}, b, b + d);
    }
    incremental.seal();  // sorts only the resources touched this round
  }
  incremental.seal();
  batch.seal();
  for (ResourceId r = 0; r < 4; ++r) {
    const auto a = incremental.intervals(r);
    const auto b = batch.intervals(r);
    ASSERT_EQ(a.size(), b.size()) << "r=" << r;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "r=" << r << " k=" << k;
    }
  }
}

TEST(StateRegistryTest, InternAndFind) {
  StateRegistry reg;
  const StateId a = reg.intern("MPI_Send");
  const StateId b = reg.intern("MPI_Wait");
  EXPECT_EQ(reg.intern("MPI_Send"), a);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(b), "MPI_Wait");
  EXPECT_EQ(reg.find("MPI_Wait"), b);
  EXPECT_FALSE(reg.find("nope").has_value());
}

}  // namespace
}  // namespace stagg
