// Randomized scalar-vs-SIMD equivalence of the kernel layer.
//
// Contract under test (common/simd.hpp): the scalar family simd::sc is
// the oracle, and every active wrapper op must be bit-identical to it on
// arbitrary bit patterns — including NaN/inf/denormal doubles and the
// int64/int32 range limits — at misaligned loads.  On a scalar-forced
// build the active types alias simd::sc and the wrapper suites pass by
// construction, which is exactly the point: the same binary contract
// holds at every dispatch level.
//
// On top of the wrappers, the three vectorized consumers are pinned to
// their scalar twins at odd sizes/tails:
//   * DataCube::measures_column_into vs measures_column_reference_into,
//   * the DP fold with AggregationOptions::use_simd on vs off vs the
//     kReference kernel at every lane width 1..8,
//   * the trace/codec_kernels.hpp pre-pass vs codec::ref, plus full
//     encode_columns round-trips at sizes straddling the vector width.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/aggregator.hpp"
#include "core/cube.hpp"
#include "trace/codec_kernels.hpp"
#include "trace/compression.hpp"
#include "workload/fixtures.hpp"

namespace stagg {
namespace {

/// Deterministic raw-bit stream; biased toward special values so NaN,
/// infinities, zeros and range limits show up in every run.
class BitFuzzer {
 public:
  explicit BitFuzzer(std::uint64_t seed) : mix_(seed) {}

  std::uint64_t u64() {
    const std::uint64_t r = mix_.next();
    switch (r & 15u) {
      case 0: return 0;
      case 1: return ~std::uint64_t{0};
      case 2: return std::uint64_t{1} << 63;  // int64 min / -0.0
      case 3: return 0x7FF8000000000000ull;   // quiet NaN
      case 4: return 0x7FF0000000000000ull;   // +inf
      case 5: return 1;                       // denormal / tiny int
      default: return mix_.next();
    }
  }
  double f64() {
    std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u64()); }

 private:
  SplitMix64 mix_;
};

template <typename T>
bool bytes_equal(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Per-lane bitwise equality, except that any NaN matches any NaN: when
/// both operands of a multiply are NaNs, IEEE-754 leaves *which* payload
/// propagates unspecified, and the optimizer is free to commute the
/// scalar expression — so payload identity is not part of the contract.
/// Everything else (±0, infinities, denormals) still compares bitwise.
bool f64_lanes_equal(const double (&a)[4], const double (&b)[4]) {
  for (int i = 0; i < 4; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) == 0) continue;
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    return false;
  }
  return true;
}

constexpr int kTrials = 500;

TEST(SimdWrappers, F64x4MatchesScalarTwin) {
  BitFuzzer fz(0xF64);
  for (int trial = 0; trial < kTrials; ++trial) {
    // Misaligned source: loads start anywhere inside an 11-double pad.
    double buf[11];
    for (double& d : buf) d = fz.f64();
    const std::size_t off_a = trial % 4;
    const std::size_t off_b = (trial / 4) % 4;
    const simd::f64x4 a = simd::f64x4::load(buf + off_a);
    const simd::f64x4 b = simd::f64x4::load(buf + off_b + 4);
    const simd::sc::f64x4 sa = simd::sc::f64x4::load(buf + off_a);
    const simd::sc::f64x4 sb = simd::sc::f64x4::load(buf + off_b + 4);

    double got[4];
    double want[4];
    (a + b).store(got);
    (sa + sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "+ trial " << trial;
    (a - b).store(got);
    (sa - sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "- trial " << trial;
    (a * b).store(got);
    (sa * sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "* trial " << trial;
    (a / b).store(got);
    (sa / sb).store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "/ trial " << trial;
    EXPECT_EQ(a.ge_mask(b), sa.ge_mask(sb)) << "ge trial " << trial;

    const simd::f64x4 c = simd::f64x4::broadcast(buf[0]);
    const simd::sc::f64x4 sc_c = simd::sc::f64x4::broadcast(buf[0]);
    c.store(got);
    sc_c.store(want);
    EXPECT_TRUE(f64_lanes_equal(got, want)) << "broadcast trial " << trial;
  }
}

TEST(SimdWrappers, I64x4MatchesScalarTwin) {
  BitFuzzer fz(0x164);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::uint64_t buf[11];
    for (std::uint64_t& u : buf) u = fz.u64();
    const std::size_t off = trial % 4;
    const simd::i64x4 a = simd::i64x4::load(buf + off);
    const simd::i64x4 b = simd::i64x4::load(buf + off + 4);
    const simd::sc::i64x4 sa = simd::sc::i64x4::load(buf + off);
    const simd::sc::i64x4 sb = simd::sc::i64x4::load(buf + off + 4);

    std::uint64_t got[4];
    std::uint64_t want[4];
    (a + b).store(got);
    (sa + sb).store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "+ trial " << trial;
    (a - b).store(got);
    (sa - sb).store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "- trial " << trial;
    (a ^ b).store(got);
    (sa ^ sb).store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "^ trial " << trial;
    a.shl<1>().store(got);
    sa.shl<1>().store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "shl trial " << trial;
    a.shr<7>().store(got);
    sa.shr<7>().store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "shr trial " << trial;
    a.sign_mask().store(got);
    sa.sign_mask().store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "sign trial " << trial;
    a.min_s(b).store(got);
    sa.min_s(sb).store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "min trial " << trial;
    a.max_s(b).store(got);
    sa.max_s(sb).store(want);
    EXPECT_TRUE(bytes_equal(got, want)) << "max trial " << trial;
    EXPECT_EQ(a.eq_mask(b), sa.eq_mask(sb)) << "eq trial " << trial;
  }
}

TEST(SimdWrappers, I32x4AndI32x8MatchScalarTwins) {
  BitFuzzer fz(0x132);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::int32_t buf[19];
    for (std::int32_t& v : buf) v = fz.i32();
    const std::size_t off = trial % 3;

    std::int32_t got4[4];
    std::int32_t want4[4];
    (simd::i32x4::load(buf + off) + simd::i32x4::load(buf + off + 4))
        .store(got4);
    (simd::sc::i32x4::load(buf + off) + simd::sc::i32x4::load(buf + off + 4))
        .store(want4);
    EXPECT_TRUE(bytes_equal(got4, want4)) << "i32x4 + trial " << trial;
    EXPECT_EQ(
        simd::i32x4::load(buf + off).lt_mask(simd::i32x4::load(buf + off + 4)),
        simd::sc::i32x4::load(buf + off)
            .lt_mask(simd::sc::i32x4::load(buf + off + 4)))
        << "i32x4 lt trial " << trial;

    const simd::i32x8 a = simd::i32x8::load(buf + off);
    const simd::i32x8 b = simd::i32x8::load(buf + off + 8);
    const simd::sc::i32x8 sa = simd::sc::i32x8::load(buf + off);
    const simd::sc::i32x8 sb = simd::sc::i32x8::load(buf + off + 8);
    std::int32_t got8[8];
    std::int32_t want8[8];
    (a + b).store(got8);
    (sa + sb).store(want8);
    EXPECT_TRUE(bytes_equal(got8, want8)) << "i32x8 + trial " << trial;
    (a - b).store(got8);
    (sa - sb).store(want8);
    EXPECT_TRUE(bytes_equal(got8, want8)) << "i32x8 - trial " << trial;
    a.gt_mask(b).store(got8);
    sa.gt_mask(sb).store(want8);
    EXPECT_TRUE(bytes_equal(got8, want8)) << "i32x8 gt trial " << trial;
    EXPECT_EQ(a.eq_mask(b), sa.eq_mask(sb)) << "i32x8 eq trial " << trial;
  }
}

TEST(SimdWrappers, I32x4LtMaskCombinesWithF64x4GeMask) {
  // The DP candidate screen ORs and ANDs an i32x4 lt_mask with f64x4
  // ge_masks: bit w of each must be lane w's scalar compare, so the
  // combined mask equals the per-lane scalar predicate.  Small counts make
  // equal and adjacent values (the tie-break boundary) common.
  BitFuzzer fz(0x1F4);
  SplitMix64 mix(0x5C4EE7);
  for (int trial = 0; trial < kTrials; ++trial) {
    double v[4];
    double lo[4];
    double hi[4];
    std::int32_t cnt[4];
    std::int32_t best_cnt[4];
    for (int w = 0; w < 4; ++w) {
      v[w] = (trial % 2 == 0) ? fz.f64()
                              : static_cast<double>(mix.next() % 5) - 2.0;
      lo[w] = static_cast<double>(mix.next() % 5) - 2.5;
      hi[w] = lo[w] + static_cast<double>(mix.next() % 3);
      cnt[w] = static_cast<std::int32_t>(mix.next() % 4);
      best_cnt[w] = (trial % 7 == 0) ? fz.i32()
                                     : static_cast<std::int32_t>(mix.next() % 4);
    }
    const simd::f64x4 vv = simd::f64x4::load(v);
    const int above = vv.ge_mask(simd::f64x4::load(hi));
    const int loose = vv.ge_mask(simd::f64x4::load(lo));
    const int fewer =
        simd::i32x4::load(cnt).lt_mask(simd::i32x4::load(best_cnt));
    const int got = above | (fewer & loose);
    int want = 0;
    for (int w = 0; w < 4; ++w) {
      want |= static_cast<int>(v[w] >= hi[w] ||
                               (v[w] >= lo[w] && cnt[w] < best_cnt[w]))
              << w;
    }
    EXPECT_EQ(got, want) << "trial " << trial;
    EXPECT_EQ(fewer, simd::sc::i32x4::load(cnt).lt_mask(
                         simd::sc::i32x4::load(best_cnt)))
        << "trial " << trial;
  }
}

TEST(SimdWrappers, U8x32MatchesScalarTwin) {
  BitFuzzer fz(0x832);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::uint8_t buf[67];
    for (std::uint8_t& v : buf) {
      // Narrow domain so equal byte pairs are common.
      v = static_cast<std::uint8_t>(fz.u64() & 3u);
    }
    const std::size_t off = trial % 3;
    const simd::u8x32 a = simd::u8x32::load(buf + off);
    const simd::u8x32 b = simd::u8x32::load(buf + off + 32);
    const simd::sc::u8x32 sa = simd::sc::u8x32::load(buf + off);
    const simd::sc::u8x32 sb = simd::sc::u8x32::load(buf + off + 32);
    EXPECT_EQ(a.eq_mask(b), sa.eq_mask(sb)) << "trial " << trial;
  }
}

TEST(SimdWrappers, AlignedVecIs64ByteAligned) {
  simd::AlignedVec<double> d(3);
  simd::AlignedVec<std::int32_t> i(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i.data()) % 64, 0u);
}

// --- Cube column kernel ----------------------------------------------------

TEST(SimdKernels, CubeColumnKernelMatchesReferenceTwin) {
  // |X| values straddling the f64x4 width: tails of 0..3 states.
  for (const std::int32_t states : {1, 3, 4, 5, 8, 17}) {
    const OwnedModel om = make_random_model({.levels = 2,
                                             .fanout = 3,
                                             .slices = 9,
                                             .states = states,
                                             .idle_fraction = 0.2,
                                             .seed = 1234u + states});
    const DataCube cube(om.model);
    const auto nodes = static_cast<NodeId>(om.hierarchy->node_count());
    std::vector<AreaMeasures> fast;
    std::vector<AreaMeasures> ref;
    for (NodeId node = 0; node < nodes; ++node) {
      for (SliceId j = 0; j < 9; ++j) {
        fast.assign(static_cast<std::size_t>(j) + 1, AreaMeasures{});
        ref.assign(static_cast<std::size_t>(j) + 1, AreaMeasures{});
        cube.measures_column_into(node, j, fast);
        cube.measures_column_reference_into(node, j, ref);
        for (SliceId i = 0; i <= j; ++i) {
          const auto k = static_cast<std::size_t>(i);
          EXPECT_EQ(fast[k].gain, ref[k].gain)
              << "|X|=" << states << " node " << node << " cell (" << i
              << ", " << j << ")";
          EXPECT_EQ(fast[k].loss, ref[k].loss)
              << "|X|=" << states << " node " << node << " cell (" << i
              << ", " << j << ")";
        }
      }
    }
  }
}

// --- DP fold ---------------------------------------------------------------

TEST(SimdKernels, DpFoldSimdOnOffAndReferenceAgreeAtEveryLaneWidth) {
  const OwnedModel om = make_random_model({.levels = 2,
                                           .fanout = 3,
                                           .slices = 11,
                                           .states = 5,
                                           .idle_fraction = 0.15,
                                           .seed = 4242});
  const std::vector<double> all_ps = {0.0, 0.1, 0.3, 0.45, 0.5,
                                      0.6, 0.75, 0.9};
  AggregationOptions ref_opt;
  ref_opt.kernel = DpKernel::kReference;
  SpatiotemporalAggregator ref_agg(om.model, ref_opt);
  const std::vector<AggregationResult> want = ref_agg.run_many(all_ps);

  for (std::size_t width = 1; width <= 8; ++width) {
    for (const bool use_simd : {true, false}) {
      AggregationOptions opt;
      opt.max_lanes = width;
      opt.use_simd = use_simd;
      SpatiotemporalAggregator agg(om.model, opt);
      const std::vector<AggregationResult> got = agg.run_many(all_ps);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].optimal_pic, want[k].optimal_pic)
            << "W=" << width << " simd=" << use_simd << " p=" << all_ps[k];
        EXPECT_EQ(got[k].partition.signature(), want[k].partition.signature())
            << "W=" << width << " simd=" << use_simd << " p=" << all_ps[k];
        EXPECT_EQ(got[k].measures.gain, want[k].measures.gain);
        EXPECT_EQ(got[k].measures.loss, want[k].measures.loss);
      }
    }
  }
}

// --- Codec kernels ---------------------------------------------------------

TEST(SimdKernels, CodecKernelsMatchReferenceTwinsAtOddSizes) {
  BitFuzzer fz(0xC0DE);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u,
                              65u, 127u}) {
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::int64_t>(fz.u64());
      b[i] = static_cast<std::int64_t>(fz.u64());
    }
    std::vector<std::uint64_t> got(n);
    std::vector<std::uint64_t> want(n);

    codec::sub_columns(a.data(), b.data(), n, got.data());
    codec::ref::sub_columns(a.data(), b.data(), n, want.data());
    EXPECT_EQ(got, want) << "sub n=" << n;

    codec::delta_column(a.data(), n, got.data());
    codec::ref::delta_column(a.data(), n, want.data());
    EXPECT_EQ(got, want) << "delta n=" << n;

    // Second-order pass: delta over the delta stream, then zigzag.
    std::vector<std::uint64_t> src = want;
    codec::delta_u64(src.data(), n, got.data());
    codec::ref::delta_u64(src.data(), n, want.data());
    EXPECT_EQ(got, want) << "delta_u64 n=" << n;

    codec::zigzag_u64(got.data(), n);
    codec::ref::zigzag_u64(want.data(), n);
    EXPECT_EQ(got, want) << "zigzag n=" << n;

    EXPECT_EQ(codec::all_equal_u64(want.data(), n),
              codec::ref::all_equal_u64(want.data(), n));
    std::vector<std::uint64_t> same(n, 0xABCDu);
    EXPECT_TRUE(codec::all_equal_u64(same.data(), n));

    std::int64_t lo_got = 0;
    std::int64_t hi_got = 0;
    std::int64_t lo_want = 0;
    std::int64_t hi_want = 0;
    codec::minmax_i64(a.data(), n, lo_got, hi_got);
    codec::ref::minmax_i64(a.data(), n, lo_want, hi_want);
    EXPECT_EQ(lo_got, lo_want) << "min n=" << n;
    EXPECT_EQ(hi_got, hi_want) << "max n=" << n;
  }
}

TEST(SimdKernels, DictIndicesMatchLowerBoundAcrossDictSizes) {
  BitFuzzer fz(0xD1C7);
  // Both sides of the counting-compare cutoff, including exactly at it.
  for (const std::size_t dict_size :
       {1u, 2u, 7u, 63u, 64u, 65u, 200u}) {
    std::vector<std::int32_t> dict(dict_size);
    std::int32_t v = -500;
    for (std::size_t d = 0; d < dict_size; ++d) {
      v += 1 + static_cast<std::int32_t>(fz.u64() % 17u);
      dict[d] = v;
    }
    const std::size_t n = 203;  // odd: 8-wide blocks + a 3-element tail
    std::vector<std::int32_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = dict[fz.u64() % dict_size];
    }
    std::vector<std::int32_t> got(n);
    std::vector<std::int32_t> want(n);
    codec::dict_indices(vals.data(), n, dict.data(), dict_size, got.data());
    codec::ref::dict_indices(vals.data(), n, dict.data(), dict_size,
                             want.data());
    EXPECT_EQ(got, want) << "dict_size=" << dict_size;
  }
}

TEST(SimdKernels, EncodeColumnsRoundTripsAtVectorBoundarySizes) {
  // Sizes straddling every vector width the pre-pass uses (4-wide u64,
  // 8-wide i32) — tails, exact blocks, and n = 1.
  Rng rng(99);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                              17u, 33u, 100u}) {
    std::vector<TimeNs> begins(n);
    std::vector<TimeNs> ends(n);
    std::vector<StateId> states(n);
    TimeNs t = 1000;
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform_int(0, 500);
      begins[i] = t;
      ends[i] = t + rng.uniform_int(1, 900);
      states[i] = static_cast<StateId>(rng.uniform_int(0, 40));
    }
    const EncodedColumns enc = encode_columns(begins, ends, states);
    ColumnsDecoder dec(enc.coding());
    StateInterval s{};
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(dec.next(s)) << "n=" << n << " i=" << i;
      EXPECT_EQ(s.begin, begins[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(s.end, ends[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(s.state, states[i]) << "n=" << n << " i=" << i;
    }
    EXPECT_FALSE(dec.next(s)) << "n=" << n;
  }
}

}  // namespace
}  // namespace stagg
