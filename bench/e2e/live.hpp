// Live workloads: a recorded trace split at a horizon, its future streamed
// as CSV text through IngestPipeline into a SessionManager.
//
// Open loop: one generator thread (the caller) submits round k's text and
// watermark at its due time t0 + k * cadence, however far behind the
// pipeline is, so a stall delays every later round and shows in their
// latency.  A round's latency runs from its due time to the on_advance call
// whose watermark covers its frontier (completions are keyed by watermark
// value, so coalesced advances stay correct).
//
// The traced run additionally replays the same rounds closed-loop through
// the stage calls the pipeline workers make (decode + name resolution,
// SessionManager::ingest, seal_staged, advance_to_watermark) with one span
// per call, on a fresh manager.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregator.hpp"
#include "core/ingest_pipeline.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/hierarchy.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace.hpp"
#include "workload.hpp"
#include "workload/stream_split.hpp"

namespace stagg::e2e {

struct SessionPlan {
  std::int32_t slices = 0;
  TimeNs dt = 0;  ///< slice width; the window ends at the horizon
  std::vector<double> probes;
};

struct LiveSpec {
  const char* name = "";
  double cadence_ms = 20.0;  ///< one round due every cadence
  TimeNs step = 0;           ///< trace time each round adds to the watermark
  TimeNs horizon = 0;        ///< events before it are the attached prefix
  std::vector<SessionPlan> sessions;
  /// kAuto compression plus a resident budget of kBudgetFrac of the store
  /// bytes after attach (spilled to a file under the workdir).
  bool budget = false;
};

inline constexpr double kBudgetFrac = 0.25;

namespace detail {

struct LiveRound {
  TimeNs frontier = 0;
  TimeNs min_begin = 0;
  std::uint64_t intervals = 0;
  std::string text;
};

/// Gauges sampled in on_advance (advance worker, under the stage mutex).
struct Gauges {
  double store_peak = 0.0;
  double resident_peak = 0.0;
  double spilled_peak = 0.0;
  double dead_peak = 0.0;
  double retained_peak = 0.0;
  double accounted_peak = 0.0;
};

inline std::size_t lanes_for(const SessionPlan& plan) {
  return std::min(AggregationOptions{}.max_lanes, plan.probes.size());
}

inline double working_set_bytes(const LiveSpec& spec, SessionManager& mgr) {
  double ws = 0.0;
  for (std::size_t i = 0; i < mgr.session_count(); ++i) {
    ws += static_cast<double>(mgr.session(i).aggregator().working_set_bytes(
        lanes_for(spec.sessions[i])));
  }
  return ws;
}

inline double retained_bytes(SessionManager& mgr) {
  double bytes = 0.0;
  for (std::size_t i = 0; i < mgr.session_count(); ++i) {
    bytes += static_cast<double>(
        mgr.session(i).aggregator().incremental_state_bytes());
  }
  return bytes;
}

}  // namespace detail

inline RunOutcome run_live(const LiveSpec& spec, const RunOptions& opts,
                           const Trace& whole, const Hierarchy& hierarchy,
                           Gate& gate) {
  using detail::LiveRound;
  RunOutcome out;

  // --- Inputs: the attached prefix and the per-round CSV text. -------------
  TraceSplit split = split_trace_at(whole, spec.horizon);
  split.initial.seal();
  const auto available = static_cast<std::size_t>(
      std::max<TimeNs>(0, whole.end() - spec.horizon) / spec.step);
  std::size_t rounds_n =
      opts.smoke ? std::size_t{40}
                 : static_cast<std::size_t>(
                       std::llround(opts.seconds * 1e3 / spec.cadence_ms));
  rounds_n = std::clamp<std::size_t>(rounds_n, 1, available);
  std::vector<LiveRound> rounds(rounds_n);
  std::uint64_t intervals = 0;
  {
    std::size_t next = 0;
    for (std::size_t k = 0; k < rounds_n; ++k) {
      LiveRound& r = rounds[k];
      r.frontier = spec.horizon + spec.step * static_cast<TimeNs>(k + 1);
      r.min_begin = r.frontier;
      for (; next < split.future.size() &&
             split.future[next].second.begin < r.frontier;
           ++next) {
        const auto& [res, s] = split.future[next];
        r.text.append("STATE,")
            .append(whole.resource_path(res))
            .append(",")
            .append(whole.states().name(s.state))
            .append(",")
            .append(std::to_string(s.begin))
            .append(",")
            .append(std::to_string(s.end))
            .append("\n");
        r.min_begin = std::min(r.min_begin, s.begin);
        ++r.intervals;
      }
      intervals += r.intervals;
    }
  }
  const double events = 2.0 * static_cast<double>(intervals);

  std::size_t spill_files = 0;
  const auto make_manager = [&] {
    Trace initial = split.initial;  // shares the sealed chunks
    auto mgr = std::make_unique<SessionManager>(hierarchy, initial.store());
    if (spec.budget) mgr->set_compression(ChunkCompression::kAuto);
    for (const SessionPlan& plan : spec.sessions) {
      SessionSpec s;
      s.window = TimeGrid(spec.horizon - plan.dt * plan.slices, spec.horizon,
                          plan.slices);
      s.ps = plan.probes;
      mgr->add_session(std::move(s));
    }
    if (spec.budget) {
      const std::string spill = opts.workdir + "/" + spec.name + ".spill" +
                                std::to_string(spill_files++);
      std::remove(spill.c_str());
      mgr->set_memory_budget(
          static_cast<std::size_t>(static_cast<double>(mgr->store_bytes()) *
                                   kBudgetFrac),
          spill);
    }
    return mgr;
  };

  // --- Open-loop measured run. ---------------------------------------------
  std::vector<std::int64_t> done_ns(rounds_n, 0);
  std::size_t next_done = 0;  // advance worker only
  std::atomic<std::size_t> completed{0};
  detail::Gauges gauges;
  SessionManager* live_mgr = nullptr;
  IngestPipelineOptions popt;
  popt.parse_workers = 1;
  popt.on_advance = [&](TimeNs wm) {
    const std::int64_t now = now_ns();
    while (next_done < rounds_n && rounds[next_done].frontier <= wm) {
      done_ns[next_done++] = now;
    }
    completed.store(next_done, std::memory_order_release);
    SessionManager& mgr = *live_mgr;
    const auto store = static_cast<double>(mgr.store_bytes());
    const double retained = detail::retained_bytes(mgr);
    gauges.store_peak = std::max(gauges.store_peak, store);
    gauges.resident_peak = std::max(
        gauges.resident_peak, static_cast<double>(mgr.resident_chunk_bytes()));
    gauges.spilled_peak = std::max(
        gauges.spilled_peak,
        static_cast<double>(mgr.store().spilled_chunk_bytes()));
    gauges.dead_peak = std::max(
        gauges.dead_peak, static_cast<double>(mgr.store().spill_dead_bytes()));
    gauges.retained_peak = std::max(gauges.retained_peak, retained);
    gauges.accounted_peak =
        std::max(gauges.accounted_peak,
                 store + retained + detail::working_set_bytes(spec, mgr));
  };

  // Set-up: manager + every add_session (+ compression and budget) +
  // pipeline spawn.  Repeated; the median is reported, the last kept.
  std::vector<double> setup_s;
  std::unique_ptr<SessionManager> mgr;
  std::unique_ptr<IngestPipeline> pipeline;
  for (int rep = 0; rep < (opts.smoke ? 1 : kSetupReps); ++rep) {
    pipeline.reset();
    mgr.reset();
    const std::int64_t t0 = now_ns();
    mgr = make_manager();
    live_mgr = mgr.get();
    pipeline = std::make_unique<IngestPipeline>(*mgr, popt);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const double cadence_ns = spec.cadence_ms * 1e6;
  double late_ms_max = 0.0;
  double backlog_max = 0.0;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < rounds_n; ++k) {
    const auto due = t0 + static_cast<std::int64_t>(
                              std::llround(cadence_ns * static_cast<double>(k)));
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    late_ms_max =
        std::max(late_ms_max, static_cast<double>(now_ns() - due) * 1e-6);
    backlog_max = std::max(
        backlog_max, static_cast<double>(
                         k - std::min(k, completed.load(std::memory_order_acquire))));
    ++out.attempted;
    pipeline->submit_text(rounds[k].text);
    pipeline->advance_watermark(rounds[k].frontier);
  }
  pipeline->wait_until_advanced(rounds.back().frontier);
  const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double cpu_s = process_cpu_s() - cpu0;
  pipeline->close();
  const IngestPipelineStats stats = pipeline->stats();
  pipeline.reset();

  std::vector<double> latency_ms;
  latency_ms.reserve(rounds_n);
  for (std::size_t k = 0; k < rounds_n; ++k) {
    if (done_ns[k] == 0) {
      ++out.failed;
      continue;
    }
    const double due =
        static_cast<double>(t0) + cadence_ns * static_cast<double>(k);
    latency_ms.push_back((static_cast<double>(done_ns[k]) - due) * 1e-6);
  }

  // --- Correctness gate (outside the timed phase). -------------------------
  gate.check(stats.records_sealed == intervals,
             "records_sealed != intervals submitted");
  std::size_t cheapest = 0;
  for (std::size_t i = 0; i < mgr->session_count(); ++i) {
    const SessionPlan& p = spec.sessions[i];
    const SessionPlan& c = spec.sessions[cheapest];
    if (static_cast<double>(p.slices) * static_cast<double>(p.probes.size()) <
        static_cast<double>(c.slices) * static_cast<double>(c.probes.size())) {
      cheapest = i;
    }
    char what[64] = {};
    std::snprintf(what, sizeof what, "session %zu vs run_from_scratch", i);
    gate.same_results(what, mgr->session(i).run_from_scratch(),
                      mgr->session(i).results());
  }
  gate.same_results(
      "session " + std::to_string(cheapest) + " vs DpKernel::kReference",
      mgr->session(cheapest).run_from_scratch(DpKernel::kReference),
      mgr->session(cheapest).results());
  try {
    mgr->audit();
    gate.check(true, "SessionManager::audit");
  } catch (const std::exception& e) {
    gate.check(false, std::string("SessionManager::audit: ") + e.what());
  }

  auto& v = out.values;
  v["setup_s"] = median(setup_s);
  v["latency_p50_ms"] = median(latency_ms);
  // latency_tail_ms: p90 of 1000+ rounds.  p99 (10 rounds beyond it) is
  // kept unbounded as a per-layer figure.
  v["latency_tail_ms"] = percentile(latency_ms, 0.90);
  v["live.latency_p99_ms"] = percentile(latency_ms, 0.99);
  v["cpu_ms_per_kevent"] = cpu_s * 1e3 / (events / 1e3);
  v["accounted_peak_mb"] = gauges.accounted_peak / kMiB;

  v["trace.events"] = events;
  v["trace.store_peak_mb"] = gauges.store_peak / kMiB;
  v["trace.resident_peak_mb"] = gauges.resident_peak / kMiB;
  v["trace.spilled_peak_mb"] = gauges.spilled_peak / kMiB;
  v["trace.spill_dead_mb"] = gauges.dead_peak / kMiB;
  v["core.retained_mb"] = gauges.retained_peak / kMiB;
  v["trace.store_mb"] = static_cast<double>(mgr->store_bytes()) / kMiB;
  v["trace.bytes_per_interval"] =
      static_cast<double>(mgr->store_bytes()) /
      static_cast<double>(std::max<std::uint64_t>(1, mgr->store().state_count()));
  v["core.working_set_mb"] = detail::working_set_bytes(spec, *mgr) / kMiB;
  double probes = 0.0;
  for (const SessionPlan& p : spec.sessions) {
    probes += static_cast<double>(p.probes.size());
  }
  v["core.dp_runs"] = probes * static_cast<double>(rounds_n);
  std::uint64_t pushed = stats.batch_queue.pushed + stats.watermark_queue.pushed;
  std::uint64_t blocked =
      stats.batch_queue.blocked_pushes + stats.watermark_queue.blocked_pushes;
  for (const BoundedQueueStats& q : stats.shard_queues) {
    pushed += q.pushed;
    blocked += q.blocked_pushes;
  }
  v["core.pipeline.batch_queue_high_water"] =
      static_cast<double>(stats.batch_queue.high_water);
  v["core.pipeline.blocked_push_frac"] =
      static_cast<double>(blocked) /
      static_cast<double>(std::max<std::uint64_t>(1, pushed));
  v["core.pipeline.records_sealed"] = static_cast<double>(stats.records_sealed);
  v["gen.late_ms_max"] = late_ms_max;
  v["gen.backlog_max_rounds"] = backlog_max;
  v["proc.peak_rss_mb"] = peak_rss_mb();
  v["proc.cpu_util"] = cpu_s / (wall_s * hardware_threads());

  // --- Traced closed-loop replay. ------------------------------------------
  if (opts.traced) {
    Tracer tracer(true);
    const auto replay = make_manager();
    std::vector<EventRecord> records;
    bool resolved = true;
    const DecodedTextSink sink = [&](const DecodedTextRecord& rec) {
      const auto state = replay->states().find(rec.state);
      EventRecord ev;
      ev.resource = replay->store().find_resource(rec.resource);
      ev.state = state.value_or(0);
      ev.begin = rec.begin;
      ev.end = rec.end;
      resolved = resolved && ev.resource != kInvalidResource && state;
      records.push_back(ev);
    };
    double dirty_sum = 0.0;
    double dirty_n = 0.0;
    std::vector<TimeGrid> before(replay->session_count());
    const std::int64_t r0 = now_ns();
    for (std::size_t k = 0; k < rounds_n; ++k) {
      const auto id = static_cast<std::int64_t>(k);
      records.clear();
      {
        const ScopedSpan span(tracer, "trace.decode", id);
        TextTraceDecoder decoder(TextTraceFormat::kCsv, spec.name);
        decoder.feed(rounds[k].text, sink);
        decoder.finish(sink);
      }
      {
        const ScopedSpan span(tracer, "trace.ingest", id);
        replay->ingest(records);
      }
      {
        const ScopedSpan span(tracer, "trace.seal", id);
        (void)replay->seal_staged(rounds[k].frontier);
      }
      for (std::size_t i = 0; i < before.size(); ++i) {
        before[i] = replay->session(i).window();
      }
      {
        const ScopedSpan span(tracer, "core.advance", id);
        replay->advance_to_watermark(rounds[k].frontier);
      }
      // Recomputed columns: the slid-in suffix plus everything from the
      // round's earliest event on.
      for (std::size_t i = 0; i < before.size(); ++i) {
        const TimeGrid& w = replay->session(i).window();
        const std::int32_t n = w.slice_count();
        std::int32_t first = n;
        if (rounds[k].intervals > 0 && rounds[k].min_begin < w.end()) {
          first = rounds[k].min_begin <= w.begin() ? 0
                                                   : w.slice_of(rounds[k].min_begin);
        }
        const auto shift = static_cast<std::int32_t>(
            (w.begin() - before[i].begin()) / w.uniform_dt_ns());
        if (shift > 0) first = std::min(first, n - std::min(n, shift));
        dirty_sum += static_cast<double>(n - first) / static_cast<double>(n);
        dirty_n += 1.0;
      }
    }
    const double replay_s = static_cast<double>(now_ns() - r0) * 1e-9;
    gate.check(resolved, "replay name resolution");
    for (std::size_t i = 0; i < replay->session_count(); ++i) {
      char what[64] = {};
      std::snprintf(what, sizeof what, "replay session %zu vs pipeline", i);
      gate.same_results(what, mgr->session(i).results(),
                        replay->session(i).results());
    }
    const auto per_round = [&](const char* name) {
      double sum = 0.0;
      for (const double s : tracer.per_op_seconds(name)) sum += s;
      return sum / static_cast<double>(rounds_n);
    };
    v["trace.decode_s"] = per_round("trace.decode");
    v["trace.ingest_s"] = per_round("trace.ingest");
    v["trace.seal_s"] = per_round("trace.seal");
    v["core.advance_s"] = per_round("core.advance");
    v["core.dirty_col_frac"] = dirty_sum / std::max(1.0, dirty_n);
    v["traced.mevents_per_s"] = events / replay_s / 1e6;
    report_attribution(tracer, replay_s, out);
    std::printf("closed-loop replay %.3f s vs open-loop measured phase %.3f s "
                "(the difference is stage overlap and pacing, not tracing "
                "overhead)\n",
                replay_s, wall_s);
    out.spans_json = tracer.to_json();
  }

  char config[256] = {};
  std::snprintf(config, sizeof config,
                "{\"rounds\": %zu, \"cadence_ms\": %.6g, \"step_ms\": %.6g, "
                "\"horizon_s\": %.6g, \"sessions\": %zu, \"budget\": %s, "
                "\"intervals\": %llu}",
                rounds_n, spec.cadence_ms, static_cast<double>(spec.step) * 1e-6,
                static_cast<double>(spec.horizon) * 1e-9, spec.sessions.size(),
                spec.budget ? "true" : "false",
                static_cast<unsigned long long>(intervals));
  out.config_json = config;
  for (std::size_t k = 0; k < spill_files; ++k) {
    std::remove((opts.workdir + "/" + spec.name + ".spill" + std::to_string(k))
                    .c_str());
  }
  return out;
}

}  // namespace stagg::e2e
