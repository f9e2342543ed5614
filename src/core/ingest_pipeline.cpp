#include "core/ingest_pipeline.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace stagg {

/// One unit of work for a parse worker (per-shard SPSC queues).
struct IngestPipeline::ShardJob {
  enum class Kind : std::uint8_t { kText, kRecords, kBarrier };
  Kind kind = Kind::kText;
  std::string text;                   // kText: whole lines
  std::vector<EventRecord> records;   // kRecords: pre-resolved
  TimeNs frontier = 0;                // kBarrier
};

/// Parse -> seal message (MPSC queue): a decoded batch, or a shard's mark
/// that everything it was handed before a barrier has been forwarded.
struct IngestPipeline::BatchMessage {
  enum class Kind : std::uint8_t { kBatch, kMark };
  Kind kind = Kind::kBatch;
  EventBatch batch;    // kBatch
  std::size_t shard = 0;  // kMark
  TimeNs frontier = 0;    // kMark
};

IngestPipeline::IngestPipeline(SessionManager& manager,
                               IngestPipelineOptions options)
    : manager_(manager), options_(std::move(options)) {
  if (options_.parse_workers == 0) {
    throw InvalidArgument("IngestPipeline: parse_workers must be >= 1");
  }
  options_.max_batch_records = std::max<std::size_t>(
      1, options_.max_batch_records);
  // Freeze the name tables: parse workers resolve against pipeline-owned
  // maps, so they never touch the store while the seal worker appends.
  // The manager-level accessors yield the facade's *global* ids (a
  // sharded manager's store() is only shard 0).
  resource_ids_.reserve(manager_.resource_count());
  for (std::size_t r = 0; r < manager_.resource_count(); ++r) {
    resource_ids_.emplace(manager_.resource_path(static_cast<ResourceId>(r)),
                          static_cast<ResourceId>(r));
  }
  const StateRegistry& states = manager_.states();
  state_ids_.reserve(states.size());
  for (std::size_t x = 0; x < states.size(); ++x) {
    state_ids_.emplace(states.name(static_cast<StateId>(x)),
                       static_cast<StateId>(x));
  }
  advanced_watermark_ = manager_.watermark();
  // The non-decreasing check constrains only the caller's own sequence;
  // a first frontier below the store's initial watermark is legal (the
  // advance stage just refreshes).
  requested_frontier_.store(std::numeric_limits<TimeNs>::lowest(),
                            std::memory_order_relaxed);

  shard_queues_.reserve(options_.parse_workers);
  for (std::size_t i = 0; i < options_.parse_workers; ++i) {
    shard_queues_.push_back(
        std::make_unique<BoundedQueue<ShardJob>>(
            options_.shard_queue_capacity));
  }
  batch_queue_ = std::make_unique<BoundedQueue<BatchMessage>>(
      options_.batch_queue_capacity);
  watermark_queue_ = std::make_unique<BoundedQueue<TimeNs>>(
      options_.watermark_queue_capacity);

  live_parsers_.store(options_.parse_workers, std::memory_order_relaxed);
  workers_.reserve(options_.parse_workers + 2);
  for (std::size_t i = 0; i < options_.parse_workers; ++i) {
    workers_.emplace_back([this, i] { parse_worker(i); });
  }
  workers_.emplace_back([this] { seal_worker(); });
  workers_.emplace_back([this] { advance_worker(); });
}

IngestPipeline::~IngestPipeline() {
  try {
    close();
  } catch (...) {
    // The destructor cannot report; close() first to observe failures.
  }
}

ResourceId IngestPipeline::resolve_resource(std::string_view name) const {
  // Transparent lookup would avoid the key copy; the maps are small and
  // the copy is short-string most of the time, so keep the simple shape.
  const auto it = resource_ids_.find(std::string(name));
  if (it == resource_ids_.end()) {
    throw InvalidArgument(
        "ingest pipeline: unknown resource '" + std::string(name) +
        "' (the pipeline requires a schema-complete store)");
  }
  return it->second;
}

StateId IngestPipeline::resolve_state(std::string_view name) const {
  const auto it = state_ids_.find(std::string(name));
  if (it == state_ids_.end()) {
    throw InvalidArgument(
        "ingest pipeline: unknown state '" + std::string(name) +
        "' (sessions pin |X|; the pipeline requires a schema-complete "
        "store)");
  }
  return it->second;
}

void IngestPipeline::push_batch(std::size_t shard, std::uint64_t& sequence,
                                std::vector<EventRecord>&& records) {
  if (records.empty()) return;
  BatchMessage msg;
  msg.kind = BatchMessage::Kind::kBatch;
  msg.batch.shard = shard;
  msg.batch.sequence = sequence++;
  msg.batch.min_begin = records.front().begin;
  msg.batch.max_end = records.front().end;
  for (const EventRecord& rec : records) {
    msg.batch.min_begin = std::min(msg.batch.min_begin, rec.begin);
    msg.batch.max_end = std::max(msg.batch.max_end, rec.end);
  }
  msg.batch.records = std::move(records);
  records_parsed_.fetch_add(msg.batch.records.size(),
                            std::memory_order_relaxed);
  // A false push means the pipeline failed and closed the queues; the
  // worker loop notices on its next pop.
  (void)batch_queue_->push(std::move(msg));
}

void IngestPipeline::decode_text_job(std::size_t shard,
                                     const std::string& text,
                                     std::uint64_t& sequence) {
  std::vector<EventRecord> pending;
  pending.reserve(options_.max_batch_records);
  TextTraceDecoder decoder(options_.text_format,
                           "<ingest shard " + std::to_string(shard) + ">");
  const DecodedTextSink sink = [&](const DecodedTextRecord& rec) {
    EventRecord ev;
    ev.resource = resolve_resource(rec.resource);
    ev.state = resolve_state(rec.state);
    ev.begin = rec.begin;
    ev.end = rec.end;
    pending.push_back(ev);
    if (pending.size() >= options_.max_batch_records) {
      push_batch(shard, sequence, std::move(pending));
      pending = {};
      pending.reserve(options_.max_batch_records);
    }
  };
  decoder.feed(text, sink);
  decoder.finish(sink);
  push_batch(shard, sequence, std::move(pending));
}

void IngestPipeline::parse_worker(std::size_t shard) {
  std::uint64_t sequence = 0;
  BoundedQueue<ShardJob>& queue = *shard_queues_[shard];
  while (auto job = queue.pop()) {
    try {
      switch (job->kind) {
        case ShardJob::Kind::kText:
          decode_text_job(shard, job->text, sequence);
          break;
        case ShardJob::Kind::kRecords:
          push_batch(shard, sequence, std::move(job->records));
          break;
        case ShardJob::Kind::kBarrier: {
          BatchMessage mark;
          mark.kind = BatchMessage::Kind::kMark;
          mark.shard = shard;
          mark.frontier = job->frontier;
          (void)batch_queue_->push(std::move(mark));
          break;
        }
      }
    } catch (...) {
      fail(std::current_exception());
      break;
    }
  }
  if (live_parsers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    batch_queue_->close();
  }
}

void IngestPipeline::seal_worker() {
  // Batches are staged per shard and appended to the store ONLY when
  // their round's barrier completes: per-producer FIFO order means a
  // shard's mark for frontier f follows exactly the batches it parsed
  // before f's barrier, so a sealed watermark covers precisely the
  // records submitted before it — never a racing shard's next round
  // (which would break bit-identity with the synchronous path) — and
  // the store's mutable tails are empty whenever the advance worker
  // holds the stage mutex.
  std::vector<std::vector<EventBatch>> staged(options_.parse_workers);
  struct Round {
    std::vector<EventBatch> batches;
    std::size_t marks = 0;
  };
  std::map<TimeNs, Round> rounds;

  const auto seal_round = [&](std::vector<EventBatch>& batches,
                              TimeNs frontier) {
    {
      std::lock_guard<std::mutex> lock(stage_mutex_);
      for (EventBatch& b : batches) {
        manager_.ingest(b.records);
        records_sealed_.fetch_add(b.records.size(),
                                  std::memory_order_relaxed);
      }
      manager_.seal_staged(frontier);
      // Every sealed record was popped off the batch queue, whose
      // push/pop ordering makes the parser's counter increment visible
      // here — sealing can trail parsing but never lead it.
      STAGG_ASSERT(records_sealed_.load(std::memory_order_relaxed) <=
                       records_parsed_.load(std::memory_order_relaxed),
                   "seal worker sealed more records than were parsed");
    }
    // Push OUTSIDE the stage mutex: the advance worker takes that mutex
    // after popping, so a blocking push while holding it would deadlock
    // the very backpressure it implements.
    (void)watermark_queue_->push(frontier);
  };

  bool ok = true;
  while (auto msg = batch_queue_->pop()) {
    try {
      if (msg->kind == BatchMessage::Kind::kBatch) {
        staged[msg->batch.shard].push_back(std::move(msg->batch));
        continue;
      }
      Round& round = rounds[msg->frontier];
      std::move(staged[msg->shard].begin(), staged[msg->shard].end(),
                std::back_inserter(round.batches));
      staged[msg->shard].clear();
      if (++round.marks < options_.parse_workers) continue;
      // Completion order is monotone in the frontier (per-producer FIFO),
      // so sealing on completion seals rounds in order.
      seal_round(round.batches, msg->frontier);
      rounds.erase(msg->frontier);
    } catch (...) {
      fail(std::current_exception());
      ok = false;
      break;
    }
  }
  if (ok) {
    // Intake closed mid-round: flush the trailing partial round so close()
    // loses nothing.  Any half-counted barriers fold in too (they can only
    // exist if intake closed between broadcasts, which close() prevents,
    // but be safe).
    try {
      std::vector<EventBatch> rest;
      for (auto& [frontier, round] : rounds) {
        std::move(round.batches.begin(), round.batches.end(),
                  std::back_inserter(rest));
      }
      rounds.clear();
      for (auto& shard_batches : staged) {
        std::move(shard_batches.begin(), shard_batches.end(),
                  std::back_inserter(rest));
        shard_batches.clear();
      }
      if (!rest.empty()) {
        seal_round(rest,
                   requested_frontier_.load(std::memory_order_relaxed));
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }
  watermark_queue_->close();
}

void IngestPipeline::advance_worker() {
  while (auto wm = watermark_queue_->pop()) {
    try {
      {
        std::lock_guard<std::mutex> lock(stage_mutex_);
        // This thread is the sole writer of advanced_watermark_ and
        // rounds_advanced_, so the unlocked reads are race-free; the seal
        // worker publishes frontiers in completion order, which is
        // monotone per producer.  The first frontier may lie below the
        // store's initial watermark (that round just refreshes).
        STAGG_ASSERT(rounds_advanced_ == 0 || *wm >= advanced_watermark_,
                     "advance watermarks must be non-decreasing");
        // Advance never outruns seal: the manager rejects it too, but the
        // assert pins the pipeline-level contract at the stage boundary.
        STAGG_ASSERT(*wm <= manager_.watermark(),
                     "advance worker ahead of the sealed watermark");
        manager_.advance_to_watermark(*wm);
        if (options_.on_advance) options_.on_advance(*wm);
      }
      {
        std::lock_guard<std::mutex> lock(progress_mutex_);
        advanced_watermark_ = *wm;
        ++rounds_advanced_;
      }
      progress_cv_.notify_all();
    } catch (...) {
      fail(std::current_exception());
      return;
    }
  }
}

void IngestPipeline::fail(std::exception_ptr ex) noexcept {
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    if (!failed_) {
      failed_ = true;
      failure_ = ex;
    }
  }
  // Unblock everything: closed queues drain, pushes return false.
  close_all_queues();
  progress_cv_.notify_all();
}

void IngestPipeline::close_all_queues() noexcept {
  for (auto& queue : shard_queues_) queue->close();
  batch_queue_->close();
  watermark_queue_->close();
}

void IngestPipeline::rethrow_if_failed() {
  std::lock_guard<std::mutex> lock(progress_mutex_);
  if (failed_) std::rethrow_exception(failure_);
}

void IngestPipeline::submit_text(std::string_view text) {
  rethrow_if_failed();
  if (intake_closed_) {
    throw InvalidArgument("IngestPipeline: submit after close()");
  }
  const auto shards = split_text_shards(text, options_.parse_workers);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardJob job;
    job.kind = ShardJob::Kind::kText;
    job.text.assign(shards[i]);
    if (!shard_queues_[i]->push(std::move(job))) {
      rethrow_if_failed();
      throw InvalidArgument("IngestPipeline: submit after close()");
    }
  }
}

void IngestPipeline::submit_records(std::vector<EventRecord> records) {
  rethrow_if_failed();
  if (intake_closed_) {
    throw InvalidArgument("IngestPipeline: submit after close()");
  }
  if (records.empty()) return;
  const std::size_t total = records.size();
  const std::size_t shards = options_.parse_workers;
  const ShardedTraceStore& store = *manager_.sharded_store();
  if (store.shard_count() > 1 && shards > 1) {
    // Parse-shard -> store-shard affinity: group the batch by owning
    // store shard so each parse worker's batches hold one store shard's
    // records and the facade's bucketed append parallelizes S-wide with
    // no cross-shard scatter.  The grouping is a stable partition, so
    // per-resource order is preserved end to end (chunks re-sort at seal
    // anyway — results are bit-identical to the contiguous split).  One
    // store shard would funnel every batch to parse worker 0, so S = 1
    // takes the contiguous split below.
    std::vector<std::vector<EventRecord>> groups(shards);
    for (const EventRecord& rec : records) {
      if (rec.resource < 0 ||
          static_cast<std::size_t>(rec.resource) >=
              store.resource_count()) {
        throw InvalidArgument(
            "ingest pipeline: record resource id " +
            std::to_string(rec.resource) +
            " is outside the frozen resource table");
      }
      groups[store.shard_of(rec.resource) % shards].push_back(rec);
    }
    for (std::size_t i = 0; i < shards; ++i) {
      if (groups[i].empty()) continue;
      ShardJob job;
      job.kind = ShardJob::Kind::kRecords;
      job.records = std::move(groups[i]);
      if (!shard_queues_[i]->push(std::move(job))) {
        rethrow_if_failed();
        throw InvalidArgument("IngestPipeline: submit after close()");
      }
    }
    return;
  }
  const std::size_t per = (total + shards - 1) / shards;
  for (std::size_t i = 0; i * per < total; ++i) {
    const std::size_t begin = i * per;
    const std::size_t end = std::min(total, begin + per);
    ShardJob job;
    job.kind = ShardJob::Kind::kRecords;
    if (begin == 0 && end == total) {
      job.records = std::move(records);
    } else {
      job.records.assign(records.begin() + static_cast<std::ptrdiff_t>(begin),
                         records.begin() + static_cast<std::ptrdiff_t>(end));
    }
    if (!shard_queues_[i]->push(std::move(job))) {
      rethrow_if_failed();
      throw InvalidArgument("IngestPipeline: submit after close()");
    }
  }
}

void IngestPipeline::advance_watermark(TimeNs frontier) {
  rethrow_if_failed();
  if (intake_closed_) {
    throw InvalidArgument("IngestPipeline: advance_watermark after close()");
  }
  if (frontier < requested_frontier_.load(std::memory_order_relaxed)) {
    throw InvalidArgument(
        "IngestPipeline: watermark frontiers must be non-decreasing");
  }
  requested_frontier_.store(frontier, std::memory_order_relaxed);
  for (auto& queue : shard_queues_) {
    ShardJob barrier;
    barrier.kind = ShardJob::Kind::kBarrier;
    barrier.frontier = frontier;
    if (!queue->push(std::move(barrier))) {
      rethrow_if_failed();
      throw InvalidArgument(
          "IngestPipeline: advance_watermark after close()");
    }
  }
}

TimeNs IngestPipeline::advanced() const {
  std::lock_guard<std::mutex> lock(progress_mutex_);
  return advanced_watermark_;
}

void IngestPipeline::wait_until_advanced(TimeNs wm) {
  std::unique_lock<std::mutex> lock(progress_mutex_);
  progress_cv_.wait(lock,
                    [&] { return failed_ || advanced_watermark_ >= wm; });
  if (failed_) std::rethrow_exception(failure_);
}

void IngestPipeline::close() {
  if (!intake_closed_) {
    intake_closed_ = true;
    for (auto& queue : shard_queues_) queue->close();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  rethrow_if_failed();
}

IngestPipelineStats IngestPipeline::stats() const {
  IngestPipelineStats out;
  out.shard_queues.reserve(shard_queues_.size());
  for (const auto& queue : shard_queues_) {
    out.shard_queues.push_back(queue->stats());
  }
  out.batch_queue = batch_queue_->stats();
  out.watermark_queue = watermark_queue_->stats();
  out.records_parsed = records_parsed_.load(std::memory_order_relaxed);
  out.records_sealed = records_sealed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    out.rounds_advanced = rounds_advanced_;
    out.advanced_watermark = advanced_watermark_;
  }
  return out;
}

}  // namespace stagg
