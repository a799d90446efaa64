// Unit tests for the service scheduler's building blocks: the two-lane
// FIFO job queue (lane priority, admission order, exactly-once delivery
// under contention, drain shutdown), the incremental frame decoder behind
// the ingest loop, the poll(2) EventPoller, and the submit-header wire
// encoding.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/service/job_queue.hpp"
#include "src/service/protocol.hpp"
#include "src/util/poller.hpp"

namespace satproof::service {
namespace {

QueuedJob make_job(std::uint64_t id, Lane lane = Lane::kFast) {
  QueuedJob job;
  job.request.id = id;
  job.lane = lane;
  return job;
}

// -------------------------------------------------------------- JobQueue

/// Drains the queue from one consumer, returning the ids in pop order.
std::vector<std::uint64_t> drain_ids(JobQueue& q) {
  std::vector<std::uint64_t> order;
  while (auto job = q.try_pop()) order.push_back(job->request.id);
  return order;
}

TEST(JobQueue, FifoWithinALane) {
  JobQueue q(16);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_EQ(q.try_enqueue(make_job(id)), JobQueue::EnqueueResult::kAccepted);
  }
  EXPECT_EQ(drain_ids(q), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(JobQueue, JobsLeaveInAdmissionOrderWithBulkLast) {
  // Whichever worker asks, jobs leave in admission order within a lane,
  // and a bulk job admitted first still waits for every fast job.
  JobQueue q(16);
  ASSERT_EQ(q.try_enqueue(make_job(100, Lane::kBulk)),
            JobQueue::EnqueueResult::kAccepted);
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_EQ(q.try_enqueue(make_job(id)), JobQueue::EnqueueResult::kAccepted);
  }
  EXPECT_EQ(drain_ids(q),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 100}));
}

TEST(JobQueue, FastLaneOvertakesEarlierBulkJobs) {
  JobQueue q(16);
  ASSERT_EQ(q.try_enqueue(make_job(1, Lane::kBulk)),
            JobQueue::EnqueueResult::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(2, Lane::kBulk)),
            JobQueue::EnqueueResult::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(3, Lane::kFast)),
            JobQueue::EnqueueResult::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(4, Lane::kFast)),
            JobQueue::EnqueueResult::kAccepted);

  const auto snap = q.snapshot();
  EXPECT_EQ(snap.depth_fast, 2u);
  EXPECT_EQ(snap.depth_bulk, 2u);
  EXPECT_EQ(snap.enqueued_fast, 2u);
  EXPECT_EQ(snap.enqueued_bulk, 2u);

  EXPECT_EQ(drain_ids(q), (std::vector<std::uint64_t>{3, 4, 1, 2}));
  EXPECT_EQ(q.snapshot().depth(), 0u);
  EXPECT_EQ(q.snapshot().enqueued_fast, 2u);  // cumulative, not a gauge
}

TEST(JobQueue, CapacityIsEnforcedAcrossLanes) {
  JobQueue q(2);
  EXPECT_EQ(q.try_enqueue(make_job(1)), JobQueue::EnqueueResult::kAccepted);
  EXPECT_EQ(q.try_enqueue(make_job(2, Lane::kBulk)),
            JobQueue::EnqueueResult::kAccepted);
  EXPECT_EQ(q.try_enqueue(make_job(3)), JobQueue::EnqueueResult::kFull);
  EXPECT_EQ(q.try_enqueue(make_job(4, Lane::kBulk)),
            JobQueue::EnqueueResult::kFull);
  EXPECT_EQ(q.snapshot().depth(), 2u);
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_EQ(q.try_enqueue(make_job(5)), JobQueue::EnqueueResult::kAccepted);
}

TEST(JobQueue, CloseRefusesNewWorkButDrainsQueuedJobs) {
  JobQueue q(8);
  ASSERT_EQ(q.try_enqueue(make_job(1)), JobQueue::EnqueueResult::kAccepted);
  ASSERT_EQ(q.try_enqueue(make_job(2, Lane::kBulk)),
            JobQueue::EnqueueResult::kAccepted);
  q.close();
  EXPECT_EQ(q.try_enqueue(make_job(3)), JobQueue::EnqueueResult::kClosed);
  // pop_blocking drains the queued work, then reports shutdown to every
  // caller.
  auto first = q.pop_blocking();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request.id, 1u);
  auto second = q.pop_blocking();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request.id, 2u);
  EXPECT_FALSE(q.pop_blocking().has_value());
  EXPECT_FALSE(q.pop_blocking().has_value());
}

TEST(JobQueue, EveryJobIsExecutedExactlyOnceUnderContention) {
  constexpr unsigned kConsumers = 4;
  constexpr unsigned kProducers = 8;
  constexpr std::uint64_t kJobsPerProducer = 200;
  JobQueue q(kProducers * kJobsPerProducer);

  std::mutex seen_mutex;
  std::vector<std::uint64_t> seen;
  std::vector<std::thread> consumers;
  for (unsigned w = 0; w < kConsumers; ++w) {
    consumers.emplace_back([&] {
      while (auto job = q.pop_blocking()) {
        std::lock_guard lock(seen_mutex);
        seen.push_back(job->request.id);
      }
    });
  }

  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kJobsPerProducer; ++i) {
        const std::uint64_t id = p * kJobsPerProducer + i + 1;
        const Lane lane = i % 3 == 0 ? Lane::kBulk : Lane::kFast;
        ASSERT_EQ(q.try_enqueue(make_job(id, lane)),
                  JobQueue::EnqueueResult::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(seen.size(), kProducers * kJobsPerProducer);
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], i + 1) << "job lost or duplicated";
  }
  EXPECT_EQ(q.snapshot().depth(), 0u);
}

TEST(JobQueue, DrainWhileWorkersCompeteLosesNothing) {
  // close() races against workers that are actively popping: every job
  // admitted before the close must still be handed out exactly once, and
  // every pop_blocking must return nullopt afterwards.
  for (int round = 0; round < 20; ++round) {
    constexpr unsigned kConsumers = 4;
    JobQueue q(64);
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> popped{0};

    std::vector<std::thread> consumers;
    for (unsigned w = 0; w < kConsumers; ++w) {
      consumers.emplace_back([&] {
        while (q.pop_blocking()) popped.fetch_add(1);
      });
    }
    std::thread producer([&] {
      for (std::uint64_t id = 1; id <= 200; ++id) {
        const auto res = q.try_enqueue(make_job(
            id, id % 4 == 0 ? Lane::kBulk : Lane::kFast));
        if (res == JobQueue::EnqueueResult::kAccepted) {
          accepted.fetch_add(1);
        } else if (res == JobQueue::EnqueueResult::kClosed) {
          break;
        }
        if (id == 100) q.close();  // close mid-stream, from the producer
      }
    });
    producer.join();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(popped.load(), accepted.load());
    EXPECT_EQ(q.snapshot().depth(), 0u);
  }
}

// ---------------------------------------------------------- FrameDecoder

std::vector<std::uint8_t> wire_frame(FrameTag tag,
                                     const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(tag));
  append_u32le(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(FrameDecoderTest, ReassemblesAFrameFedOneByteAtATime) {
  const std::vector<std::uint8_t> wire =
      wire_frame(FrameTag::kCnfData, {1, 2, 3, 4});
  FrameDecoder dec;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_EQ(dec.next(frame), FrameDecoder::Result::kNeedMore);
    EXPECT_TRUE(dec.mid_frame());
  }
  dec.feed(&wire.back(), 1);
  ASSERT_EQ(dec.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kCnfData);
  EXPECT_EQ(frame.payload, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameDecoderTest, DrainsMultiplePipelinedFramesFromOneFeed) {
  std::vector<std::uint8_t> wire = wire_frame(FrameTag::kSubmitEnd, {});
  const auto second = wire_frame(FrameTag::kStats, {});
  wire.insert(wire.end(), second.begin(), second.end());

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(dec.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kSubmitEnd);
  ASSERT_EQ(dec.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kStats);
  EXPECT_EQ(dec.next(frame), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, OversizedDeclaredLengthIsRejectedFromTheHeader) {
  FrameDecoder dec(/*max_payload=*/16);
  std::vector<std::uint8_t> header;
  header.push_back(static_cast<std::uint8_t>(FrameTag::kCnfData));
  append_u32le(header, 17);  // one past the cap; no payload bytes needed
  dec.feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(dec.next(frame), FrameDecoder::Result::kOversized);
}

// ----------------------------------------------------------- EventPoller

TEST(EventPoller, ReportsReadableAndHonoursInterest) {
  util::EventPoller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  poller.add(fds[0], /*key=*/7, /*want_read=*/true, /*want_write=*/false);
  std::vector<util::PollEvent> events;

  // Nothing buffered: a zero timeout returns immediately with no events.
  EXPECT_EQ(poller.wait(0, events), 0u);

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].key, 7u);
  EXPECT_TRUE(events[0].readable);

  // Dropping read interest silences the (still readable) descriptor.
  poller.modify(fds[0], /*want_read=*/false, /*want_write=*/false);
  EXPECT_EQ(poller.wait(0, events), 0u);

  poller.remove(fds[0]);
  EXPECT_EQ(poller.size(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventPoller, WriteInterestFiresOnAWritablePipe) {
  util::EventPoller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  poller.add(fds[1], /*key=*/9, /*want_read=*/false, /*want_write=*/true);
  std::vector<util::PollEvent> events;
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].key, 9u);
  EXPECT_TRUE(events[0].writable);
  poller.remove(fds[1]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventPoller, ClosedWriteEndReportsTheReadEnd) {
  // The server reaps a peer that hung up from exactly this event: the
  // read end of a pipe whose writer is gone must wake the poller (as
  // readable EOF or as a hangup), or dead connections would linger.
  util::EventPoller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  poller.add(fds[0], /*key=*/11, /*want_read=*/true, /*want_write=*/false);
  std::vector<util::PollEvent> events;
  EXPECT_EQ(poller.wait(0, events), 0u);

  ::close(fds[1]);
  ASSERT_EQ(poller.wait(1000, events), 1u);
  EXPECT_EQ(events[0].key, 11u);
  EXPECT_TRUE(events[0].readable || events[0].error);
  char byte = 0;
  EXPECT_EQ(::read(fds[0], &byte, 1), 0);  // EOF, not an error
  poller.remove(fds[0]);
  ::close(fds[0]);
}

// ---------------------------------------------------- SubmitHeader compat

TEST(SubmitHeaderCompat, DeclaredBytesRoundTripInThe18ByteEncoding) {
  SubmitHeader h;
  h.backend = 2;
  h.flags = kSubmitFlagWait;
  h.timeout_ms = 1234;
  h.jobs = 3;
  h.declared_bytes = (5u << 20) + 17;
  const std::vector<std::uint8_t> wire = encode_submit_header(h);
  ASSERT_EQ(wire.size(), 18u);

  SubmitHeader back;
  ASSERT_TRUE(decode_submit_header(wire, back));
  EXPECT_EQ(back.declared_bytes, h.declared_bytes);
  EXPECT_EQ(back.timeout_ms, h.timeout_ms);
}

TEST(SubmitHeaderCompat, Legacy10ByteHeaderIsRejected) {
  // The header without its trailing declared_bytes field is a wrong
  // length; the server answers it with a kMalformedFrame error.
  std::vector<std::uint8_t> wire = encode_submit_header(SubmitHeader{});
  wire.resize(10);
  SubmitHeader back;
  EXPECT_FALSE(decode_submit_header(wire, back));
}

TEST(SubmitHeaderCompat, LaneThresholdClassifiesDeclaredSizes) {
  EXPECT_EQ(lane_for_bytes(0), Lane::kFast);
  EXPECT_EQ(lane_for_bytes(kBulkLaneThresholdBytes - 1), Lane::kFast);
  EXPECT_EQ(lane_for_bytes(kBulkLaneThresholdBytes), Lane::kBulk);
}

}  // namespace
}  // namespace satproof::service
