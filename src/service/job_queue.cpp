#include "src/service/job_queue.hpp"

namespace satproof::service {

JobQueue::JobQueue(std::size_t capacity) : capacity_(capacity) {}

JobQueue::EnqueueResult JobQueue::try_enqueue(QueuedJob&& job) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return EnqueueResult::kClosed;
    if (fast_.size() + bulk_.size() >= capacity_) return EnqueueResult::kFull;
    if (job.lane == Lane::kBulk) {
      bulk_.push_back(std::move(job));
      ++enqueued_bulk_;
    } else {
      fast_.push_back(std::move(job));
      ++enqueued_fast_;
    }
  }
  cv_.notify_one();
  return EnqueueResult::kAccepted;
}

std::optional<QueuedJob> JobQueue::take_locked() {
  std::deque<QueuedJob>& lane = fast_.empty() ? bulk_ : fast_;
  if (lane.empty()) return std::nullopt;
  std::optional<QueuedJob> job(std::move(lane.front()));
  lane.pop_front();
  return job;
}

std::optional<QueuedJob> JobQueue::try_pop() {
  std::lock_guard lock(mutex_);
  return take_locked();
}

std::optional<QueuedJob> JobQueue::pop_blocking() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock,
           [this] { return closed_ || !fast_.empty() || !bulk_.empty(); });
  return take_locked();  // nullopt only once closed and drained
}

void JobQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

JobQueue::Snapshot JobQueue::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot out;
  out.depth_fast = fast_.size();
  out.depth_bulk = bulk_.size();
  out.enqueued_fast = enqueued_fast_;
  out.enqueued_bulk = enqueued_bulk_;
  return out;
}

}  // namespace satproof::service
