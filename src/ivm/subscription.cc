#include "ivm/subscription.h"

#include <utility>

namespace prefdb::ivm {

SubscriptionState::SubscriptionState(std::string table, std::string term,
                                     size_t max_pending)
    : max_pending_(max_pending == 0 ? 1 : max_pending),
      table_(std::move(table)),
      term_(std::move(term)) {}

bool SubscriptionState::TryPush(ViewDelta delta) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return true;  // nobody is listening; drop silently
    if (delta_queue_.size() >= max_pending_) return false;
    delta_queue_.push_back(std::move(delta));
  }
  cv_.notify_one();
  Notify();
  return true;
}

void SubscriptionState::PushResync(ViewDelta resync) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    delta_queue_.clear();
    delta_queue_.push_back(std::move(resync));
    ++coalesced_resyncs_;
  }
  cv_.notify_one();
  Notify();
}

void SubscriptionState::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  Notify();
}

void SubscriptionState::SetNotifier(std::function<void()> notifier) {
  std::lock_guard<std::mutex> lock(mu_);
  notifier_ = std::move(notifier);
}

void SubscriptionState::Notify() {
  std::function<void()> notifier;
  {
    std::lock_guard<std::mutex> lock(mu_);
    notifier = notifier_;
  }
  if (notifier) notifier();
}

std::optional<ViewDelta> SubscriptionState::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (delta_queue_.empty()) return std::nullopt;
  ViewDelta d = std::move(delta_queue_.front());
  delta_queue_.pop_front();
  return d;
}

std::optional<ViewDelta> SubscriptionState::WaitFor(
    std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout,
               [this] { return closed_ || !delta_queue_.empty(); });
  if (delta_queue_.empty()) return std::nullopt;
  ViewDelta d = std::move(delta_queue_.front());
  delta_queue_.pop_front();
  return d;
}

bool SubscriptionState::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t SubscriptionState::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_queue_.size();
}

size_t SubscriptionState::max_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_pending_;
}

uint64_t SubscriptionState::coalesced_resyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_resyncs_;
}

}  // namespace prefdb::ivm
