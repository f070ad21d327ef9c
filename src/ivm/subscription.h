// Per-subscriber delta queues for maintained views.
//
// The Engine fans every ViewDelta out to the subscribers of the view that
// produced it, through one SubscriptionState per subscriber: a bounded
// FIFO with its own mutex + condvar, so consumers (server pusher threads,
// embedded pollers) never touch the engine lock and a slow consumer never
// blocks mutations. Backpressure is *coalescing*, not unbounded
// buffering: when TryPush finds the queue at max_pending, the producer
// drops the backlog and enqueues one resync snapshot instead — the
// subscriber loses intermediate states, never the current one.
//
// Lock order: Engine::Lock() -> SubscriptionState::mu_. The queue mutex
// is a leaf; no SubscriptionState method calls back into the engine.
// prefdb-lint's `prefdb-raw-delta-queue` rule keeps the underlying deque
// private to src/ivm/ — everyone else goes through this API.

#ifndef PREFDB_IVM_SUBSCRIPTION_H_
#define PREFDB_IVM_SUBSCRIPTION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "ivm/delta.h"

namespace prefdb::ivm {

class SubscriptionState {
 public:
  /// `table`/`term` describe the subscribed query for consumers
  /// (introspection); `max_pending` bounds the queue.
  SubscriptionState(std::string table, std::string term, size_t max_pending);

  /// Producer side (engine, under its lock). False when the queue is full
  /// — the caller must follow up with PushResync (losing deltas without
  /// a resync would silently corrupt the subscriber's view).
  bool TryPush(ViewDelta delta);

  /// Drops everything queued and enqueues `resync` as the sole entry: the
  /// coalesced recovery for a subscriber that fell behind.
  void PushResync(ViewDelta resync);

  /// Wakes all waiters; subsequent WaitFor/Poll drain the queue and then
  /// report closed. Idempotent.
  void Close();

  /// Registers a readiness callback, invoked after every TryPush,
  /// PushResync and Close — the hook that lets an event loop drain via
  /// Poll() instead of parking a thread in WaitFor. The callback runs on
  /// the producer's thread (typically under the engine lock) outside
  /// this queue's mutex, so it must be cheap and lock-free toward the
  /// engine: set a flag, signal an eventfd, nothing more. Pass nullptr
  /// to clear. Condvar waiters keep working regardless.
  void SetNotifier(std::function<void()> notifier);

  /// Consumer side. Poll never blocks; WaitFor blocks until a delta is
  /// queued, the state closes, or the timeout elapses.
  std::optional<ViewDelta> Poll();
  std::optional<ViewDelta> WaitFor(std::chrono::milliseconds timeout);

  bool closed() const;
  size_t pending() const;
  size_t max_pending() const;
  /// Times the producer had to coalesce this subscriber's backlog.
  uint64_t coalesced_resyncs() const;

  const std::string& table() const { return table_; }
  const std::string& term() const { return term_; }

 private:
  /// Copies the notifier under mu_ and invokes it outside (the callback
  /// may signal an fd; never let it run under the queue mutex).
  void Notify();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ViewDelta> delta_queue_;
  size_t max_pending_;
  bool closed_ = false;
  uint64_t coalesced_resyncs_ = 0;
  std::function<void()> notifier_;
  const std::string table_;
  const std::string term_;
};

}  // namespace prefdb::ivm

#endif  // PREFDB_IVM_SUBSCRIPTION_H_
