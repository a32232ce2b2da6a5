//===- support/ThreadPool.h - Work-stealing thread pool --------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small persistent work-stealing pool for the engine's parallel match
/// phase (DESIGN.md "Match/apply phase separation"). parallelFor(N, Fn)
/// deals the item indices [0, N) round-robin over per-worker deques; each
/// worker drains its own deque from the front and, when empty, steals from
/// the back of another's. Items are coarse (one whole semi-naïve delta
/// variant of one rule), so the per-item locking is noise next to the join
/// it guards.
///
/// The calling thread participates as worker 0: a pool of size 1 spawns no
/// threads at all and parallelFor degenerates to a plain loop, and worker
/// threads park on a condition variable between jobs rather than spinning.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_THREADPOOL_H
#define EGGLOG_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace egglog {

/// Fixed-size pool executing index-space loops. Not reentrant: only one
/// parallelFor may be active at a time (the engine runs exactly one match
/// phase at a time).
class ThreadPool {
public:
  /// \p Threads is the total concurrency including the calling thread, so
  /// the pool spawns Threads - 1 workers.
  explicit ThreadPool(unsigned Threads) {
    Queues.resize(Threads == 0 ? 1 : Threads);
    for (auto &Q : Queues)
      Q = std::make_unique<Queue>();
    for (unsigned W = 1; W < Queues.size(); ++W)
      Workers.emplace_back([this, W] { workerLoop(W); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(JobMutex);
      Shutdown = true;
    }
    JobStart.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total concurrency (workers plus the calling thread).
  unsigned threads() const { return static_cast<unsigned>(Queues.size()); }

  /// Runs Fn(I) for every I in [0, NumItems), distributed over the pool
  /// and the calling thread; blocks until every item has finished. Item
  /// order is unspecified — callers must not depend on it.
  void parallelFor(size_t NumItems, const std::function<void(size_t)> &Fn) {
    if (NumItems == 0)
      return;
    if (Queues.size() == 1 || NumItems == 1) {
      for (size_t I = 0; I < NumItems; ++I)
        Fn(I);
      return;
    }
    {
      // Publish the job before dealing any item: a straggler worker still
      // draining the previous job can pick a fresh item up the moment it
      // lands in a deque, and must then observe the new JobFn (it re-reads
      // JobFn under JobMutex per item, and this whole setup holds it).
      std::lock_guard<std::mutex> Lock(JobMutex);
      JobFn = &Fn;
      Remaining.store(NumItems, std::memory_order_relaxed);
      for (size_t I = 0; I < NumItems; ++I) {
        Queue &Q = *Queues[I % Queues.size()];
        std::lock_guard<std::mutex> QLock(Q.M);
        Q.Items.push_back(I);
      }
      ++JobGeneration;
    }
    JobStart.notify_all();
    drain(0);
    std::unique_lock<std::mutex> Lock(JobMutex);
    JobDone.wait(Lock, [this] {
      return Remaining.load(std::memory_order_acquire) == 0;
    });
    JobFn = nullptr;
    // Rethrow the first task exception (e.g. a match arena's bad_alloc)
    // on the caller, matching what the serial loop would do — but only
    // after every item finished, so no worker can still be touching Fn.
    if (FirstError) {
      std::exception_ptr Error = FirstError;
      FirstError = nullptr;
      Lock.unlock();
      std::rethrow_exception(Error);
    }
  }

private:
  struct Queue {
    std::mutex M;
    std::deque<size_t> Items;
  };

  /// Pops the next item: own deque front first, then the back of the
  /// nearest non-empty victim (the "stealing" half of work stealing).
  bool take(unsigned Self, size_t &Item) {
    {
      Queue &Q = *Queues[Self];
      std::lock_guard<std::mutex> Lock(Q.M);
      if (!Q.Items.empty()) {
        Item = Q.Items.front();
        Q.Items.pop_front();
        return true;
      }
    }
    for (size_t Offset = 1; Offset < Queues.size(); ++Offset) {
      Queue &Q = *Queues[(Self + Offset) % Queues.size()];
      std::lock_guard<std::mutex> Lock(Q.M);
      if (!Q.Items.empty()) {
        Item = Q.Items.back();
        Q.Items.pop_back();
        return true;
      }
    }
    return false;
  }

  void drain(unsigned Self) {
    size_t Item;
    while (take(Self, Item)) {
      const std::function<void(size_t)> *Fn;
      {
        // Re-read per item (not once per wake-up): a worker can outlive
        // the job it was woken for and run into the next one's items; the
        // deal loop publishes items only while holding JobMutex with the
        // matching JobFn already set, so this read can never pair an item
        // with a stale function.
        std::lock_guard<std::mutex> Lock(JobMutex);
        Fn = JobFn;
      }
      try {
        (*Fn)(Item);
      } catch (...) {
        // A task must never unwind a worker (std::terminate) or the
        // caller before the job is fully drained (workers would race a
        // destroyed Fn): record the first exception and keep draining;
        // parallelFor rethrows it once every item has completed.
        std::lock_guard<std::mutex> Lock(JobMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
      // The acquire-release RMW chain makes every worker's writes visible
      // to the caller once it observes Remaining == 0.
      if (Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> Lock(JobMutex);
        JobDone.notify_all();
      }
    }
  }

  void workerLoop(unsigned Self) {
    uint64_t Seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> Lock(JobMutex);
        JobStart.wait(Lock,
                      [&] { return Shutdown || JobGeneration != Seen; });
        if (Shutdown)
          return;
        Seen = JobGeneration;
      }
      drain(Self);
    }
  }

  /// One deque per worker slot (index 0 is the calling thread's).
  std::vector<std::unique_ptr<Queue>> Queues;
  std::vector<std::thread> Workers;

  std::mutex JobMutex;
  std::condition_variable JobStart;
  std::condition_variable JobDone;
  /// The active job; read under JobMutex, valid whenever any item of it is
  /// still queued or running.
  const std::function<void(size_t)> *JobFn = nullptr;
  /// Bumped per job so parked workers know they have work to look for.
  uint64_t JobGeneration = 0;
  /// Items not yet completed in the active job.
  std::atomic<size_t> Remaining{0};
  /// First exception a task of the active job threw; guarded by JobMutex,
  /// rethrown by parallelFor after the job drains.
  std::exception_ptr FirstError;
  bool Shutdown = false;
};

} // namespace egglog

#endif // EGGLOG_SUPPORT_THREADPOOL_H
