/**
 * @file
 * One background thread that lands file writes in the order they were
 * posted. The campaign worker (DESIGN.md §5g) posts each job's
 * durable writes here — its warm-state file, its stats JSON and its
 * done file — and the publisher thread performs them while the worker
 * claims and simulates the next job. Nothing is skipped: a task calls
 * the ordinary synchronous file APIs (publishFile and the stores
 * built on it), fsyncs included; only the thread that waits for them
 * changes. Callers do the CPU work (state capture, serialization,
 * JSON formatting) before posting, so the thread does little more
 * than syscalls.
 */

#ifndef BOUQUET_COMMON_PUBLISHER_HH
#define BOUQUET_COMMON_PUBLISHER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace bouquet
{

class Publisher
{
  public:
    using Task = std::function<void()>;

    /** Queued tasks of two campaign jobs: warm state, stats JSON and
     *  done file each. */
    static constexpr std::size_t kDepth = 6;

    /** Start the thread; post() blocks while kDepth tasks wait. */
    Publisher();

    /** Finish every posted task, then stop the thread. */
    ~Publisher();

    Publisher(const Publisher &) = delete;
    Publisher &operator=(const Publisher &) = delete;

    /**
     * Queue `task` behind every task posted before it, waiting first
     * while the FIFO is full. A task that throws is reported on
     * stderr; the tasks after it still run.
     */
    void post(Task task);

    /** Return once every task posted so far has finished. */
    void drain();

  private:
    void loop();

    std::mutex mutex_;
    std::condition_variable posted_;   //!< a task arrived, or stop
    std::condition_variable settled_;  //!< a task left the FIFO or ended
    std::deque<Task> tasks_;
    bool running_ = false;  //!< a task is executing outside the lock
    bool stop_ = false;
    std::thread thread_;
};

} // namespace bouquet

#endif // BOUQUET_COMMON_PUBLISHER_HH
