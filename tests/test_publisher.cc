/**
 * @file
 * Tests for the one-thread file publisher (common/publisher.hh):
 * tasks run in posting order, post() blocks once the FIFO holds its
 * bound, drain() waits for the task in flight, a task that throws
 * does not stop the ones after it, and destruction lands every task
 * posted before it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/publisher.hh"

namespace bouquet
{
namespace
{

using namespace std::chrono_literals;

TEST(Publisher, RunsTasksInPostingOrder)
{
    std::vector<int> order;  // touched only by the publisher thread
    Publisher publisher;
    for (int i = 0; i < 100; ++i)
        publisher.post([&order, i] { order.push_back(i); });
    publisher.drain();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Publisher, PostBlocksWhileTheFifoIsFull)
{
    Publisher publisher;
    std::latch started(1);
    std::latch release(1);
    std::vector<int> order;
    publisher.post([&] {
        started.count_down();
        release.wait();
        order.push_back(0);
    });
    started.wait();  // the first task left the FIFO and is running
    const int depth = static_cast<int>(Publisher::kDepth);
    for (int i = 1; i <= depth; ++i)
        publisher.post([&order, i] { order.push_back(i); });

    std::atomic<bool> posted{false};
    std::thread poster([&] {
        publisher.post([&order, depth] { order.push_back(depth + 1); });
        posted = true;
    });
    std::this_thread::sleep_for(100ms);
    EXPECT_FALSE(posted.load()) << "post() returned past the bound";

    release.count_down();
    poster.join();
    EXPECT_TRUE(posted.load());
    publisher.drain();
    ASSERT_EQ(order.size(), Publisher::kDepth + 2);
    for (int i = 0; i <= depth + 1; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Publisher, DrainWaitsForTheRunningTask)
{
    Publisher publisher;
    std::latch started(1);
    std::latch release(1);
    std::atomic<bool> finished{false};
    publisher.post([&] {
        started.count_down();
        release.wait();
        std::this_thread::sleep_for(20ms);
        finished = true;
    });
    started.wait();  // the FIFO is empty; only the running task is left

    std::atomic<bool> drained{false};
    std::atomic<bool> finished_at_drain{false};
    std::thread waiter([&] {
        publisher.drain();
        finished_at_drain = finished.load();
        drained = true;
    });
    std::this_thread::sleep_for(100ms);
    EXPECT_FALSE(drained.load()) << "drain() returned mid-task";

    release.count_down();
    waiter.join();
    EXPECT_TRUE(finished_at_drain.load());
}

TEST(Publisher, AFailingTaskDoesNotStopTheTasksAfterIt)
{
    Publisher publisher;
    std::vector<int> ran;
    testing::internal::CaptureStderr();
    publisher.post([] { throw std::runtime_error("disk on fire"); });
    publisher.post([&ran] { ran.push_back(1); });
    publisher.post([] { throw 42; });
    publisher.post([&ran] { ran.push_back(2); });
    publisher.drain();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_NE(err.find("[publisher] task failed: disk on fire"),
              std::string::npos)
        << err;
}

TEST(Publisher, DestructionLandsEveryPostedTask)
{
    std::atomic<int> ran{0};
    {
        Publisher publisher;
        for (int i = 0; i < 20; ++i)
            publisher.post([&ran] {
                std::this_thread::sleep_for(2ms);
                ran.fetch_add(1);
            });
    }
    EXPECT_EQ(ran.load(), 20);
}

} // namespace
} // namespace bouquet
