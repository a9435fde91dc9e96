#include "common/publisher.hh"

#include <exception>
#include <iostream>

namespace bouquet
{

Publisher::Publisher() : thread_([this] { loop(); })
{
}

Publisher::~Publisher()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    posted_.notify_all();
    thread_.join();
}

void
Publisher::post(Task task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        settled_.wait(lock, [this] { return tasks_.size() < kDepth; });
        tasks_.push_back(std::move(task));
    }
    posted_.notify_one();
}

void
Publisher::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    settled_.wait(lock, [this] { return tasks_.empty() && !running_; });
}

void
Publisher::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        posted_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        // Stop only once the FIFO is empty: the destructor drains.
        if (tasks_.empty())
            return;
        Task task = std::move(tasks_.front());
        tasks_.pop_front();
        running_ = true;
        lock.unlock();
        settled_.notify_all();  // room for a blocked post()
        try {
            task();
        } catch (const std::exception &e) {
            std::cerr << "[publisher] task failed: " << e.what() << "\n";
        } catch (...) {
            std::cerr << "[publisher] task failed\n";
        }
        task = nullptr;  // release its captures before reporting idle
        lock.lock();
        running_ = false;
        settled_.notify_all();
    }
}

} // namespace bouquet
