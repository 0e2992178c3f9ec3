#include "threadpool.hh"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "logging.hh"

namespace cps
{

unsigned
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(envUnsigned("CPS_THREADS", hw > 0 ? hw : 1,
                                             1, 1024,
                                             "an integer in [1, 1024]"));
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cps_assert(!stopping_, "submit on a stopping thread pool");
        queue_.push_back(std::move(task));
        ++pending_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return pending_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
            if (pending_ == 0)
                allDone_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (size() <= 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // One claiming task per worker: indexes are handed out through an
    // atomic counter so an early-finishing worker picks up slack.
    auto next = std::make_shared<std::atomic<size_t>>(0);
    unsigned tasks = static_cast<unsigned>(
        std::min<size_t>(n, size()));
    for (unsigned t = 0; t < tasks; ++t) {
        submit([next, n, &fn] {
            for (;;) {
                size_t i = next->fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    wait();
}

} // namespace cps
