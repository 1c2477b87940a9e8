/**
 * @file
 * Minimal C++20 coroutine task type used by simulated actors.
 *
 * A Task is lazy: it does not run until resumed by the owner (usually via
 * Simulator::spawn / spawnDetached) or awaited by a parent coroutine.
 * Awaiting a Task chains the parent as the continuation and transfers
 * control symmetrically, so arbitrarily deep call chains do not grow the
 * native stack.
 */

#ifndef SMART_SIM_TASK_HPP
#define SMART_SIM_TASK_HPP

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace smart::sim {

/**
 * Thread-local size-classed arena for coroutine frames. The
 * simulation spawns a short-lived detached Task per work request, so
 * frame allocation is on the hot path; an empty class refills by carving
 * from a 64 KiB slab, and freed frames are threaded onto intrusive
 * freelists — the next pointer lives inside the dead frame itself, so
 * neither allocate nor release ever touches the general-purpose
 * allocator in steady state (the old freelist-vector growth was the last
 * hot-path allocation, visible as spawn_churn's 0.123 allocs/1k events).
 *
 * Slabs are process-lifetime (registered in a global list, so leak
 * checkers stay quiet) and are never returned to the allocator.
 */
class FrameArena
{
  public:
    void *
    allocate(std::size_t n)
    {
        std::size_t cls = classFor(n);
        if (cls < kClasses) {
            void *p = free_[cls];
            if (p != nullptr) {
                free_[cls] = nextOf(p);
                return p;
            }
            return carve((cls + 1) * kGranule);
        }
        // Oversized frames (deep coroutines with big locals) are not
        // part of any steady-state per-op path; hand them to the
        // allocator rather than fragmenting slabs.
        return ::operator new(n);
    }

    void
    release(void *p, std::size_t n) noexcept
    {
        std::size_t cls = classFor(n);
        if (cls < kClasses) {
            nextOf(p) = free_[cls];
            free_[cls] = p;
            return;
        }
        ::operator delete(p);
    }

  private:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kClasses = 64; // frames up to 4 KiB pooled
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    static std::size_t
    classFor(std::size_t n) noexcept
    {
        return (n + kGranule - 1) / kGranule - 1;
    }

    static void *&
    nextOf(void *p) noexcept
    {
        return *static_cast<void **>(p);
    }

    void *
    carve(std::size_t bytes)
    {
        if (static_cast<std::size_t>(slabEnd_ - slabCur_) < bytes) {
            auto *slab = static_cast<std::byte *>(::operator new(kSlabBytes));
            registerSlab(slab);
            slabCur_ = slab;
            slabEnd_ = slab + kSlabBytes;
        }
        void *p = slabCur_;
        slabCur_ += bytes;
        return p;
    }

    /** Keep every slab reachable for the process lifetime (leak checkers,
     * frames whose lifetime outlives this arena's thread). */
    static void
    registerSlab(std::byte *slab)
    {
        static std::mutex mu;
        static std::vector<std::byte *> &slabs =
            *new std::vector<std::byte *>; // intentionally immortal
        std::lock_guard<std::mutex> l(mu);
        slabs.push_back(slab);
    }

    void *free_[kClasses] = {};
    std::byte *slabCur_ = nullptr;
    std::byte *slabEnd_ = nullptr;
};

/**
 * The frame allocator used by Task::promise_type: one FrameArena per
 * thread. constinit, so access is a plain TLS load with no guard branch.
 */
class FramePool
{
  public:
    static void *
    allocate(std::size_t n)
    {
        return arena_.allocate(n);
    }

    static void
    release(void *p, std::size_t n) noexcept
    {
        arena_.release(p, n);
    }

  private:
    static thread_local constinit FrameArena arena_;
};

inline thread_local constinit FrameArena FramePool::arena_{};

/** A lazily-started coroutine returning void. */
class Task
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type
    {
        std::coroutine_handle<> continuation{};
        bool detached = false;
        bool *doneFlag = nullptr;

        // Frames come from the FramePool: per-operation detached tasks
        // allocate and free a frame each, and recycling makes that free
        // of allocator traffic in steady state.
        static void *
        operator new(std::size_t n)
        {
            return FramePool::allocate(n);
        }

        static void
        operator delete(void *p, std::size_t n) noexcept
        {
            FramePool::release(p, n);
        }

        Task get_return_object() { return Task{Handle::from_promise(*this)}; }
        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                promise_type &p = h.promise();
                if (p.doneFlag)
                    *p.doneFlag = true;
                std::coroutine_handle<> next = p.continuation
                    ? p.continuation
                    : std::coroutine_handle<>{std::noop_coroutine()};
                if (p.detached)
                    h.destroy();
                return next;
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() noexcept { std::terminate(); }
    };

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}

    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    /** @return true if this owns a coroutine frame. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** @return true if the coroutine ran to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    /** Start or resume the coroutine (owner keeps the frame). */
    void resume() { handle_.resume(); }

    /**
     * Release ownership and mark the frame self-destroying: the coroutine
     * frame is destroyed automatically when it completes.
     * @return the handle, to be resumed exactly once by the caller.
     */
    Handle
    detach()
    {
        Handle h = std::exchange(handle_, {});
        h.promise().detached = true;
        return h;
    }

    /** Awaiting a task starts it and resumes the awaiter at completion. */
    auto
    operator co_await() && noexcept
    {
        struct Awaiter
        {
            Handle child;

            bool await_ready() const noexcept { return !child || child.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent) noexcept
            {
                child.promise().continuation = parent;
                return child; // symmetric transfer: start the child
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_{};
};

} // namespace smart::sim

#endif // SMART_SIM_TASK_HPP
