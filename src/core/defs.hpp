/**
 * defs.hpp — foundational constants and small utilities shared across the
 * RaftLib reproduction: cache-line geometry, monotonic clock helpers,
 * progressive backoff for polling loops, the monitor's doorbell,
 * power-of-two math and type-name demangling for diagnostics.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <typeinfo>

namespace raft {

/** Size assumed for destructive-interference padding of hot atomics. */
inline constexpr std::size_t cacheline_size = 64;

namespace detail {

/** Monotonic nanosecond timestamp (steady clock). */
inline std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One spin-wait hint to the CPU (a no-op where there is none). */
inline void cpu_relax() noexcept
{
#if defined( __x86_64__ ) || defined( __i386__ )
    __builtin_ia32_pause();
#endif
}

/**
 * Progressive backoff for a polling loop that has no word to park on: the
 * shared-memory link's ends and the split/reduce adapters' idle sweeps.
 * Spin a little, then yield, then sleep 50 µs per retry. The sleep keeps
 * an idle poller cheap when threads outnumber cores; it also bounds how
 * late the poller notices new work. Stream rings and the pool's idle
 * workers do not use it: they spin, then park until a peer wakes them
 * (ring_buffer, "Blocking"; pool_scheduler::execute).
 */
class backoff
{
public:
    void pause() noexcept
    {
        if( count_ < spin_limit )
        {
            cpu_relax();
        }
        else if( count_ < yield_limit )
        {
            std::this_thread::yield();
        }
        else
        {
            std::this_thread::sleep_for( std::chrono::microseconds( 50 ) );
        }
        ++count_;
    }

    void reset() noexcept { count_ = 0; }

private:
    static constexpr int spin_limit  = 64;
    static constexpr int yield_limit = 256;
    int count_ = 0;
};

/**
 * A wake-up call for one thread that sleeps with a cap (the monitor).
 * The sleeper calls arm() before it looks for work, then either disarm()
 * or wait_for( cap ). ring() is one load while the sleeper is awake; only
 * the first ring after arm() takes the lock and wakes it. The sleeper's
 * arm() and its later look for work, against the ringer's publication of
 * that work and its load in ring(), form a Dekker pair: both sides must
 * use seq_cst, so that either the ringer sees the sleeper armed or the
 * sleeper sees the work.
 */
class doorbell
{
public:
    void arm() noexcept { armed_.store( true, std::memory_order_seq_cst ); }

    void disarm() noexcept
    {
        armed_.store( false, std::memory_order_relaxed );
    }

    void ring() noexcept
    {
        if( armed_.load( std::memory_order_seq_cst ) &&
            armed_.exchange( false, std::memory_order_seq_cst ) )
        {
            std::lock_guard<std::mutex> lk( m_ );
            rung_ = true;
            cv_.notify_one();
        }
    }

    /** Sleep until ring() or `cap`, then disarm. */
    void wait_for( const std::chrono::nanoseconds cap )
    {
        std::unique_lock<std::mutex> lk( m_ );
        cv_.wait_for( lk, cap, [ this ]() { return rung_; } );
        rung_ = false;
        armed_.store( false, std::memory_order_relaxed );
    }

private:
    std::atomic<bool> armed_{ false };
    bool rung_{ false }; /**< guarded by m_ */
    std::mutex m_;
    std::condition_variable cv_;
};

/**
 * @name asymmetric barrier
 * The heavy half of an asymmetric Dekker handshake: heavy_barrier() makes
 * every thread of the process execute a full memory barrier (Linux
 * membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED), so the light half needs
 * only a compiler fence between its store and its load. The process
 * registers for the command once, on the first call to
 * heavy_barrier_available(); where registration fails (non-Linux, old
 * kernel, a seccomp filter) it returns false and callers keep a symmetric
 * seq_cst pair.
 */
///@{
bool heavy_barrier_available() noexcept;
/** Returns false if the barrier could not be issued (never expected once
 *  registration succeeded); the caller must then not rely on it. */
bool heavy_barrier() noexcept;
/** std::atomic_thread_fence( seq_cst ), for the fallback where the heavy
 *  barrier is missing. Out of line: GCC rejects an inlined fence under
 *  -fsanitize=thread, which does not model fences. */
void seq_cst_fence() noexcept;
///@}

/**
 * @name bare futex park
 * Park a thread on a 32-bit atomic word and wake it, with one syscall
 * each (Linux FUTEX_WAIT_PRIVATE / FUTEX_WAKE_PRIVATE). std::atomic::wait
 * would add libstdc++'s pre-spin (12 pauses, then 4 sched_yield calls)
 * to a park whose caller has already spun. futex_wait() sleeps only while
 * `word` still holds `expected`, and may return early (a signal, a stale
 * value): callers loop on their own condition. Elsewhere these fall back
 * to std::atomic::wait and notify_one.
 */
///@{
void futex_wait( std::atomic<std::uint32_t> &word,
                 std::uint32_t expected ) noexcept;
/** Wake one thread parked on `word`. */
void futex_wake_one( std::atomic<std::uint32_t> &word ) noexcept;
///@}

/** Smallest power of two >= v (v == 0 yields 1). */
constexpr std::size_t pow2_ceil( std::size_t v ) noexcept
{
    std::size_t p = 1;
    while( p < v )
    {
        p <<= 1;
    }
    return p;
}

constexpr bool is_pow2( std::size_t v ) noexcept
{
    return v != 0 && ( v & ( v - 1 ) ) == 0;
}

/** Human-readable name for a std::type_info (demangled where supported). */
std::string demangle( const std::type_info &ti );

} /** end namespace detail **/

} /** end namespace raft **/
