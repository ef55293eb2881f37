/**
 * defs.hpp — foundational constants and small utilities shared across the
 * RaftLib reproduction: cache-line geometry, monotonic clock helpers,
 * progressive backoff for blocking queue operations, power-of-two math and
 * type-name demangling for diagnostics.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
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

/**
 * Progressive backoff used while a queue end waits for space/data: spin a
 * little, then yield, then sleep briefly. The sleep keeps a blocked side
 * cheap when threads outnumber cores, where yielding promptly matters for
 * forward progress.
 */
class backoff
{
public:
    void pause() noexcept
    {
        if( count_ < spin_limit )
        {
#if defined( __x86_64__ ) || defined( __i386__ )
            __builtin_ia32_pause();
#endif
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
