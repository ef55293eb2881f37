/**
 * inject.hpp — deterministic fault-injection harness (raft::runtime::inject).
 *
 * Testing a fault-tolerant runtime requires faults on demand. This harness
 * arms *plans* against named instrumentation sites compiled into the
 * runtime ("kernel.run" once per scheduler dispatch, "net.send" once per
 * tcp_connection::send_all, "net.recv" once per recv(2) it makes); when
 * an armed plan matches a site hit, it fires: throw an injected_fault
 * from a kernel's run(), delay an I/O call, or kill a live TCP link
 * (::shutdown on the fd, so the very next real syscall fails and the peer
 * observes EOF before the end-of-stream frame — both ends throw
 * net_exception and fail their graphs, exactly like a genuine network
 * partition).
 * Streams can additionally be poisoned at the Nth element with the
 * inject::poison pass-through kernel.
 *
 * Determinism: plans fire by counting matching hits (fire after `after`
 * hits, `count` times); the optional probability coin is driven by a
 * splitmix64 generator seeded once at enable(), so a given seed replays
 * the same decision sequence for the same hit order.
 *
 * Everything defaults OFF. The disabled fast path is one inline relaxed
 * atomic load per site — no locks, no allocation, no behavior change —
 * provided the caller's detail argument is already built (see below).
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/exceptions.hpp"
#include "core/kernel.hpp"

namespace raft::runtime::inject {

/** Thrown by a fired throw_error plan. */
class injected_fault : public raft_exception
{
public:
    explicit injected_fault( const std::string &what )
        : raft_exception( what )
    {
    }
};

enum class action
{
    throw_error, /**< throw injected_fault at the site                  */
    delay,       /**< sleep plan.delay at the site                      */
    kill_link    /**< tell the site's caller to kill its TCP link       */
};

struct plan
{
    std::string site;  /**< instrumentation site, e.g. "kernel.run"      */
    std::string match; /**< substring of the site detail ("" = any)      */
    action act{ action::throw_error };
    std::uint64_t after{ 0 }; /**< skip the first `after` matching hits  */
    std::uint64_t count{ 1 }; /**< firings allowed (0 = unlimited)       */
    double probability{ 1.0 }; /**< seeded coin per eligible hit         */
    std::chrono::nanoseconds delay{ std::chrono::milliseconds( 1 ) };
    std::string message{ "injected fault" };
};

/** Master switch. enable() seeds the coin generator and starts matching;
 *  disable() clears every plan and counter. Not meant to be toggled while
 *  a graph is running (tests arm before exe()). */
void enable( std::uint64_t seed );
void disable();

namespace detail {
inline std::atomic<bool> active{ false };
void throw_site( const char *site, const std::string &detail );
void delay_site( const char *site, const std::string &detail );
bool kill_site( const char *site, const std::string &detail );
} /** end namespace detail **/

inline bool enabled() noexcept
{
    return detail::active.load( std::memory_order_relaxed );
}

/** Arm one plan (enable() first). */
void arm( plan p );

/** Total firings at a site since enable() (test introspection). */
std::uint64_t fired( const std::string &site );

/** @name instrumentation sites (called from the runtime)
 * Disabled cost: the inline enabled() check, plus whatever the caller
 * spends building `detail` — arguments are evaluated before the check. A
 * hot-path caller must therefore pass a string it resolved once outside
 * its loop (the schedulers resolve each kernel's name once per exe()),
 * never a temporary such as kernel::name().
 */
///@{
inline void maybe_throw( const char *site, const std::string &detail )
{
    if( enabled() )
    {
        detail::throw_site( site, detail );
    }
}

inline void maybe_delay( const char *site, const std::string &detail )
{
    if( enabled() )
    {
        detail::delay_site( site, detail );
    }
}

/** True when the caller should kill its link now. */
inline bool should_kill( const char *site, const std::string &detail )
{
    return enabled() && detail::kill_site( site, detail );
}
///@}

/**
 * Pass-through kernel that poisons its stream at the Nth element: elements
 * 1..N-1 are forwarded untouched, then the output stream is aborted (the
 * downstream peer wakes with stream_aborted_exception and the scheduler
 * cancels the graph). N == 0 never poisons — a pure relay.
 */
template <class T> class poison : public kernel
{
public:
    explicit poison( const std::uint64_t nth )
        : kernel(), in_( input.addPort<T>( "0" ) ),
          out_( output.addPort<T>( "0" ) ), nth_( nth )
    {
    }

    kstatus run() override
    {
        signal s{ none };
        T v;
        in_.pop( v, &s );
        if( nth_ != 0 && ++seen_ >= nth_ )
        {
            out_.raw().abort();
            return raft::stop;
        }
        out_.push( v, s );
        return raft::proceed;
    }

private:
    port &in_;
    port &out_;
    std::uint64_t nth_;
    std::uint64_t seen_{ 0 };
};

} /** end namespace raft::runtime::inject **/
