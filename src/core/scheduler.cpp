#include "core/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "core/defs.hpp"
#include "core/exceptions.hpp"
#include "core/parallel.hpp"
#include "runtime/inject.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft {

namespace {

using detail::now_ns;

/** Per-kernel dispatch state for one execute() call. One cache line
 *  each: pool workers load every slot's state on every sweep. */
struct alignas( cacheline_size ) slot
{
    enum : int
    {
        idle,
        running,
        done,
        fused
    };

    kernel *k{ nullptr };
    /** restart deadline (steady ns) armed by a supervised restart, 0 when
     *  none; touched only by the thread that holds the kernel **/
    std::int64_t retry_at{ 0 };
    /** pool claim: idle, running or done; fused for a reduce adapter,
     *  which is dispatched only inside its consumer's slot **/
    std::atomic<int> state{ idle };
    /** pool: the reduce adapters feeding this kernel, dispatched before
     *  it in the same claim **/
    std::vector<slot *> feeders;
    /** pool: the kernel is done; touched only by the claiming worker **/
    bool finished{ false };
};

enum class outcome
{
    idle,    /**< not ready, nothing ran (pool only)               */
    waiting, /**< restart deadline not reached, nothing ran         */
    ran,     /**< made progress; dispatch the kernel again          */
    done     /**< finished, failed or cancelled; streams are closed */
};

/**
 * Shared state of one execute() call: the slots, the failures and the
 * sleeping workers. The first terminal failure (or the watchdog) cancels
 * the graph: raft::term is raised on the bus, every stream is aborted so
 * blocked push/pop/window claims wake with stream_aborted_exception, and
 * every sleeping worker is woken.
 *
 * A sleeping worker waits for `epoch` to move. Wake-ups bump it under
 * `wake_mutex`, so a wait that read the epoch before a bump returns at
 * once. `sleepers` counts parked pool workers (pool_scheduler::execute).
 */
struct exec_context
{
    exec_context( const std::vector<kernel *> &ks, runtime::supervisor *s )
        : sup( s ), slots( ks.size() )
    {
        for( std::size_t i = 0; i < ks.size(); ++i )
        {
            slots[ i ].k = ks[ i ];
        }
    }

    bool cancelled() const noexcept
    {
        return cancelled_.load( std::memory_order_acquire );
    }

    /** Record a terminal failure for `name` and cancel the graph. */
    void fail( const std::string &name, const std::string &what )
    {
        {
            const std::lock_guard<std::mutex> lock( failures_mutex );
            failures.push_back( failure_info{ name, what } );
        }
        cancel();
    }

    void cancel()
    {
        if( cancelled_.exchange( true, std::memory_order_acq_rel ) )
        {
            return;
        }
        if( telemetry::metrics_on() )
        {
            telemetry::graph_cancellations_total().add();
        }
        if( telemetry::tracing() )
        {
            telemetry::instant_str( "graph_cancel",
                                    telemetry::cat::scheduler );
        }
        /** all kernels share one bus **/
        const auto bus = std::find_if(
            slots.begin(), slots.end(),
            []( const slot &s ) { return s.k->bus() != nullptr; } );
        if( bus != slots.end() )
        {
            bus->k->bus()->raise( raft::term );
        }
        /** abort() is idempotent, so sweeping both ends of every stream
         *  is fine **/
        for( auto &s : slots )
        {
            for( auto *ports : { &s.k->output, &s.k->input } )
            {
                for( auto &p : *ports )
                {
                    if( p.bound() )
                    {
                        p.raw().abort();
                    }
                }
            }
        }
        wake( true );
    }

    /** Supervisor verdict on a failed run(): arm the restart deadline
     *  (outcome::ran) or record a terminal failure (outcome::done). */
    outcome restart_or_fail( slot &s, const std::string &what )
    {
        if( sup != nullptr && !cancelled() )
        {
            const auto v = sup->on_failure( *s.k, what );
            if( v.restart )
            {
                s.k->on_restart();
                s.retry_at = now_ns() + v.backoff.count();
                return outcome::ran;
            }
        }
        fail( s.k->name(), what );
        return outcome::done;
    }

    /** Run body( i ) on `count` threads, join them, then throw
     *  graph_error aggregating every recorded failure, if any. */
    template <class Body>
    void run_workers( const std::size_t count, Body body )
    {
        if( sup != nullptr )
        {
            sup->set_canceller( [ this ]( const std::string &reason ) {
                fail( "<watchdog>", reason );
            } );
        }
        std::vector<std::thread> threads;
        threads.reserve( count );
        for( std::size_t i = 0; i < count; ++i )
        {
            threads.emplace_back( body, i );
        }
        for( auto &t : threads )
        {
            t.join();
        }
        if( sup != nullptr )
        {
            sup->clear_canceller();
        }
        const std::lock_guard<std::mutex> lock( failures_mutex );
        if( !failures.empty() )
        {
            throw graph_error( std::move( failures ) );
        }
    }

    /** Sleep until the epoch moves past `seen` or `deadline` (steady ns)
     *  passes. cancel() moves the epoch. */
    void wait( const std::uint64_t seen, const std::int64_t deadline )
    {
        const auto until = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds( deadline ) );
        std::unique_lock<std::mutex> lk( wake_mutex );
        wake_cv.wait_until( lk, until, [ & ]() {
            return epoch.load( std::memory_order_relaxed ) != seen;
        } );
    }

    void wake( const bool all )
    {
        {
            const std::lock_guard<std::mutex> lk( wake_mutex );
            epoch.fetch_add( 1, std::memory_order_release );
        }
        if( all )
        {
            wake_cv.notify_all();
        }
        else
        {
            wake_cv.notify_one();
        }
    }

    /** Waker half of the park handshake (pool_scheduler::execute): a
     *  compiler fence and one relaxed load while nobody sleeps. One wake
     *  is in flight at a time: a sleeper is signalled only when no worker
     *  signalled before has resumed yet, since the one that resumes
     *  sweeps every slot anyway. */
    void wake_sleeper()
    {
        if( light )
        {
            std::atomic_signal_fence( std::memory_order_seq_cst );
        }
        else
        {
            detail::seq_cst_fence();
        }
        if( sleepers.load( std::memory_order_relaxed ) != 0 &&
            !wake_pending.load( std::memory_order_relaxed ) &&
            !wake_pending.exchange( true, std::memory_order_relaxed ) )
        {
            wake( false );
        }
    }

    runtime::supervisor *const sup;
    std::vector<slot> slots;
    std::mutex failures_mutex;
    std::vector<failure_info> failures;

    /** heavy barrier available: a waker's fence is compiler-only **/
    const bool light{ detail::heavy_barrier_available() };
    alignas( cacheline_size ) std::atomic<std::uint32_t> sleepers{ 0 };
    /** a sleeper was signalled and no parker has resumed since **/
    std::atomic<bool> wake_pending{ false };
    alignas( cacheline_size ) std::atomic<std::uint64_t> epoch{ 0 };
    std::mutex wake_mutex;
    std::condition_variable wake_cv;

private:
    std::atomic<bool> cancelled_{ false };
};

/** Up to dispatch_budget run() calls (only while ready() holds, with
 *  `while_ready`), the exception ladder, and one telemetry bill: busy ns,
 *  the exact run count, the mean run() time into the run-seconds
 *  histogram and, when tracing, one span. */
outcome run_budget( slot &s, exec_context &ctx, const bool while_ready )
{
    kernel &k            = *s.k;
    auto *const probe    = k.probe();
    const auto t0        = probe != nullptr ? now_ns() : std::int64_t{ 0 };
    std::size_t executed = 0;
    auto result          = outcome::ran;
    try
    {
        /** kernel::name() builds a string (demangle + id for unnamed
         *  kernels): only with injection armed **/
        if( runtime::inject::enabled() )
        {
            runtime::inject::maybe_throw( "kernel.run", k.name() );
        }
        do
        {
            ++executed;
            if( k.run() == raft::stop )
            {
                result = outcome::done;
                break;
            }
        } while( executed < detail::dispatch_budget &&
                 ( !while_ready || k.ready() ) );
    }
    catch( const closed_port_exception & )
    {
        result = outcome::done; /** normal end-of-stream **/
    }
    catch( const stream_aborted_exception &e )
    {
        /** silent while the graph is being torn down; an externally
         *  poisoned stream (fault injection) is this kernel's terminal
         *  failure and starts the cancellation itself **/
        if( !ctx.cancelled() )
        {
            ctx.fail( k.name(), e.what() );
        }
        result = outcome::done;
    }
    catch( const std::exception &e )
    {
        result = ctx.restart_or_fail( s, e.what() );
    }
    catch( ... )
    {
        result = ctx.restart_or_fail( s, "unknown exception" );
    }
    if( probe != nullptr && executed != 0 )
    {
        const auto t1 = now_ns();
        const auto dt = static_cast<std::uint64_t>( t1 - t0 );
        probe->busy_ns->add( dt );
        probe->runs->add( executed );
        probe->run_hist->observe( dt / executed );
        if( telemetry::tracing() )
        {
            telemetry::span( probe->trace_name, telemetry::cat::kernel, t0,
                             t1 );
        }
    }
    return result;
}

/**
 * One dispatch of slot s's kernel, the only one on both schedulers.
 * raft::term, cancellation and the restart deadline are checked once,
 * before the first run(). A kernel that is done has its streams closed
 * here: outputs for writing (end-of-stream propagates downstream), inputs
 * for reading (blocked upstream producers terminate instead of
 * deadlocking).
 */
outcome dispatch( slot &s, exec_context &ctx, const bool while_ready )
{
    kernel &k   = *s.k;
    auto result = outcome::done;
    if( !ctx.cancelled() &&
        ( k.bus() == nullptr || !k.bus()->termination_requested() ) )
    {
        if( s.retry_at != 0 )
        {
            if( now_ns() < s.retry_at )
            {
                return outcome::waiting;
            }
            s.retry_at = 0;
        }
        if( while_ready && !k.ready() )
        {
            return outcome::idle;
        }
        result = run_budget( s, ctx, while_ready );
    }
    if( result == outcome::done )
    {
        for( auto &p : k.output )
        {
            if( p.bound() )
            {
                p.raw().close_write();
            }
        }
        for( auto &p : k.input )
        {
            if( p.bound() )
            {
                p.raw().close_read();
            }
        }
    }
    return result;
}

/** Pool only: mark each reduce adapter fused and list it among the
 *  feeders of the kernel that reads its output. A reduce read by another
 *  reduce keeps its own slot. */
void fuse_reduces( std::vector<slot> &slots )
{
    for( auto &r : slots )
    {
        if( dynamic_cast<reduce_kernel *>( r.k ) == nullptr )
        {
            continue;
        }
        const fifo_base *const out = &r.k->output[ "0" ].raw();
        for( auto &c : slots )
        {
            if( dynamic_cast<reduce_kernel *>( c.k ) != nullptr )
            {
                continue;
            }
            for( auto &in : c.k->input )
            {
                if( in.bound() && &in.raw() == out )
                {
                    r.state.store( slot::fused, std::memory_order_relaxed );
                    c.feeders.push_back( &r );
                }
            }
        }
    }
}

} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* thread-per-kernel (default)                                          */
/* ------------------------------------------------------------------ */

/**
 * One worker bound to each kernel dispatches it until it is done; its
 * run() may block. A restart deadline is waited out on the graph's epoch,
 * so cancel() ends the wait early.
 */
void thread_scheduler::execute( const std::vector<kernel *> &kernels,
                                const run_options & /* opts */ )
{
    exec_context ctx( kernels, sup_ );
    ctx.run_workers( kernels.size(), [ & ]( const std::size_t i ) {
        auto &s = ctx.slots[ i ];
        if( s.k->probe() != nullptr && telemetry::tracing() )
        {
            telemetry::name_thread( s.k->name() );
        }
        for( auto r = outcome::ran; r != outcome::done; )
        {
            const auto seen = ctx.epoch.load( std::memory_order_acquire );
            r               = dispatch( s, ctx, false );
            if( r == outcome::waiting )
            {
                ctx.wait( seen, s.retry_at );
            }
        }
    } );
}

/* ------------------------------------------------------------------ */
/* cooperative pool                                                     */
/* ------------------------------------------------------------------ */

/**
 * Workers sweep the kernels, claim each idle one with a CAS (skipped when
 * a plain load already sees the slot claimed or done) and dispatch
 * it while ready() holds, up to dispatch_budget run() calls — a constant,
 * not an option: ready() (kernel.hpp) guarantees no run() in it blocks.
 * A kernel waiting out a restart deadline is skipped until then.
 *
 * A reduce adapter gets no slot of its own: it is fused into the slot of
 * the kernel that reads its output, and that slot's claim dispatches the
 * reduce first (while ready(), the same budget) and then the consumer. The
 * merged elements are read on the core that wrote them, instead of each
 * crossing cores once into the reduce and once out of it. A kernel fed by
 * several reduces runs them all, in slot order, before itself. The slot is
 * done only when every kernel in it is; each keeps its own restart
 * deadline, cancellation check and telemetry bill. The thread scheduler
 * keeps one thread per reduce: there a consumer's run() may block, and it
 * would starve a reduce fused into it.
 *
 * Idle workers park. After 64 sweeps in a row without progress (one CPU
 * pause each), a worker runs the parker half of an asymmetric Dekker
 * handshake, the ring's park in shape (ringbuffer.hpp): read the epoch,
 * raise `sleepers`, run the heavy barrier, sweep once more, and only if
 * that sweep finds nothing either, wait for the epoch to move. The waker
 * half is every dispatch that made progress — all stream traffic on the
 * pool happens inside one: a compiler fence and a relaxed load of
 * `sleepers`, and one sleeper woken when it is non-zero and no wake is
 * in flight (`wake_pending`: set by the signal, cleared by any parker
 * that leaves its park, woken or not). The woken worker sweeps every
 * slot, and its own progress wakes the next sleeper, so a burst of
 * dispatches signals once, not once each. Without
 * membarrier both halves use seq_cst fences. The last kernel to finish
 * and cancel() wake every sleeper. A wait ends by the earliest restart
 * deadline the sweep skipped, and after 1 ms at most, like the monitor's
 * doorbell: the cap covers work that no dispatch publishes, such as a
 * ready() override that watches a socket, or a resize by the monitor.
 */
void pool_scheduler::execute( const std::vector<kernel *> &kernels,
                              const run_options &opts )
{
    constexpr int spin_limit           = 64;
    constexpr std::int64_t park_cap_ns = 1'000'000;
    constexpr auto no_deadline = std::numeric_limits<std::int64_t>::max();
    const std::size_t n        = kernels.size();
    std::atomic<std::size_t> done_count{ 0 };
    exec_context ctx( kernels, sup_ );
    fuse_reduces( ctx.slots );

    /** one pass over the slots; true when a dispatch made progress.
     *  Lowers `next_retry` to the earliest restart deadline it skipped. **/
    auto sweep = [ & ]( std::int64_t &next_retry ) {
        bool progressed = false;
        for( auto &s : ctx.slots )
        {
            /** a plain load first: a CAS on a claimed slot would take its
             *  line exclusive for nothing **/
            int expect = slot::idle;
            if( s.state.load( std::memory_order_relaxed ) != slot::idle ||
                !s.state.compare_exchange_strong(
                    expect, slot::running, std::memory_order_acq_rel ) )
            {
                continue;
            }
            bool ran = false, last = false, all_done = true;
            /** the feeders first, then the slot's own kernel **/
            auto step = [ & ]( slot &m ) {
                if( m.finished )
                {
                    return;
                }
                const auto r = dispatch( m, ctx, true );
                if( r == outcome::waiting )
                {
                    next_retry = std::min( next_retry, m.retry_at );
                }
                ran = ran || r == outcome::ran || r == outcome::done;
                if( r != outcome::done )
                {
                    all_done = false;
                    return;
                }
                m.finished = true;
                if( done_count.fetch_add( 1, std::memory_order_acq_rel ) ==
                    n - 1 )
                {
                    last = true;
                }
            };
            for( auto *f : s.feeders )
            {
                step( *f );
            }
            step( s );
            s.state.store( all_done ? slot::done : slot::idle,
                           std::memory_order_release );
            if( ran )
            {
                progressed = true;
                if( last )
                {
                    ctx.wake( true );
                }
                else
                {
                    ctx.wake_sleeper();
                }
            }
        }
        return progressed;
    };

    const auto worker_count = std::max<std::size_t>(
        1, opts.pool_threads != 0 ? opts.pool_threads
                                  : std::thread::hardware_concurrency() );
    ctx.run_workers( worker_count, [ & ]( std::size_t ) {
        if( telemetry::tracing() )
        {
            telemetry::name_thread( "pool_worker" );
        }
        int spins = 0;
        while( done_count.load( std::memory_order_acquire ) < n )
        {
            auto next_retry = no_deadline;
            if( sweep( next_retry ) )
            {
                spins = 0;
            }
            else if( spins < spin_limit )
            {
                ++spins;
                detail::cpu_relax();
            }
            else
            {
                /** parker half **/
                spins           = 0;
                const auto seen = ctx.epoch.load( std::memory_order_acquire );
                ctx.sleepers.fetch_add( 1, std::memory_order_seq_cst );
                if( !ctx.light || !detail::heavy_barrier() )
                {
                    /** a failed barrier (never expected once registered)
                     *  can lose a wake-up; the cap bounds the delay **/
                    detail::seq_cst_fence();
                }
                next_retry = no_deadline;
                if( !sweep( next_retry ) &&
                    done_count.load( std::memory_order_acquire ) < n )
                {
                    ctx.wait( seen, std::min( now_ns() + park_cap_ns,
                                              next_retry ) );
                }
                ctx.sleepers.fetch_sub( 1, std::memory_order_relaxed );
                /** resumed: the next progress may signal again **/
                ctx.wake_pending.store( false, std::memory_order_relaxed );
            }
        }
    } );
}

std::unique_ptr<ischeduler> make_scheduler( const scheduler_kind kind )
{
    switch( kind )
    {
        case scheduler_kind::pool:
            return std::make_unique<pool_scheduler>();
        case scheduler_kind::thread_per_kernel:
        default:
            return std::make_unique<thread_scheduler>();
    }
}

} /** end namespace raft **/
