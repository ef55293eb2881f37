#include "core/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "core/defs.hpp"
#include "core/exceptions.hpp"
#include "runtime/inject.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

#if defined( __linux__ )
#include <pthread.h>
#include <sched.h>
#endif

namespace raft {

namespace detail {

void close_kernel_streams( kernel &k )
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

void exec_context::fail( const kernel &k, const std::string &what )
{
    fail_named( k.name(), what );
}

void exec_context::fail_named( const std::string &name,
                               const std::string &what )
{
    {
        const std::lock_guard<std::mutex> lock( mutex_ );
        failures_.push_back( failure_info{ name, what } );
    }
    cancel();
}

void exec_context::cancel()
{
    if( cancelled.exchange( true, std::memory_order_acq_rel ) )
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
    if( kernels == nullptr )
    {
        return;
    }
    /** raise termination on the shared bus (all kernels see one bus) **/
    for( kernel *k : *kernels )
    {
        if( k->bus() != nullptr )
        {
            k->bus()->raise( raft::term );
            break;
        }
    }
    /** poison every stream: blocked peers wake with
     *  stream_aborted_exception instead of waiting on data that will
     *  never arrive. Each stream is bound to an output and an input
     *  port; abort() is idempotent, so sweeping both sides is fine. **/
    for( kernel *k : *kernels )
    {
        for( auto &p : k->output )
        {
            if( p.bound() )
            {
                p.raw().abort();
            }
        }
        for( auto &p : k->input )
        {
            if( p.bound() )
            {
                p.raw().abort();
            }
        }
    }
}

void exec_context::throw_if_failed()
{
    std::vector<failure_info> f;
    {
        const std::lock_guard<std::mutex> lock( mutex_ );
        f.swap( failures_ );
    }
    if( !f.empty() )
    {
        throw graph_error( std::move( f ) );
    }
}

namespace {

/** Sleep `d`, waking early if the graph is cancelled meanwhile. */
void cancellable_sleep( exec_context &ctx, const std::chrono::nanoseconds d )
{
    const auto deadline = now_ns() + d.count();
    while( !ctx.cancelled.load( std::memory_order_acquire ) )
    {
        const auto remaining = deadline - now_ns();
        if( remaining <= 0 )
        {
            return;
        }
        std::this_thread::sleep_for( std::chrono::nanoseconds(
            std::min<std::int64_t>( remaining, 1'000'000 ) ) );
    }
}

/**
 * Classify one escaped exception from kernel k's run():
 *  - restart granted by the supervisor → true (caller re-enters run())
 *  - terminal → false, failure recorded, graph cancelled
 */
bool handle_kernel_failure( kernel &k, exec_context &ctx,
                            const std::string &what )
{
    if( ctx.sup != nullptr &&
        !ctx.cancelled.load( std::memory_order_acquire ) )
    {
        const auto v = ctx.sup->on_failure( k, what );
        if( v.restart )
        {
            cancellable_sleep( ctx, v.backoff );
            if( !ctx.cancelled.load( std::memory_order_acquire ) )
            {
                k.on_restart();
                return true;
            }
            return false;
        }
    }
    ctx.fail( k, what );
    return false;
}

} /** end anonymous namespace **/

void kernel_loop( kernel &k, exec_context &ctx )
{
    /** telemetry session attaches the probe before the scheduler starts;
     *  untelemetered runs see a null pointer and none of the clock or
     *  counter traffic below **/
    auto *const probe = k.probe();
    const auto life_start =
        probe != nullptr ? now_ns() : std::int64_t{ 0 };
    /** kernel::name() builds a string (demangle + id for unnamed
     *  kernels): resolve it once, not per run() **/
    const std::string name = k.name();
    if( probe != nullptr && telemetry::tracing() )
    {
        telemetry::name_thread( name );
    }
    for( ;; ) /** restart loop (supervised runs re-enter here) **/
    {
        try
        {
            for( ;; )
            {
                if( k.bus() != nullptr && k.bus()->termination_requested() )
                {
                    break;
                }
                runtime::inject::maybe_throw( "kernel.run", name );
                if( probe != nullptr )
                {
                    /** service-time accounting: runs, busy ns, and the
                     *  per-invocation duration histogram feed the
                     *  raft_kernel_* series (§4.1 service rates) **/
                    const auto t0 = now_ns();
                    const auto st = k.run();
                    const auto dt =
                        static_cast<std::uint64_t>( now_ns() - t0 );
                    probe->busy_ns->add( dt );
                    probe->runs->add( 1 );
                    probe->run_hist->observe( dt );
                    if( st == raft::stop )
                    {
                        break;
                    }
                }
                else if( k.run() == raft::stop )
                {
                    break;
                }
            }
        }
        catch( const closed_port_exception & )
        {
            /** normal end-of-stream control flow **/
        }
        catch( const stream_aborted_exception &e )
        {
            /** cancellation wake-up — silent when the graph is already
             *  being torn down; an externally poisoned stream (fault
             *  injection) counts as this kernel's terminal failure and
             *  starts the cancellation itself **/
            if( !ctx.cancelled.load( std::memory_order_acquire ) )
            {
                ctx.fail( k, e.what() );
            }
        }
        catch( const std::exception &e )
        {
            if( handle_kernel_failure( k, ctx, e.what() ) )
            {
                continue;
            }
        }
        catch( ... )
        {
            if( handle_kernel_failure( k, ctx, "unknown exception" ) )
            {
                continue;
            }
        }
        break;
    }
    close_kernel_streams( k );
    if( probe != nullptr )
    {
        /** whole-lifetime span: run + blocked time on this thread **/
        telemetry::span( probe->trace_name, telemetry::cat::kernel,
                         life_start, now_ns() );
    }
}

namespace {

void pin_to_core( [[maybe_unused]] const unsigned core_id )
{
#if defined( __linux__ )
    cpu_set_t set;
    CPU_ZERO( &set );
    CPU_SET( core_id % std::max( 1u, std::thread::hardware_concurrency() ),
             &set );
    (void) pthread_setaffinity_np( pthread_self(), sizeof( set ), &set );
#endif
}

} /** end anonymous namespace **/

} /** end namespace detail **/

/* ------------------------------------------------------------------ */
/* thread-per-kernel (default)                                          */
/* ------------------------------------------------------------------ */

void thread_scheduler::execute( const std::vector<kernel *> &kernels,
                                const run_options &opts,
                                const mapping::assignment *assign,
                                const mapping::machine_desc &machine )
{
    (void) machine;
    detail::exec_context ctx;
    ctx.kernels = &kernels;
    ctx.sup     = sup_;
    if( sup_ != nullptr )
    {
        sup_->set_canceller( [ &ctx ]( const std::string &reason ) {
            ctx.fail_named( "<watchdog>", reason );
        } );
    }
    std::vector<std::thread> threads;
    threads.reserve( kernels.size() );
    for( std::size_t i = 0; i < kernels.size(); ++i )
    {
        kernel *k = kernels[ i ];
        const unsigned core =
            ( assign != nullptr && i < assign->core_of.size() )
                ? assign->core_of[ i ]
                : 0u;
        const bool pin = opts.pin_threads && assign != nullptr;
        threads.emplace_back( [ k, core, pin, &ctx ]() {
            if( pin )
            {
                detail::pin_to_core( core );
            }
            detail::kernel_loop( *k, ctx );
        } );
    }
    for( auto &t : threads )
    {
        t.join();
    }
    if( sup_ != nullptr )
    {
        sup_->clear_canceller();
    }
    ctx.throw_if_failed();
}

/* ------------------------------------------------------------------ */
/* cooperative pool                                                     */
/* ------------------------------------------------------------------ */

void pool_scheduler::execute( const std::vector<kernel *> &kernels,
                              const run_options &opts,
                              const mapping::assignment *assign,
                              const mapping::machine_desc &machine )
{
    (void) assign;
    (void) machine;
    enum : int
    {
        idle    = 0,
        running = 1,
        done    = 2
    };
    const std::size_t n = kernels.size();
    std::vector<std::atomic<int>> state( n );
    for( auto &s : state )
    {
        s.store( idle, std::memory_order_relaxed );
    }
    /** supervised restarts must not put a worker to sleep: a restarting
     *  kernel instead becomes eligible again at retry_at[i] **/
    std::vector<std::atomic<std::int64_t>> retry_at( n );
    for( auto &r : retry_at )
    {
        r.store( 0, std::memory_order_relaxed );
    }
    /** names resolved once per exe(), not per dispatch **/
    std::vector<std::string> names;
    names.reserve( n );
    for( const kernel *k : kernels )
    {
        names.push_back( k->name() );
    }
    std::atomic<std::size_t> done_count{ 0 };
    detail::exec_context ctx;
    ctx.kernels = &kernels;
    ctx.sup     = sup_;
    if( sup_ != nullptr )
    {
        sup_->set_canceller( [ &ctx ]( const std::string &reason ) {
            ctx.fail_named( "<watchdog>", reason );
        } );
    }

    /** run() calls per dispatch while the kernel stays ready: long enough
     *  to amortize the sweep, short enough that one hot kernel cannot
     *  starve its consumers of a worker for long. A constant, not an
     *  option: ready() (kernel.hpp) guarantees no run() in it blocks. **/
    constexpr std::size_t quantum = 64;
    const auto worker_count = std::max<std::size_t>(
        1, opts.pool_threads != 0 ? opts.pool_threads
                                  : std::thread::hardware_concurrency() );

    auto worker = [ & ]() {
        if( telemetry::tracing() )
        {
            telemetry::name_thread( "pool_worker" );
        }
        detail::backoff idle_backoff;
        while( done_count.load( std::memory_order_acquire ) < n )
        {
            bool progressed = false;
            for( std::size_t i = 0; i < n; ++i )
            {
                /** 0 = never failed: skip the clock read (unsupervised
                 *  runs never arm retry_at) **/
                const auto retry = retry_at[ i ].load(
                    std::memory_order_acquire );
                if( retry != 0 && retry > detail::now_ns() )
                {
                    continue; /** backing off before a restart **/
                }
                int expect = idle;
                if( !state[ i ].compare_exchange_strong(
                        expect, running, std::memory_order_acq_rel ) )
                {
                    continue;
                }
                kernel *k = kernels[ i ];
                bool finished = false;
                if( ( k->bus() != nullptr &&
                      k->bus()->termination_requested() ) ||
                    ctx.cancelled.load( std::memory_order_acquire ) )
                {
                    finished = true;
                }
                else if( k->ready() )
                {
                    try
                    {
                        runtime::inject::maybe_throw( "kernel.run",
                                                      names[ i ] );
                        /** one dispatch keeps the kernel running while
                         *  ready() holds, up to the quantum: the scan,
                         *  the state CAS and the telemetry clock pair are
                         *  paid once per quantum, and the kernel's stream
                         *  segment stays cache-hot **/
                        auto *const probe = k->probe();
                        const auto t0 = probe != nullptr
                                            ? detail::now_ns()
                                            : std::int64_t{ 0 };
                        std::size_t executed = 0;
                        do
                        {
                            ++executed;
                            if( k->run() == raft::stop )
                            {
                                finished = true;
                                break;
                            }
                        } while( executed < quantum && k->ready() );
                        if( probe != nullptr )
                        {
                            /** quantum-granular accounting: one clock pair
                             *  per dispatch, runs counted exactly **/
                            const auto t1 = detail::now_ns();
                            const auto dt =
                                static_cast<std::uint64_t>( t1 - t0 );
                            probe->busy_ns->add( dt );
                            probe->runs->add( executed );
                            probe->run_hist->observe( dt / executed );
                            if( telemetry::tracing() )
                            {
                                /** one span per dispatch — the pool's
                                 *  scheduling quantum, not per run() **/
                                telemetry::span( probe->trace_name,
                                                 telemetry::cat::kernel,
                                                 t0, t1 );
                            }
                        }
                    }
                    catch( const closed_port_exception & )
                    {
                        finished = true;
                    }
                    catch( const stream_aborted_exception &e )
                    {
                        if( !ctx.cancelled.load(
                                std::memory_order_acquire ) )
                        {
                            ctx.fail( *k, e.what() );
                        }
                        finished = true;
                    }
                    catch( const std::exception &e )
                    {
                        finished = !pool_retry( *k, ctx, e.what(),
                                                retry_at[ i ] );
                    }
                    catch( ... )
                    {
                        finished = !pool_retry( *k, ctx,
                                                "unknown exception",
                                                retry_at[ i ] );
                    }
                    progressed = true;
                }
                if( finished )
                {
                    detail::close_kernel_streams( *k );
                    state[ i ].store( done, std::memory_order_release );
                    done_count.fetch_add( 1, std::memory_order_acq_rel );
                }
                else
                {
                    state[ i ].store( idle, std::memory_order_release );
                }
            }
            if( progressed )
            {
                idle_backoff.reset();
            }
            else
            {
                idle_backoff.pause();
            }
        }
    };

    std::vector<std::thread> workers;
    for( std::size_t w = 0; w < worker_count; ++w )
    {
        workers.emplace_back( worker );
    }
    for( auto &t : workers )
    {
        t.join();
    }
    if( sup_ != nullptr )
    {
        sup_->clear_canceller();
    }
    ctx.throw_if_failed();
}

/**
 * Pool-side failure handling: consult the supervisor; a granted restart
 * arms the kernel's retry-eligibility time (no worker sleeps) and invokes
 * on_restart() here, before the kernel goes back to idle. Returns true
 * when the kernel will be retried.
 */
bool pool_scheduler::pool_retry( kernel &k, detail::exec_context &ctx,
                                 const std::string &what,
                                 std::atomic<std::int64_t> &retry_at )
{
    if( ctx.sup != nullptr &&
        !ctx.cancelled.load( std::memory_order_acquire ) )
    {
        const auto v = ctx.sup->on_failure( k, what );
        if( v.restart )
        {
            k.on_restart();
            retry_at.store( detail::now_ns() + v.backoff.count(),
                            std::memory_order_release );
            return true;
        }
    }
    ctx.fail( k, what );
    return false;
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
