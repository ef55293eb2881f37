/**
 * Cooperative pool scheduler: one dispatch keeps a ready kernel running
 * for a fixed quantum of run() calls, which is only safe while every
 * kernel's ready() means "one run() will not block". These tests pin both
 * halves: the quantum is visible in the order of run() calls, and a merge
 * whose output fills cannot hold the only worker. The pool_fusion suite
 * checks that a reduce adapter runs inside its consumer's claim.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include <core/kernels/functional.hpp>
#include <raft.hpp>

namespace {

using i64 = std::int64_t;

/** A map and the sink's storage, shared with the thread running exe(). */
struct graph_run
{
    raft::map m;
    std::vector<i64> out;
};

/**
 * Runs g->m.exe( o ) on its own thread and waits up to `limit`. Returns
 * false on timeout: the run is then left behind on a detached thread
 * (which keeps `g` alive) so the test fails instead of hanging the suite.
 * An exception from exe() is rethrown here.
 */
bool exe_within( const std::shared_ptr<graph_run> &g,
                 const raft::run_options &o,
                 const std::chrono::seconds limit )
{
    auto done   = std::make_shared<std::promise<void>>();
    auto result = done->get_future();
    std::thread runner( [ g, o, done ]() {
        try
        {
            g->m.exe( o );
            done->set_value();
        }
        catch( ... )
        {
            done->set_exception( std::current_exception() );
        }
    } );
    if( result.wait_for( limit ) != std::future_status::ready )
    {
        runner.detach();
        return false;
    }
    runner.join();
    result.get();
    return true;
}

/** Clonable a·v + b: a stage the runtime replicates behind split and
 *  reduce adapters on raft::out links. */
class affine final : public raft::kernel
{
public:
    affine( const i64 a, const i64 b ) : a_( a ), b_( b )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v = input[ "0" ].pop_s<i64>();
        output[ "0" ].push<i64>( a_ * *v + b_ );
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override { return new affine( a_, b_ ); }

private:
    const i64 a_;
    const i64 b_;
};

raft::generate<i64> *series( const std::size_t n )
{
    return raft::kernel::make<raft::generate<i64>>(
        n, []( std::size_t i ) { return i64( i ); } );
}

/** K with every run() appended to a shared log under a fixed id. The pool
 *  runs one kernel at a time per worker, so with one worker the log needs
 *  no lock. */
template <class K> class logged final : public K
{
public:
    template <class... Args>
    logged( std::vector<int> &log, const int id, Args &&...args )
        : K( std::forward<Args>( args )... ), log_( log ), id_( id )
    {
    }

    raft::kstatus run() override
    {
        log_.push_back( id_ );
        return K::run();
    }

private:
    std::vector<int> &log_;
    int id_;
};

} /** end anonymous namespace **/

/** Two sources into a merge whose output fills: with one worker, a merge
 *  that is dispatched while its output is full blocks in push, and the
 *  sink that would drain it never gets the worker. */
TEST( pool_scheduler, merge_with_full_output_does_not_hold_the_only_worker )
{
    const std::size_t per_source = 5000;
    auto g = std::make_shared<graph_run>();
    auto *mg = raft::kernel::make<raft::merge<i64>>( 2 );
    for( const char *lane : { "0", "1" } )
    {
        g->m.link( raft::kernel::make<raft::generate<i64>>(
                       per_source, []( std::size_t i ) { return i64( i ); } ),
                   mg, lane );
    }
    g->m.link( mg, raft::kernel::make<raft::write_each<i64>>(
                       std::back_inserter( g->out ) ) );
    raft::run_options o;
    o.scheduler      = raft::scheduler_kind::pool;
    o.pool_threads   = 1;
    o.dynamic_resize = false;
    ASSERT_TRUE( exe_within( g, o, std::chrono::seconds( 5 ) ) )
        << "exe() did not return within 5 s";
    ASSERT_EQ( g->out.size(), 2 * per_source );
    /** each source's 0..n-1 arrives once: the sum is twice the series **/
    const auto sum = std::accumulate( g->out.begin(), g->out.end(), i64{ 0 } );
    EXPECT_EQ( sum, i64( per_source * ( per_source - 1 ) ) );
}

/** One worker, a three-kernel chain: a dispatch keeps the kernel running
 *  while it stays ready, so the running kernel changes about three times
 *  per quantum, not once per element. */
TEST( pool_scheduler, quantum_keeps_a_ready_kernel_running )
{
    const std::size_t n = 8192;
    std::vector<int> log;
    log.reserve( 8 * n );
    std::vector<i64> out;
    raft::map m;
    auto p = m.link(
        raft::kernel::make<logged<raft::generate<i64>>>(
            log, 0, n, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<logged<raft::lambdak<i64>>>(
            log, 1, 1, 1, []( raft::Port &in, raft::Port &o ) {
                auto v = in[ "0" ].pop_s<i64>();
                o[ "0" ].push<i64>( *v * 2 );
            } ) );
    m.link( &( p.dst ), raft::kernel::make<logged<raft::write_each<i64>>>(
                            log, 2, std::back_inserter( out ) ) );
    raft::run_options o;
    o.scheduler    = raft::scheduler_kind::pool;
    o.pool_threads = 1;
    m.exe( o );

    ASSERT_EQ( out.size(), n );
    for( std::size_t i = 0; i < n; i += 97 )
    {
        EXPECT_EQ( out[ i ], i64( 2 * i ) );
    }
    std::size_t switches = 0;
    for( std::size_t i = 1; i < log.size(); ++i )
    {
        switches += log[ i ] != log[ i - 1 ] ? 1 : 0;
    }
    EXPECT_LT( switches, n / 8 ) << log.size() << " run() calls";
}

/** Replicas behind split/reduce on one worker with fixed-size streams:
 *  the adapters' ready() must not report ready when a strict deal waits
 *  on a full lane or when reduce's output is full, or the quantum spins
 *  the worker on run() calls that cannot move anything. */
TEST( pool_scheduler, one_worker_drives_split_and_reduce )
{
    const std::size_t n = 20000;
    for( const auto strategy : { raft::split_kind::round_robin,
                                 raft::split_kind::least_utilized } )
    {
        auto g = std::make_shared<graph_run>();
        auto p = g->m.link<raft::out>( series( n ),
                                       raft::kernel::make<affine>( 2, 0 ) );
        g->m.link<raft::out>( &( p.dst ),
                              raft::kernel::make<raft::write_each<i64>>(
                                  std::back_inserter( g->out ) ) );
        raft::run_options o;
        o.scheduler         = raft::scheduler_kind::pool;
        o.pool_threads      = 1;
        o.dynamic_resize    = false;
        o.replication_width = 3;
        o.split_strategy    = strategy;
        ASSERT_TRUE( exe_within( g, o, std::chrono::seconds( 5 ) ) )
            << "exe() did not return within 5 s";
        ASSERT_EQ( g->out.size(), n );
        std::sort( g->out.begin(), g->out.end() );
        for( std::size_t i = 0; i < n; ++i )
        {
            ASSERT_EQ( g->out[ i ], i64( 2 * i ) );
        }
    }
}

/* ------------------------------------------------------------------ */
/* idle workers park                                                    */
/* ------------------------------------------------------------------ */

namespace {

using namespace std::chrono_literals;
using steady = std::chrono::steady_clock;
using gap_fn = std::function<std::chrono::microseconds( std::size_t )>;

gap_fn every( const std::chrono::microseconds gap )
{
    return [ gap ]( std::size_t ) { return gap; };
}

/** Source of 0..n-1 that waits gap( i ) before each element. run()
 *  sleeping holds one worker; the other workers have nothing to do. */
class paced_source final : public raft::kernel
{
public:
    paced_source( const std::size_t n, gap_fn gap )
        : n_( n ), gap_( std::move( gap ) )
    {
        output.addPort<i64>( "0" );
    }

    raft::kstatus run() override
    {
        const auto g = gap_( i_ );
        if( g.count() > 0 )
        {
            std::this_thread::sleep_for( g );
        }
        output[ "0" ].push<i64>( i64( i_ ) );
        return ++i_ == n_ ? raft::stop : raft::proceed;
    }

private:
    const std::size_t n_;
    gap_fn gap_;
    std::size_t i_{ 0 };
};

double cpu_seconds()
{
    rusage u{};
    getrusage( RUSAGE_SELF, &u );
    return double( u.ru_utime.tv_sec + u.ru_stime.tv_sec ) +
           double( u.ru_utime.tv_usec + u.ru_stime.tv_usec ) * 1e-6;
}

raft::run_options pool_of( const std::size_t workers )
{
    raft::run_options o;
    o.scheduler    = raft::scheduler_kind::pool;
    o.pool_threads = workers;
    return o;
}

} /** end anonymous namespace **/

/** Three workers and a source that sleeps 2 ms per element: the two
 *  workers with nothing to run park instead of polling, so the process
 *  burns well under half a core. An upper bound: load cannot break it. */
TEST( pool_scheduler, idle_workers_sleep )
{
    const std::size_t n = 50;
    std::vector<i64> out;
    raft::map m;
    m.link( raft::kernel::make<paced_source>( n, every( 2ms ) ),
            raft::kernel::make<raft::write_each<i64>>(
                std::back_inserter( out ) ) );
    const auto cpu0  = cpu_seconds();
    const auto wall0 = steady::now();
    m.exe( pool_of( 3 ) );
    const auto wall =
        std::chrono::duration<double>( steady::now() - wall0 ).count();
    const auto cpu = cpu_seconds() - cpu0;
    ASSERT_EQ( out.size(), n );
    EXPECT_LT( cpu, 0.5 * wall ) << "cpu " << cpu << " s, wall " << wall
                                 << " s";
}

/** Three workers park while a gated trigger waits on a flag. Once it is
 *  raised, the trigger feeds three independent chains at once, and each
 *  chain's stage sleeps 20 ms in run(). Parked workers are signalled one
 *  at a time, but all three must still run the stages at once: done
 *  within 50 ms of the release, where one after another takes 60 ms. */
TEST( pool_scheduler, chains_released_at_once_run_on_every_worker )
{
    static const char *const lanes[] = { "0", "1", "2" };
    class trigger final : public raft::kernel
    {
    public:
        explicit trigger( const std::atomic<bool> &go ) : go_( go )
        {
            for( const auto *l : lanes )
            {
                output.addPort<i64>( l );
            }
        }
        bool ready() const override
        {
            return go_.load( std::memory_order_acquire ) &&
                   raft::kernel::ready();
        }
        raft::kstatus run() override
        {
            for( const auto *l : lanes )
            {
                output[ l ].push<i64>( 1 );
            }
            return raft::stop;
        }

    private:
        const std::atomic<bool> &go_;
    };
    class join final : public raft::kernel
    {
    public:
        join()
        {
            for( const auto *l : lanes )
            {
                input.addPort<i64>( l );
            }
        }
        raft::kstatus run() override
        {
            for( const auto *l : lanes )
            {
                got += *input[ l ].pop_s<i64>();
            }
            return raft::stop;
        }
        i64 got{ 0 };
    };
    std::atomic<bool> go{ false };
    raft::map m;
    auto *src  = raft::kernel::make<trigger>( go );
    auto *sink = raft::kernel::make<join>();
    for( const auto *l : lanes )
    {
        auto *stage = raft::kernel::make<raft::lambdak<i64>>(
            1, 1, []( raft::Port &in, raft::Port &out ) {
                const auto v = *in[ "0" ].pop_s<i64>();
                std::this_thread::sleep_for( 20ms );
                out[ "0" ].push<i64>( v );
            } );
        m.link( src, l, stage, "0" );
        m.link( stage, "0", sink, l );
    }
    auto run = std::async( std::launch::async,
                           [ & ]() { m.exe( pool_of( 3 ) ); } );
    std::this_thread::sleep_for( 20ms ); /** every worker parks **/
    const auto t0 = steady::now();
    go.store( true, std::memory_order_release );
    run.get();
    const auto took = steady::now() - t0;
    EXPECT_EQ( sink->got, 3 );
    EXPECT_LT( took, 50ms )
        << std::chrono::duration<double, std::milli>( took ).count()
        << " ms";
}

/** A kernel throws while its peers are parked: cancel() wakes them, and
 *  exe() throws graph_error within 100 ms of the throw. */
TEST( pool_scheduler, cancellation_reaches_parked_workers )
{
    class late_thrower final : public raft::kernel
    {
    public:
        explicit late_thrower( std::atomic<steady::rep> &thrown )
            : thrown_( thrown )
        {
            input.addPort<i64>( "0" );
        }
        raft::kstatus run() override
        {
            if( *input[ "0" ].pop_s<i64>() == i64( 9 ) )
            {
                /** the workers park while this one sleeps **/
                std::this_thread::sleep_for( 30ms );
                thrown_ = steady::now().time_since_epoch().count();
                throw std::runtime_error( "late failure" );
            }
            return raft::proceed;
        }

    private:
        std::atomic<steady::rep> &thrown_;
    };
    std::atomic<steady::rep> thrown{ 0 };
    raft::map m;
    m.link( raft::kernel::make<paced_source>( 20, every( 0us ) ),
            raft::kernel::make<late_thrower>( thrown ) );
    EXPECT_THROW( m.exe( pool_of( 3 ) ), raft::graph_error );
    const auto since = std::chrono::nanoseconds(
        steady::now().time_since_epoch().count() - thrown.load() );
    ASSERT_NE( thrown.load(), 0 );
    EXPECT_LT( since, 100ms );
}

/** A supervised restart with a 20 ms backoff while the peers are parked:
 *  the run completes, and the retried run() comes no earlier than the
 *  deadline. */
TEST( pool_scheduler, supervised_restart_while_peers_park )
{
    class fail_once final : public raft::kernel
    {
    public:
        fail_once()
        {
            input.addPort<i64>( "0" );
            output.addPort<i64>( "0" );
        }
        raft::kstatus run() override
        {
            if( failed_at != steady::time_point{} &&
                retried_at == steady::time_point{} )
            {
                retried_at = steady::now();
            }
            /** fail once before touching a port: the retry consumes the
             *  element this call would have **/
            if( ++calls_ == 101 )
            {
                failed_at = steady::now();
                throw std::runtime_error( "transient" );
            }
            auto v = input[ "0" ].pop_s<i64>();
            output[ "0" ].push<i64>( *v );
            return raft::proceed;
        }
        steady::time_point failed_at{};
        steady::time_point retried_at{};

    private:
        std::size_t calls_{ 0 };
    };
    const std::size_t n = 500;
    auto g              = std::make_shared<graph_run>();
    auto *k             = raft::kernel::make<fail_once>();
    raft::restart_policy p;
    p.max_restarts    = 1;
    p.initial_backoff = 20ms;
    k->set_restart_policy( p );
    auto kp = g->m.link( raft::kernel::make<paced_source>( n, every( 0us ) ),
                         k );
    g->m.link( &( kp.dst ), raft::kernel::make<raft::write_each<i64>>(
                                std::back_inserter( g->out ) ) );
    auto o                = pool_of( 3 );
    o.supervision.enabled = true;
    ASSERT_TRUE( exe_within( g, o, 10s ) )
        << "exe() did not return within 10 s";
    ASSERT_EQ( g->out.size(), n );
    for( std::size_t i = 0; i < n; ++i )
    {
        ASSERT_EQ( g->out[ i ], i64( i ) );
    }
    ASSERT_NE( k->retried_at, steady::time_point{} );
    EXPECT_GE( k->retried_at - k->failed_at, p.initial_backoff );
}

/** Random gaps between elements, some much longer than the spin phase
 *  before a worker parks: every element arrives once and in order, with
 *  one worker and with three. */
TEST( pool_scheduler, bursty_source_delivers_in_order )
{
    const std::size_t n = 1000;
    std::vector<std::chrono::microseconds> gaps( n );
    std::mt19937 rng( 13 );
    std::uniform_int_distribution<int> pick( 0, 99 );
    for( auto &g : gaps )
    {
        const int r = pick( rng );
        g           = r < 50 ? 0us : r < 80 ? 20us : r < 97 ? 200us : 2000us;
    }
    for( const std::size_t workers : { 1u, 3u } )
    {
        auto g  = std::make_shared<graph_run>();
        auto kp = g->m.link(
            raft::kernel::make<paced_source>(
                n, [ &gaps ]( std::size_t i ) { return gaps[ i ]; } ),
            raft::kernel::make<raft::lambdak<i64>>(
                1, 1, []( raft::Port &in, raft::Port &out ) {
                    auto v = in[ "0" ].pop_s<i64>();
                    out[ "0" ].push<i64>( *v * 3 );
                } ) );
        g->m.link( &( kp.dst ), raft::kernel::make<raft::write_each<i64>>(
                                    std::back_inserter( g->out ) ) );
        ASSERT_TRUE( exe_within( g, pool_of( workers ), 10s ) )
            << workers << " workers: exe() did not return within 10 s";
        ASSERT_EQ( g->out.size(), n ) << workers << " workers";
        for( std::size_t i = 0; i < n; ++i )
        {
            ASSERT_EQ( g->out[ i ], i64( 3 * i ) ) << workers << " workers";
        }
    }
}

/* ------------------------------------------------------------------ */
/* reduce adapters fused into their consumer's slot                     */
/* ------------------------------------------------------------------ */

namespace {

/** Pool of `workers`, every replicated stage two wide. */
raft::run_options fused_pool( const std::size_t workers )
{
    auto o              = pool_of( workers );
    o.replication_width = 2;
    return o;
}

/** Counts the kernels inside run() (or merge()) at once among those that
 *  share it, and keeps the largest count seen. */
struct overlap_probe
{
    std::atomic<int> inside{ 0 };
    std::atomic<int> most{ 0 };

    template <class F> auto enter( F &&body )
    {
        const int now = inside.fetch_add( 1 ) + 1;
        int seen      = most.load();
        while( now > seen && !most.compare_exchange_weak( seen, now ) )
        {
        }
        struct leave
        {
            std::atomic<int> &n;
            ~leave() { n.fetch_sub( 1 ); }
        } guard{ inside };
        return body();
    }
};

/** The default reduce adapter, with every merge() inside the probe. */
class probed_reduce final : public raft::reduce_kernel
{
public:
    probed_reduce( overlap_probe &probe, const std::size_t width )
        : raft::reduce_kernel( raft::detail::type_meta::of<i64>(), width ),
          probe_( probe )
    {
    }

protected:
    std::size_t merge( std::vector<raft::fifo_base *> &ins,
                       raft::fifo_base &out ) override
    {
        return probe_.enter(
            [ & ] { return raft::reduce_kernel::merge( ins, out ); } );
    }

private:
    overlap_probe &probe_;
};

/** Adds the element of each of its two inputs, inside the probe. */
class probed_sum final : public raft::kernel
{
public:
    explicit probed_sum( overlap_probe &probe ) : probe_( probe )
    {
        input.addPort<i64>( "a", "b" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        probe_.enter( [ & ] {
            auto a = input[ "a" ].pop_s<i64>();
            auto b = input[ "b" ].pop_s<i64>();
            output[ "0" ].push<i64>( *a + *b );
        } );
        return raft::proceed;
    }

private:
    overlap_probe &probe_;
};

} /** end anonymous namespace **/

/** One worker: a reduce runs only inside its consumer's claim, so if that
 *  claim did not dispatch it, nothing would reach the sink. */
TEST( pool_fusion, one_worker_delivers_every_element )
{
    const std::size_t n = 100'000;
    auto g              = std::make_shared<graph_run>();
    auto p = g->m.link<raft::out>( series( n ),
                                   raft::kernel::make<affine>( 1, 0 ) );
    g->m.link<raft::out>( &( p.dst ),
                          raft::kernel::make<raft::write_each<i64>>(
                              std::back_inserter( g->out ) ) );
    auto o           = fused_pool( 1 );
    o.dynamic_resize = false;
    ASSERT_TRUE( exe_within( g, o, 5s ) ) << "exe() did not return within 5 s";
    ASSERT_EQ( g->out.size(), n );
    std::sort( g->out.begin(), g->out.end() );
    for( std::size_t i = 0; i < n; ++i )
    {
        ASSERT_EQ( g->out[ i ], i64( i ) );
    }
}

/** The consumer stops after 1,000 elements of a series that would take
 *  far longer than the bound: the reduce fused into its slot still runs
 *  to its end, so the replicas, the split and the source end too and
 *  exe() returns. */
TEST( pool_fusion, consumer_that_stops_ends_replicas_and_reduce )
{
    class take final : public raft::kernel
    {
    public:
        explicit take( std::vector<i64> &out ) : out_( out )
        {
            input.addPort<i64>( "0" );
        }
        raft::kstatus run() override
        {
            out_.push_back( *input[ "0" ].pop_s<i64>() );
            return out_.size() == 1000 ? raft::stop : raft::proceed;
        }

    private:
        std::vector<i64> &out_;
    };
    for( const std::size_t workers : { 1u, 3u } )
    {
        auto g = std::make_shared<graph_run>();
        auto p = g->m.link<raft::out>( series( std::size_t( 1 ) << 40 ),
                                       raft::kernel::make<affine>( 1, 0 ) );
        g->m.link<raft::out>( &( p.dst ),
                              raft::kernel::make<take>( g->out ) );
        ASSERT_TRUE( exe_within( g, fused_pool( workers ), 5s ) )
            << workers << " workers: exe() did not return within 5 s";
        EXPECT_EQ( g->out.size(), 1000u ) << workers << " workers";
    }
}

/** Two replicated stages in a row: the first reduce feeds the second
 *  split and is fused into its slot. Every element arrives once. */
TEST( pool_fusion, chained_replicated_stages_keep_the_checksum )
{
    const std::size_t n = 100'000;
    auto g              = std::make_shared<graph_run>();
    auto p = g->m.link<raft::out>( series( n ),
                                   raft::kernel::make<affine>( 2, 0 ) );
    auto q = g->m.link<raft::out>( &( p.dst ),
                                   raft::kernel::make<affine>( 1, 1 ) );
    g->m.link<raft::out>( &( q.dst ),
                          raft::kernel::make<raft::write_each<i64>>(
                              std::back_inserter( g->out ) ) );
    ASSERT_TRUE( exe_within( g, fused_pool( 3 ), 5s ) )
        << "exe() did not return within 5 s";
    ASSERT_EQ( g->out.size(), n );
    /** Σ (2i + 1) over i < n is n² **/
    EXPECT_EQ( std::accumulate( g->out.begin(), g->out.end(), i64{ 0 } ),
               i64( n * n ) );
}

/** A kernel fed by two reduces: both are fused into its slot, so neither
 *  reduce's merge() overlaps the other's or the kernel's run(), on three
 *  workers, and the sums arrive exact. */
TEST( pool_fusion, kernel_fed_by_two_reduces_runs_both_in_its_slot )
{
    const std::size_t n = 50'000;
    overlap_probe probe;
    auto g    = std::make_shared<graph_run>();
    auto *sum = raft::kernel::make<probed_sum>( probe );
    for( const char *side : { "a", "b" } )
    {
        auto *rd = raft::kernel::make<probed_reduce>( probe, 2 );
        for( const char *lane : { "0", "1" } )
        {
            g->m.link( series( n ), rd, lane );
        }
        g->m.link( rd, "0", sum, side );
    }
    g->m.link( sum, raft::kernel::make<raft::write_each<i64>>(
                        std::back_inserter( g->out ) ) );
    ASSERT_TRUE( exe_within( g, pool_of( 3 ), 5s ) )
        << "exe() did not return within 5 s";
    ASSERT_EQ( g->out.size(), 2 * n );
    /** each side carries two copies of 0..n-1 **/
    EXPECT_EQ( std::accumulate( g->out.begin(), g->out.end(), i64{ 0 } ),
               i64( 2 * n * ( n - 1 ) ) );
    EXPECT_EQ( probe.most.load(), 1 );
}
