/**
 * Fault-tolerant runtime: graph-wide cancellation (a mid-pipeline failure
 * must unblock every peer and surface as graph_error on both scheduler
 * kinds, including under elastic replication), failure aggregation,
 * supervised in-place restarts with backoff, the zero-progress watchdog,
 * stream abort semantics at the ring-buffer level, and the deterministic
 * raft::runtime::inject harness.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include <core/ringbuffer.hpp>
#include <raft.hpp>

namespace {

using i64 = std::int64_t;
using namespace std::chrono_literals;

raft::generate<i64> *seq_source( const std::size_t n )
{
    return raft::kernel::make<raft::generate<i64>>(
        n, []( std::size_t i ) { return static_cast<i64>( i ); } );
}

/** Relay that throws (before touching its queues) once `after` elements
 *  have passed through. after == SIZE_MAX never throws. */
class thrower : public raft::kernel
{
public:
    explicit thrower( const std::size_t after ) : kernel(), after_( after )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
        set_name( "thrower" );
    }

    raft::kstatus run() override
    {
        if( seen_ >= after_ )
        {
            throw std::runtime_error( "thrower: simulated failure" );
        }
        i64 v = 0;
        input[ "0" ].pop( v );
        ++seen_;
        output[ "0" ].push( v );
        return raft::proceed;
    }

private:
    std::size_t after_;
    std::size_t seen_{ 0 };
};

/** Relay whose first `failures` run() invocations throw before any queue
 *  operation — a clean transient failure the supervisor can restart. */
class flaky_relay : public raft::kernel
{
public:
    explicit flaky_relay( const std::size_t failures )
        : kernel(), fails_left_( failures )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
        set_name( "flaky" );
    }

    raft::kstatus run() override
    {
        if( fails_left_ > 0 )
        {
            --fails_left_;
            throw std::runtime_error( "flaky: transient failure" );
        }
        i64 v = 0;
        input[ "0" ].pop( v );
        output[ "0" ].push( v );
        return raft::proceed;
    }

    void on_restart() override { ++restarts_seen_; }
    std::size_t restarts_seen() const noexcept { return restarts_seen_; }

private:
    std::size_t fails_left_;
    std::size_t restarts_seen_{ 0 };
};

/** Source that never produces anything: a stalled graph for the watchdog.
 *  (Sleeps per run so the spin is polite; returns proceed forever until
 *  the runtime cancels it.) */
class stalled_source : public raft::kernel
{
public:
    stalled_source() : kernel()
    {
        output.addPort<i64>( "0" );
        set_name( "stalled" );
    }

    raft::kstatus run() override
    {
        std::this_thread::sleep_for( 1ms );
        return raft::proceed;
    }
};

/** Rendezvous thrower: waits until `peers` kernels reached their failure
 *  point, then every one of them throws — deterministic multi-failure. */
class latch_thrower : public raft::kernel
{
public:
    latch_thrower( std::atomic<int> &latch, const int peers,
                   const std::string &name )
        : kernel(), latch_( latch ), peers_( peers )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
        set_name( name );
    }

    raft::kstatus run() override
    {
        i64 v = 0;
        input[ "0" ].pop( v );
        latch_.fetch_add( 1 );
        while( latch_.load() < peers_ )
        {
            std::this_thread::yield();
        }
        throw std::runtime_error( "latch_thrower: simultaneous failure" );
    }

private:
    std::atomic<int> &latch_;
    int peers_;
};

void run_unblock_case( const raft::scheduler_kind kind )
{
    std::vector<i64> out;
    raft::map m;
    /** enough elements that the source must block on a full queue while
     *  the thrower is already dead — cancellation has to wake it **/
    auto kp = m.link( seq_source( 1 << 20 ),
                      raft::kernel::make<thrower>( 100 ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.scheduler = kind;
    try
    {
        m.exe( o );
        FAIL() << "exe() must throw after a kernel failure";
    }
    catch( const raft::graph_error &e )
    {
        ASSERT_EQ( e.failures().size(), 1u );
        EXPECT_NE( e.failures()[ 0 ].kernel_name.find( "thrower" ),
                   std::string::npos );
        EXPECT_NE( e.failures()[ 0 ].message.find( "simulated" ),
                   std::string::npos );
    }
}

} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* ring-buffer abort semantics                                          */
/* ------------------------------------------------------------------ */

TEST( fault, abort_wakes_blocked_pop )
{
    raft::ring_buffer<int> q( 4 );
    std::atomic<bool> aborted{ false };
    std::thread reader( [ & ]() {
        int v = 0;
        try
        {
            q.pop( v ); /** empty queue: blocks until the abort **/
        }
        catch( const raft::stream_aborted_exception & )
        {
            aborted.store( true );
        }
    } );
    std::this_thread::sleep_for( 20ms );
    q.abort();
    reader.join();
    EXPECT_TRUE( aborted.load() );
    EXPECT_TRUE( q.aborted() );
}

TEST( fault, abort_wakes_blocked_push )
{
    raft::ring_buffer<int> q( 2 );
    q.push( 1 );
    q.push( 2 ); /** full **/
    std::atomic<bool> aborted{ false };
    std::thread writer( [ & ]() {
        try
        {
            q.push( 3 );
        }
        catch( const raft::stream_aborted_exception & )
        {
            aborted.store( true );
        }
    } );
    std::this_thread::sleep_for( 20ms );
    q.abort();
    writer.join();
    EXPECT_TRUE( aborted.load() );
}

TEST( fault, abort_beats_end_of_stream )
{
    /** a stream both aborted and closed must report the abort: poison is
     *  a failure, close is normal completion **/
    raft::ring_buffer<int> q( 4 );
    q.abort();
    q.close_write();
    int v = 0;
    EXPECT_THROW( q.pop( v ), raft::stream_aborted_exception );
}

/* ------------------------------------------------------------------ */
/* graph-wide cancellation                                              */
/* ------------------------------------------------------------------ */

TEST( fault, failing_kernel_unblocks_pipeline_thread_scheduler )
{
    run_unblock_case( raft::scheduler_kind::thread_per_kernel );
}

TEST( fault, failing_kernel_unblocks_pipeline_pool_scheduler )
{
    run_unblock_case( raft::scheduler_kind::pool );
}

TEST( fault, graph_error_is_a_runtime_error )
{
    std::vector<i64> out;
    raft::map m;
    auto kp = m.link( seq_source( 1000 ),
                      raft::kernel::make<thrower>( 0 ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    EXPECT_THROW( m.exe(), std::runtime_error );
}

TEST( fault, every_failure_is_aggregated )
{
    std::atomic<int> latch{ 0 };
    std::vector<i64> out;
    raft::map m;
    auto a = m.link( seq_source( 1000 ),
                     raft::kernel::make<latch_thrower>( latch, 2,
                                                        "bad_a" ) );
    auto s = m.link( &a.dst,
                     raft::kernel::make<raft::sum<i64, i64, i64>>(),
                     "input_a" );
    auto b = m.link( seq_source( 1000 ),
                     raft::kernel::make<latch_thrower>( latch, 2,
                                                        "bad_b" ) );
    m.link( &b.dst, &s.dst, "input_b" );
    m.link( &s.dst, raft::kernel::make<raft::write_each<i64>>(
                        std::back_inserter( out ) ) );
    try
    {
        m.exe();
        FAIL() << "exe() must throw after kernel failures";
    }
    catch( const raft::graph_error &e )
    {
        /** BOTH simultaneous failures must be reported, not first-wins **/
        ASSERT_EQ( e.failures().size(), 2u );
        bool saw_a = false, saw_b = false;
        for( const auto &f : e.failures() )
        {
            saw_a = saw_a || f.kernel_name.find( "bad_a" ) !=
                                 std::string::npos;
            saw_b = saw_b || f.kernel_name.find( "bad_b" ) !=
                                 std::string::npos;
        }
        EXPECT_TRUE( saw_a );
        EXPECT_TRUE( saw_b );
        /** the what() text names every failed kernel **/
        EXPECT_NE( std::string( e.what() ).find( "bad_a" ),
                   std::string::npos );
        EXPECT_NE( std::string( e.what() ).find( "bad_b" ),
                   std::string::npos );
    }
}

TEST( fault, cancellation_with_elastic_replicas )
{
    /** a replica of a clonable kernel fails mid-run under the elastic
     *  controller: the whole graph (split/reduce adapters, sibling lanes,
     *  source, sink) must still shut down and report **/
    std::vector<i64> out;
    raft::map m;
    auto kp = m.link<raft::out>(
        seq_source( 200000 ),
        raft::kernel::make<raft::transform<i64>>( []( const i64 &v ) {
            if( v == 100000 )
            {
                throw std::runtime_error( "replica poison pill" );
            }
            return v + 1;
        } ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.elastic.enabled      = true;
    o.elastic.max_replicas = 4;
    EXPECT_THROW( m.exe( o ), raft::graph_error );
}

/* ------------------------------------------------------------------ */
/* supervised execution                                                 */
/* ------------------------------------------------------------------ */

TEST( fault, supervised_restart_recovers_thread_scheduler )
{
    const std::size_t count = 50000;
    std::vector<i64> out;
    raft::runtime::perf_snapshot report;
    raft::map m;
    auto *flaky = raft::kernel::make<flaky_relay>( 3 );
    flaky->set_restart_policy( raft::restart_policy::up_to( 5 ) );
    auto kp = m.link( seq_source( count ), flaky );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled    = true;
    o.stats_out              = &report;
    /** keep the test fast: milliseconds-scale backoff curve **/
    m.exe( o );
    EXPECT_EQ( out.size(), count );
    ASSERT_TRUE( report.supervision );
    const auto &rep = *report.supervision;
    const auto *k = rep.find( "flaky" );
    ASSERT_NE( k, nullptr );
    EXPECT_EQ( k->restarts, 3u );
    EXPECT_EQ( k->failures, 3u );
    EXPECT_FALSE( k->terminal );
    EXPECT_EQ( rep.total_restarts, 3u );
    EXPECT_EQ( rep.terminal_failures, 0u );
    EXPECT_EQ( flaky->restarts_seen(), 3u );
}

TEST( fault, supervised_restart_recovers_pool_scheduler )
{
    const std::size_t count = 50000;
    std::vector<i64> out;
    raft::runtime::perf_snapshot report;
    raft::map m;
    auto *flaky = raft::kernel::make<flaky_relay>( 2 );
    flaky->set_restart_policy( raft::restart_policy::up_to( 4 ) );
    auto kp = m.link( seq_source( count ), flaky );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.scheduler              = raft::scheduler_kind::pool;
    o.supervision.enabled    = true;
    o.stats_out              = &report;
    m.exe( o );
    EXPECT_EQ( out.size(), count );
    ASSERT_TRUE( report.supervision );
    const auto &rep = *report.supervision;
    const auto *k = rep.find( "flaky" );
    ASSERT_NE( k, nullptr );
    EXPECT_EQ( k->restarts, 2u );
    EXPECT_FALSE( k->terminal );
}

TEST( fault, restart_policy_exhaustion_is_terminal )
{
    raft::runtime::perf_snapshot report;
    std::vector<i64> out;
    raft::map m;
    auto *bad = raft::kernel::make<thrower>( 0 ); /** always throws **/
    raft::restart_policy p;
    p.max_restarts    = 2;
    p.initial_backoff = 1ms;
    bad->set_restart_policy( p );
    auto kp = m.link( seq_source( 1000 ), bad );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled    = true;
    o.stats_out              = &report;
    EXPECT_THROW( m.exe( o ), raft::graph_error );
    ASSERT_TRUE( report.supervision );
    const auto &rep = *report.supervision;
    const auto *k = rep.find( "thrower" );
    ASSERT_NE( k, nullptr );
    EXPECT_EQ( k->restarts, 2u );
    EXPECT_EQ( k->failures, 3u ); /** 2 restarted + 1 terminal **/
    EXPECT_TRUE( k->terminal );
    EXPECT_EQ( rep.terminal_failures, 1u );
}

TEST( fault, default_restart_policy_applies_to_unmarked_kernels )
{
    const std::size_t count = 20000;
    std::vector<i64> out;
    raft::map m;
    /** no per-kernel policy: supervision_options::default_restart rules **/
    auto kp = m.link( seq_source( count ),
                      raft::kernel::make<flaky_relay>( 1 ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled         = true;
    o.supervision.default_restart = raft::restart_policy::up_to( 2 );
    m.exe( o );
    EXPECT_EQ( out.size(), count );
}

/* ------------------------------------------------------------------ */
/* watchdog                                                             */
/* ------------------------------------------------------------------ */

TEST( fault, watchdog_aborts_stalled_graph )
{
    raft::runtime::perf_snapshot report;
    std::vector<i64> out;
    raft::map m;
    m.link( raft::kernel::make<stalled_source>(),
            raft::kernel::make<raft::write_each<i64>>(
                std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled           = true;
    o.supervision.watchdog_deadline = 100ms;
    o.stats_out                     = &report;
    try
    {
        m.exe( o );
        FAIL() << "a stalled graph must be aborted by the watchdog";
    }
    catch( const raft::graph_error &e )
    {
        ASSERT_GE( e.failures().size(), 1u );
        EXPECT_NE( e.failures()[ 0 ].kernel_name.find( "watchdog" ),
                   std::string::npos );
    }
    ASSERT_TRUE( report.supervision );
    const auto &rep = *report.supervision;
    EXPECT_GE( rep.watchdog_stalls, 1u );
    /** the stall dump names the starved stream with its counters **/
    EXPECT_NE( rep.last_stall_diagnostics.find( "stalled" ),
               std::string::npos );
    EXPECT_NE( rep.last_stall_diagnostics.find( "occupancy" ),
               std::string::npos );
}

TEST( fault, watchdog_quiet_on_healthy_graph )
{
    const std::size_t count = 100000;
    raft::runtime::perf_snapshot report;
    std::vector<i64> out;
    raft::map m;
    auto kp = m.link( seq_source( count ),
                      raft::kernel::make<thrower>( count + 1 ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    raft::run_options o;
    o.supervision.enabled           = true;
    o.supervision.watchdog_deadline = 10s;
    o.stats_out                     = &report;
    m.exe( o );
    EXPECT_EQ( out.size(), count );
    ASSERT_TRUE( report.supervision );
    const auto &rep = *report.supervision;
    EXPECT_EQ( rep.watchdog_stalls, 0u );
    EXPECT_EQ( rep.total_restarts, 0u );
}

/* ------------------------------------------------------------------ */
/* fault injection                                                      */
/* ------------------------------------------------------------------ */

TEST( fault, inject_throws_at_named_kernel_deterministically )
{
    raft::runtime::inject::enable( 42 );
    raft::runtime::inject::plan p;
    p.site    = "kernel.run";
    p.match   = "thrower";
    p.after   = 50; /** let the pipeline flow, then break it **/
    p.count   = 1;
    p.message = "injected kernel fault";
    raft::runtime::inject::arm( p );

    std::vector<i64> out;
    raft::map m;
    auto kp = m.link( seq_source( 100000 ),
                      raft::kernel::make<thrower>( SIZE_MAX ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    try
    {
        m.exe();
        FAIL() << "armed injection must fail the graph";
    }
    catch( const raft::graph_error &e )
    {
        ASSERT_EQ( e.failures().size(), 1u );
        EXPECT_NE( e.failures()[ 0 ].message.find( "injected" ),
                   std::string::npos );
    }
    EXPECT_EQ( raft::runtime::inject::fired( "kernel.run" ), 1u );
    raft::runtime::inject::disable();
}

TEST( fault, inject_disabled_is_inert )
{
    ASSERT_FALSE( raft::runtime::inject::enabled() );
    const std::size_t count = 10000;
    std::vector<i64> out;
    raft::map m;
    auto kp = m.link( seq_source( count ),
                      raft::kernel::make<thrower>( SIZE_MAX ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    m.exe();
    EXPECT_EQ( out.size(), count );
}

TEST( fault, poisoned_stream_fails_graph )
{
    std::vector<i64> out;
    raft::map m;
    auto kp = m.link(
        seq_source( 1 << 20 ),
        raft::kernel::make<raft::runtime::inject::poison<i64>>( 500 ) );
    m.link( &kp.dst, raft::kernel::make<raft::write_each<i64>>(
                         std::back_inserter( out ) ) );
    try
    {
        m.exe();
        FAIL() << "a poisoned stream must fail the graph";
    }
    catch( const raft::graph_error &e )
    {
        ASSERT_GE( e.failures().size(), 1u );
        EXPECT_NE( e.failures()[ 0 ].message.find( "aborted" ),
                   std::string::npos );
    }
    /** elements before the poison point flowed through untouched **/
    EXPECT_LE( out.size(), 500u );
}
