/**
 * The dynamic queue monitor (§3/§4): the 3δ write-block growth rule, the
 * reader-overflow growth rule, the shrink heuristic, statistics sampling
 * and the on-demand cadence. Tests drive monitor::tick() directly where
 * determinism matters, and run the real thread where timing is the
 * subject.
 */
#include <gtest/gtest.h>

#include <thread>

#include <core/monitor.hpp>
#include <core/ringbuffer.hpp>
#include <runtime/elastic/estimator.hpp>
#include <runtime/supervisor.hpp>

using namespace std::chrono_literals;

namespace {

raft::monitor::stream_info info( const char *src, const char *dst )
{
    return raft::monitor::stream_info{ src, dst, "0", "0", "int" };
}

} /** end anonymous namespace **/

TEST( monitor, reader_overflow_demand_grows_queue )
{
    raft::run_options opts;
    opts.dynamic_resize = true;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    EXPECT_TRUE( q.auto_resize() ); /** registration enabled growth **/

    std::thread reader( [ & ]() {
        auto w = q.peek_range( 32 ); /** > capacity: posts demand **/
        EXPECT_EQ( w[ 0 ], 0 );
    } );
    std::thread writer( [ & ]() {
        for( int i = 0; i < 32; ++i )
        {
            q.push( i );
        }
    } );
    /** drive ticks until the demand is honoured **/
    while( q.capacity() < 32 )
    {
        mon.tick();
        std::this_thread::yield();
    }
    reader.join();
    writer.join();
    EXPECT_GE( q.capacity(), 32u );
    EXPECT_GE( q.resize_count(), 1u );
}

TEST( monitor, overflow_demand_overrides_max_capacity )
{
    raft::run_options opts;
    opts.dynamic_resize     = true;
    opts.max_queue_capacity = 8; /** demand is correctness: wins **/
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    std::thread reader( [ & ]() {
        auto w = q.peek_range( 64 );
        EXPECT_EQ( w[ 63 ], 63 );
    } );
    std::thread writer( [ & ]() {
        for( int i = 0; i < 64; ++i )
        {
            q.push( i );
        }
    } );
    while( q.capacity() < 64 )
    {
        mon.tick();
        std::this_thread::yield();
    }
    reader.join();
    writer.join();
    EXPECT_GE( q.capacity(), 64u );
}

TEST( monitor, write_block_3delta_rule_grows_queue )
{
    raft::run_options opts;
    opts.dynamic_resize = true;
    opts.monitor_delta  = 5ms;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );

    for( int i = 0; i < 4; ++i )
    {
        q.push( i );
    }
    std::thread writer( [ & ]() { q.push( 99 ); } ); /** blocks: full **/
    while( q.write_blocked_since() == 0 )
    {
        std::this_thread::yield();
    }
    /** before 3δ: no resize **/
    mon.tick();
    EXPECT_EQ( q.capacity(), 4u );
    /** after 3δ: grow **/
    std::this_thread::sleep_for( 25ms );
    mon.tick();
    writer.join();
    EXPECT_EQ( q.capacity(), 8u );
    EXPECT_EQ( q.size(), 5u );
}

TEST( monitor, growth_respects_max_capacity )
{
    raft::run_options opts;
    opts.dynamic_resize     = true;
    opts.monitor_delta      = 2ms;
    opts.max_queue_capacity = 8;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 8 );
    mon.register_stream( &q, info( "a", "b" ) );
    for( int i = 0; i < 8; ++i )
    {
        q.push( i );
    }
    std::thread writer( [ & ]() {
        try
        {
            q.push( 9 );
        }
        catch( const raft::closed_port_exception & )
        {
        }
    } );
    while( q.write_blocked_since() == 0 )
    {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for( 10ms );
    mon.tick();
    EXPECT_EQ( q.capacity(), 8u ); /** at the cap: no growth **/
    q.close_read();
    writer.join();
}

TEST( monitor, shrink_heuristic_with_hysteresis )
{
    raft::run_options opts;
    opts.dynamic_resize    = true;
    opts.allow_shrink      = true;
    opts.shrink_hysteresis = 5;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    ASSERT_TRUE( q.resize( 64 ) ); /** grown earlier in its life **/

    /** below-threshold occupancy for `hysteresis` consecutive ticks **/
    for( int t = 0; t < 4; ++t )
    {
        mon.tick();
    }
    EXPECT_EQ( q.capacity(), 64u ); /** not yet **/
    mon.tick();
    EXPECT_EQ( q.capacity(), 32u ); /** halved **/

    /** never shrinks below the initial capacity **/
    for( int t = 0; t < 200; ++t )
    {
        mon.tick();
    }
    EXPECT_GE( q.capacity(), 4u );
}

TEST( monitor, occupancy_spike_resets_shrink_streak )
{
    raft::run_options opts;
    opts.dynamic_resize    = true;
    opts.allow_shrink      = true;
    opts.shrink_hysteresis = 4;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    ASSERT_TRUE( q.resize( 64 ) );
    mon.tick();
    mon.tick();
    mon.tick();
    for( int i = 0; i < 32; ++i )
    {
        q.push( i ); /** busy again **/
    }
    mon.tick(); /** streak resets **/
    q.recycle( 32 );
    mon.tick();
    mon.tick();
    mon.tick();
    EXPECT_EQ( q.capacity(), 64u ); /** 3 < hysteresis: no shrink **/
    mon.tick();
    EXPECT_EQ( q.capacity(), 32u );
}

TEST( monitor, statistics_accumulate_per_tick )
{
    raft::run_options opts;
    opts.dynamic_resize = false;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 8 );
    mon.register_stream( &q, info( "src_k", "dst_k" ) );
    q.push( 1 );
    q.push( 2 );
    mon.tick(); /** occupancy 2/8 **/
    q.push( 3 );
    q.push( 4 );
    mon.tick(); /** occupancy 4/8 **/

    raft::runtime::perf_snapshot snap;
    mon.collect( snap, 1.0 );
    ASSERT_EQ( snap.streams.size(), 1u );
    const auto &s = snap.streams.front();
    EXPECT_EQ( s.samples, 2u );
    EXPECT_DOUBLE_EQ( s.mean_occupancy, 3.0 );
    EXPECT_DOUBLE_EQ( s.mean_utilization, 0.375 );
    EXPECT_EQ( s.pushed, 4u );
    EXPECT_EQ( s.src_kernel, "src_k" );
    EXPECT_EQ( s.occupancy.total(), 2u );
    EXPECT_DOUBLE_EQ( s.throughput_bytes_per_s, 0.0 ); /** no pops **/
}

TEST( monitor, disabled_resize_keeps_queue_fixed )
{
    raft::run_options opts;
    opts.dynamic_resize = false;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    EXPECT_FALSE( q.auto_resize() );
    EXPECT_THROW( (void) q.peek_range( 16 ),
                  raft::demand_exceeds_capacity_exception );
}

TEST( monitor, background_thread_ticks )
{
    /** a sampled monitor (stats_out is read after the run) ticks about
     *  once per ms while idle **/
    raft::runtime::perf_snapshot snap;
    raft::run_options opts;
    opts.dynamic_resize = true;
    opts.monitor_delta  = 100us;
    opts.stats_out      = &snap;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    mon.start();
    std::this_thread::sleep_for( 20ms );
    mon.stop();
    EXPECT_GT( mon.ticks(), 10u );
}

TEST( monitor, idle_thread_ticks_at_most_once_per_ms )
{
    /** nothing blocked, nothing requested: the thread sleeps on its
     *  doorbell instead of ticking every δ (10 µs), with a 1 ms cap
     *  while a supervisor reads the samples. An upper bound, so a loaded
     *  host cannot make it flaky. The second input attaches a supervisor
     *  without a watchdog: an attached supervisor must not keep the
     *  thread at δ cadence. **/
    for( const bool supervised : { false, true } )
    {
        SCOPED_TRACE( supervised ? "supervised" : "plain" );
        raft::run_options opts;
        opts.dynamic_resize = true;
        raft::supervision_options sopts;
        sopts.enabled = true;
        raft::runtime::supervisor sup( sopts );
        raft::monitor mon( opts );
        raft::ring_buffer<int> q( 4 );
        mon.register_stream( &q, info( "a", "b" ) );
        if( supervised )
        {
            mon.attach_supervisor( &sup );
        }
        const auto t0 = std::chrono::steady_clock::now();
        mon.start();
        std::this_thread::sleep_for( 50ms );
        mon.stop();
        const auto ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0 )
                            .count();
        /** one tick per elapsed ms, plus the first and the final one **/
        EXPECT_LE( static_cast<double>( mon.ticks() ), ms + 2.0 );
        EXPECT_GE( mon.ticks(), 2u );
    }
}

TEST( monitor, unsampled_idle_thread_ticks_only_at_start_and_stop )
{
    /** dynamic resizing and no sample reader (no stats_out, no hook, no
     *  allow_shrink): the tick serves only the resize rules, which ring
     *  the doorbell, so an idle run ticks once at start and once at
     *  stop. 50 ms is well below the 100 ms backstop. **/
    raft::run_options opts;
    opts.dynamic_resize = true;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 4 );
    mon.register_stream( &q, info( "a", "b" ) );
    mon.start();
    std::this_thread::sleep_for( 50ms );
    mon.stop();
    EXPECT_LE( mon.ticks(), 2u );
    EXPECT_GE( mon.ticks(), 1u );
}

TEST( monitor, service_rate_is_the_estimators_busy_corrected_rate )
{
    /** the ring is empty for half the ticks and holds 5 elements for the
     *  other half; the consumer drains 50 elements in total. The run
     *  report and the elastic estimator read the same sample, so both
     *  report the rate while non-empty: 2 × popped / wall. **/
    raft::run_options opts;
    opts.dynamic_resize = false;
    raft::monitor mon( opts );
    raft::ring_buffer<int> q( 8 );
    mon.register_stream( &q, info( "src_k", "dst_k" ) );
    for( int t = 0; t < 10; ++t )
    {
        mon.tick(); /** empty **/
    }
    for( int t = 0; t < 10; ++t )
    {
        for( int i = 0; i < 5; ++i )
        {
            q.push( i );
        }
        mon.tick(); /** 5/8 **/
        for( int i = 0; i < 5; ++i )
        {
            int v = 0;
            q.pop( v );
        }
    }

    const double wall = 0.5;
    raft::runtime::perf_snapshot snap;
    mon.collect( snap, wall );
    ASSERT_EQ( snap.streams.size(), 1u );
    const auto &s = snap.streams.front();
    ASSERT_EQ( s.popped, 50u );
    EXPECT_EQ( s.samples, 20u );
    EXPECT_DOUBLE_EQ( s.service_rate_hz,
                      2.0 * static_cast<double>( s.popped ) / wall );
    /** never full: the offered arrival rate is the observed one **/
    EXPECT_DOUBLE_EQ( s.arrival_rate_hz,
                      static_cast<double>( s.pushed ) / wall );
    /** throughput stays the raw observed rate **/
    EXPECT_DOUBLE_EQ( s.throughput_bytes_per_s,
                      static_cast<double>( s.popped ) * sizeof( int ) /
                          wall );

    raft::elastic::rate_estimator est( 1.0 );
    est.window( mon.streams().front().sample, q.total_pushed(),
                q.total_popped(), wall );
    EXPECT_DOUBLE_EQ( est.busy_fraction(), 0.5 );
    EXPECT_DOUBLE_EQ( est.service_hz(), s.service_rate_hz );
    EXPECT_DOUBLE_EQ( est.arrival_hz(), s.arrival_rate_hz );
}
