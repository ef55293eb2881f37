/**
 * Elastic runtime (runtime/elastic/): online rate estimation, replica
 * policy, active-lane routing / quiesce on the split adapter, the
 * controller's closed loop driven with synthetic clocks, and end-to-end
 * convergence of a skewed pipeline. The stress test at the bottom doubles
 * as the TSan target for the cross-thread actuation mailboxes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <thread>
#include <vector>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;

/** Clonable middle kernel with a fixed per-element service time — the
 *  "slow middle kernel" of the skewed pipeline. Sleeping replicas overlap
 *  even on a single core, so activating lanes raises throughput. */
class sleepy_worker : public raft::kernel
{
public:
    explicit sleepy_worker( const std::chrono::microseconds delay )
        : delay_( delay )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v = input[ "0" ].pop_s<i64>();
        std::this_thread::sleep_for( delay_ );
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = *v;
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return new sleepy_worker( delay_ );
    }

private:
    std::chrono::microseconds delay_;
};

raft::run_options elastic_opts( const std::size_t max_replicas )
{
    raft::run_options o;
    o.enable_auto_parallel    = true;
    o.elastic.enabled         = true;
    o.elastic.min_replicas    = 1;
    o.elastic.max_replicas    = max_replicas;
    o.elastic.control_period  = std::chrono::milliseconds( 2 );
    o.elastic.hysteresis      = 2;
    return o;
}

} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* estimator                                                            */
/* ------------------------------------------------------------------ */

TEST( elastic_estimator, ewma_seeds_then_smooths )
{
    raft::elastic::ewma e( 0.5 );
    EXPECT_FALSE( e.valid() );
    e.update( 10.0 );
    EXPECT_TRUE( e.valid() );
    EXPECT_DOUBLE_EQ( e.value(), 10.0 );
    e.update( 20.0 );
    EXPECT_DOUBLE_EQ( e.value(), 15.0 );
}

TEST( elastic_estimator, busy_fraction_corrects_service_rate )
{
    raft::elastic::rate_estimator est( 1.0 ); /** no smoothing **/
    raft::runtime::stream_sample s;
    /** queue empty half the window: the consumer was starved, so its
     *  observed drain rate is half its true service rate **/
    for( int i = 0; i < 5; ++i )
    {
        s.add( 0, 8 );
    }
    for( int i = 0; i < 5; ++i )
    {
        s.add( 4, 8 );
    }
    est.window( s, /*pushed*/ 100, /*popped*/ 50, /*dt*/ 1.0 );
    EXPECT_DOUBLE_EQ( est.busy_fraction(), 0.5 );
    EXPECT_DOUBLE_EQ( est.observed_pop_hz(), 50.0 );
    EXPECT_DOUBLE_EQ( est.service_hz(), 100.0 ); /** 50 / 0.5 **/
    EXPECT_DOUBLE_EQ( est.arrival_hz(), 100.0 ); /** not blocked **/
    EXPECT_DOUBLE_EQ( est.mean_occupancy_fraction(), 0.25 );
}

TEST( elastic_estimator, full_fraction_corrects_offered_arrival_rate )
{
    raft::elastic::rate_estimator est( 1.0 );
    raft::runtime::stream_sample s;
    /** queue full the whole window: the producer was blocked, so the
     *  observed push rate underestimates the offered load; the non-full
     *  fraction is floored at 0.05 so saturation cannot blow it up **/
    for( int i = 0; i < 10; ++i )
    {
        s.add( 8, 8 );
    }
    est.window( s, /*pushed*/ 10, /*popped*/ 0, /*dt*/ 1.0 );
    EXPECT_DOUBLE_EQ( est.full_fraction(), 1.0 );
    EXPECT_DOUBLE_EQ( est.arrival_hz(), 10.0 / 0.05 );
}

TEST( elastic_estimator, window_counters_are_deltas )
{
    raft::elastic::rate_estimator est( 1.0 );
    raft::runtime::stream_sample s;
    s.add( 1, 8 );
    est.window( s, 100, 100, 1.0 );
    s.add( 1, 8 );
    est.window( s, 130, 120, 1.0 );
    EXPECT_DOUBLE_EQ( est.observed_push_hz(), 30.0 );
    EXPECT_DOUBLE_EQ( est.observed_pop_hz(), 20.0 );
    EXPECT_EQ( est.windows(), 2u );
}

/* ------------------------------------------------------------------ */
/* policy                                                               */
/* ------------------------------------------------------------------ */

TEST( elastic_policy, hysteresis_gates_growth )
{
    raft::elastic::policy_config cfg;
    cfg.hysteresis = 3;
    cfg.max_active = 4;
    raft::elastic::replica_policy p( cfg );

    raft::elastic::group_estimate e;
    e.input_pressure = 1.0; /** backpressure: bottleneck every window **/
    e.active         = 1;
    EXPECT_EQ( p.decide( e ), 0 );
    EXPECT_EQ( p.decide( e ), 0 );
    EXPECT_EQ( p.decide( e ), +1 ); /** third agreeing window **/
    /** actuation resets the streak **/
    e.active = 2;
    EXPECT_EQ( p.decide( e ), 0 );
    EXPECT_EQ( p.decide( e ), 0 );
    EXPECT_EQ( p.decide( e ), +1 );
}

TEST( elastic_policy, growth_capped_at_max_active )
{
    raft::elastic::policy_config cfg;
    cfg.hysteresis = 1;
    cfg.max_active = 2;
    raft::elastic::replica_policy p( cfg );
    raft::elastic::group_estimate e;
    e.input_pressure = 1.0;
    e.active         = 2;
    EXPECT_EQ( p.decide( e ), 0 );
}

TEST( elastic_policy, underutilized_group_retires_a_replica )
{
    raft::elastic::policy_config cfg;
    cfg.hysteresis = 2;
    cfg.max_active = 4;
    raft::elastic::replica_policy p( cfg );

    raft::elastic::group_estimate e;
    e.lambda         = 100.0;
    e.mu             = 200.0;
    e.active         = 3; /** ρ at 2 replicas would be 0.25 < 0.45 **/
    e.rates_valid    = true;
    e.input_pressure = 0.0;
    EXPECT_TRUE( p.is_underutilized( e ) );
    EXPECT_EQ( p.decide( e ), 0 );
    EXPECT_EQ( p.decide( e ), -1 );
}

TEST( elastic_policy, model_desired_matches_mm1_sizing )
{
    raft::elastic::policy_config cfg;
    cfg.max_active = 8;
    raft::elastic::replica_policy p( cfg );
    /** smallest r with λ/(μ·r) ≤ 0.85: 900/(300·r) ≤ 0.85 → r = 4 **/
    EXPECT_EQ( p.model_desired( 900.0, 300.0 ), 4u );
    EXPECT_EQ( p.model_desired( 100.0, 300.0 ), 1u );
    /** clamped to the lane ceiling **/
    EXPECT_EQ( p.model_desired( 9000.0, 300.0 ), 8u );
}

TEST( elastic_policy, predict_capacity_grows_ahead_of_blocking )
{
    /** stable queue, but predicted L = ρ/(1-ρ) = 9 crowds a cap of 8 **/
    EXPECT_EQ( raft::elastic::predict_capacity( 90.0, 100.0, 0.2, 8,
                                                1024 ),
               16u );
    /** saturated (λ ≥ μ): grow once the buffer visibly fills **/
    EXPECT_EQ( raft::elastic::predict_capacity( 200.0, 100.0, 0.8, 8,
                                                1024 ),
               16u );
    EXPECT_EQ( raft::elastic::predict_capacity( 200.0, 100.0, 0.3, 8,
                                                1024 ),
               0u );
    /** growth clamps to and stops at max capacity **/
    EXPECT_EQ( raft::elastic::predict_capacity( 90.0, 100.0, 0.9, 8,
                                                12 ),
               12u );
    EXPECT_EQ( raft::elastic::predict_capacity( 90.0, 100.0, 0.9, 12,
                                                12 ),
               0u );
}

TEST( elastic_policy, strategy_retune_needs_sustained_skew )
{
    raft::elastic::policy_config cfg;
    cfg.hysteresis = 2;
    raft::elastic::strategy_policy sp( cfg );

    raft::elastic::group_estimate e;
    e.active    = 2;
    e.lane_skew = 0.9;
    EXPECT_FALSE( sp.want_least_utilized( e ) );
    EXPECT_TRUE( sp.want_least_utilized( e ) );
    /** single active lane has no skew to speak of **/
    e.active = 1;
    EXPECT_FALSE( sp.want_least_utilized( e ) );
}

/* ------------------------------------------------------------------ */
/* split adapter: active-lane routing and quiesce                       */
/* ------------------------------------------------------------------ */

TEST( elastic_split, routes_only_to_active_lanes_then_widens )
{
    const auto meta = raft::detail::type_meta::of<int>();
    raft::split_kernel sp(
        meta, 3,
        raft::make_split_strategy( raft::split_kind::round_robin ),
        /*initial_active*/ 1 );

    raft::ring_buffer<int> in( 64 ), l0( 64 ), l1( 64 ), l2( 64 );
    sp.input[ "0" ].bind( &in );
    sp.output[ "0" ].bind( &l0 );
    sp.output[ "1" ].bind( &l1 );
    sp.output[ "2" ].bind( &l2 );

    for( int i = 0; i < 6; ++i )
    {
        in.push( i );
    }
    sp.run();
    EXPECT_EQ( l0.size(), 6u ); /** one routed lane takes everything **/
    EXPECT_EQ( l1.size(), 0u );
    EXPECT_EQ( l2.size(), 0u );

    sp.set_active( 3 );
    for( int i = 0; i < 6; ++i )
    {
        in.push( 100 + i );
    }
    sp.run();
    EXPECT_EQ( l0.size(), 8u ); /** strict dealing: 2 more per lane **/
    EXPECT_EQ( l1.size(), 2u );
    EXPECT_EQ( l2.size(), 2u );

    /** quiesce back to one lane: the retired lanes stop receiving but
     *  keep their queued elements (they drain through their replicas) **/
    sp.set_active( 1 );
    for( int i = 0; i < 3; ++i )
    {
        in.push( 200 + i );
    }
    sp.run();
    EXPECT_EQ( l0.size(), 11u );
    EXPECT_EQ( l1.size(), 2u );
    EXPECT_EQ( l2.size(), 2u );
}

TEST( elastic_split, strategy_swap_applied_at_next_quantum )
{
    const auto meta = raft::detail::type_meta::of<int>();
    raft::split_kernel sp(
        meta, 2,
        raft::make_split_strategy( raft::split_kind::round_robin ), 0 );
    EXPECT_STREQ( sp.strategy_name(), "round-robin" );
    EXPECT_TRUE( sp.strategy_strict() );

    raft::ring_buffer<int> in( 8 ), l0( 8 ), l1( 8 );
    sp.input[ "0" ].bind( &in );
    sp.output[ "0" ].bind( &l0 );
    sp.output[ "1" ].bind( &l1 );

    sp.request_strategy( raft::split_kind::least_utilized );
    in.push( 1 );
    sp.run();
    EXPECT_STREQ( sp.strategy_name(), "least-utilized" );
    EXPECT_FALSE( sp.strategy_strict() );
}

/* ------------------------------------------------------------------ */
/* controller: closed loop with a synthetic clock                       */
/* ------------------------------------------------------------------ */

TEST( elastic_controller, backpressure_activates_lanes )
{
    const auto meta = raft::detail::type_meta::of<int>();
    raft::split_kernel sp(
        meta, 3,
        raft::make_split_strategy( raft::split_kind::least_utilized ),
        /*initial_active*/ 1 );
    raft::ring_buffer<int> in( 8 ), l0( 8 ), l1( 8 ), l2( 8 );
    sp.input[ "0" ].bind( &in );
    sp.output[ "0" ].bind( &l0 );
    sp.output[ "1" ].bind( &l1 );
    sp.output[ "2" ].bind( &l2 );

    raft::run_options o;
    o.elastic.enabled        = true;
    o.elastic.control_period = std::chrono::milliseconds( 1 );
    o.elastic.hysteresis     = 2;
    /** the controller estimates every monitor stream; keep predictive
     *  sizing from growing the saturated input, so only the replica
     *  actuator answers the backpressure **/
    o.elastic.predictive_resize = false;
    /** the controller reads the monitor's samples: register the streams,
     *  then drive one monitor tick before each controller tick **/
    raft::monitor mon( o );
    for( auto *f : std::initializer_list<raft::fifo_base *>{
             &in, &l0, &l1, &l2 } )
    {
        mon.register_stream( f, { "src", "dst", "0", "0", "int" } );
    }
    raft::elastic::controller ctrl( o, mon );

    raft::replica_group g;
    g.kernel_name = "worker";
    g.splits.push_back( &sp );
    ctrl.add_group( g );
    ASSERT_EQ( ctrl.group_count(), 1u );

    /** saturate the split input: sustained backpressure is bottleneck
     *  evidence even before the rate estimates warm up **/
    for( int i = 0; i < 8; ++i )
    {
        in.push( i );
    }

    std::int64_t now = 1'000'000'000;
    mon.tick();
    ctrl.on_tick( now ); /** seeds the control clock **/
    const std::int64_t step = 1'000'001;
    for( int w = 0; w < 2; ++w )
    {
        now += step;
        mon.tick();
        ctrl.on_tick( now );
    }
    EXPECT_EQ( sp.active(), 2u ); /** one grow after 2 windows **/
    for( int w = 0; w < 2; ++w )
    {
        now += step;
        mon.tick();
        ctrl.on_tick( now );
    }
    EXPECT_EQ( sp.active(), 3u );

    const auto rep = ctrl.report();
    ASSERT_EQ( rep.groups.size(), 1u );
    EXPECT_EQ( rep.groups[ 0 ].kernel_name, "worker" );
    EXPECT_EQ( rep.groups[ 0 ].grows, 2u );
    EXPECT_EQ( rep.groups[ 0 ].final_active, 3u );
    EXPECT_EQ( rep.groups[ 0 ].peak_active, 3u );
    EXPECT_GE( rep.control_ticks, 4u );
}

TEST( elastic_controller, predictively_resizes_filling_stream )
{
    raft::ring_buffer<int> rb( 8 );
    for( int i = 0; i < 7; ++i )
    {
        rb.push( i );
    }

    raft::run_options o;
    o.elastic.enabled        = true;
    o.elastic.control_period = std::chrono::milliseconds( 1 );
    o.dynamic_resize         = true;
    raft::monitor mon( o );
    mon.register_stream( &rb, { "src", "dst", "0", "0", "int" } );
    raft::elastic::controller ctrl( o, mon );

    /** the controller reads the monitor's sample of every stream, so
     *  drive one monitor tick before each controller tick **/
    std::int64_t now = 1'000'000'000;
    mon.tick();
    ctrl.on_tick( now );
    for( int w = 0; w < 3; ++w )
    {
        for( int t = 0; t < 4; ++t )
        {
            now += 250'001;
            mon.tick();
            ctrl.on_tick( now );
        }
    }
    /** 7/8 occupancy > 0.7 and two closed windows: capacity doubles
     *  before the writer ever blocks 3δ **/
    EXPECT_EQ( rb.capacity(), 16u );
    EXPECT_GE( ctrl.report().predictive_resizes, 1u );
}

TEST( elastic_controller, disabled_runtime_is_untouched )
{
    const std::size_t count = 5000;
    std::vector<i64> out;
    raft::runtime::elastic_report rep;
    rep.control_ticks = 777; /** sentinel: must remain untouched **/
    raft::runtime::perf_snapshot report;

    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::generate<i64>>(
            count, []( std::size_t i ) { return static_cast<i64>( i ); } ),
        raft::kernel::make<sleepy_worker>(
            std::chrono::microseconds( 0 ) ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );

    raft::run_options o;
    o.elastic.enabled = false;
    o.stats_out       = &report;
    m.exe( o );

    ASSERT_EQ( out.size(), count );
    /** a disabled controller leaves no elastic section to copy **/
    EXPECT_FALSE( report.elastic );
    if( report.elastic )
    {
        rep = *report.elastic;
    }
    EXPECT_EQ( rep.control_ticks, 777u );
    EXPECT_TRUE( rep.groups.empty() );
}

/* ------------------------------------------------------------------ */
/* end-to-end: skewed pipeline convergence                              */
/* ------------------------------------------------------------------ */

TEST( elastic_pipeline, skewed_pipeline_converges_to_multiple_replicas )
{
    const std::size_t count = 1500;
    std::vector<i64> out;
    raft::runtime::perf_snapshot report;

    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::generate<i64>>(
            count, []( std::size_t i ) { return static_cast<i64>( i ); } ),
        raft::kernel::make<sleepy_worker>(
            std::chrono::microseconds( 300 ) ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );

    auto o      = elastic_opts( 4 );
    o.stats_out = &report;
    m.exe( o );
    ASSERT_TRUE( report.elastic );
    const auto &rep = *report.elastic;

    /** correctness first: every element exactly once **/
    ASSERT_EQ( out.size(), count );
    std::sort( out.begin(), out.end() );
    for( std::size_t i = 0; i < count; ++i )
    {
        ASSERT_EQ( out[ i ], static_cast<i64>( i ) );
    }

    /** the slow middle kernel was detected and replicas activated: a fast
     *  source against a 300 µs service time saturates one replica many
     *  times over, so the controller should reach the lane ceiling —
     *  accept ceiling-1 to absorb scheduling noise (±1 of the model) **/
    ASSERT_EQ( rep.groups.size(), 1u );
    const auto &g = rep.groups[ 0 ];
    EXPECT_GE( g.grows, 1u );
    EXPECT_GE( g.peak_active, 3u );
    EXPECT_LE( g.peak_active, 4u );
    /** the online estimates should agree the group needed widening **/
    EXPECT_GE( g.model_desired, g.peak_active - 1 );
    EXPECT_GT( rep.control_ticks, 0u );
}

TEST( elastic_pipeline, load_drop_retires_replicas )
{
    /** two-phase source: a saturating burst, then a slow trickle — the
     *  controller must scale up for the burst and back down after it **/
    const std::size_t burst   = 1200;
    const std::size_t trickle = 120;
    const std::size_t count   = burst + trickle;
    std::vector<i64> out;
    raft::runtime::perf_snapshot report;

    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::generate<i64>>(
            count,
            [ burst ]( std::size_t i ) {
                if( i >= burst )
                {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds( 3 ) );
                }
                return static_cast<i64>( i );
            } ),
        raft::kernel::make<sleepy_worker>(
            std::chrono::microseconds( 300 ) ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );

    auto o      = elastic_opts( 4 );
    o.stats_out = &report;
    m.exe( o );
    ASSERT_TRUE( report.elastic );
    const auto &rep = *report.elastic;

    ASSERT_EQ( out.size(), count );
    std::sort( out.begin(), out.end() );
    for( std::size_t i = 0; i < count; ++i )
    {
        ASSERT_EQ( out[ i ], static_cast<i64>( i ) );
    }

    ASSERT_EQ( rep.groups.size(), 1u );
    const auto &g = rep.groups[ 0 ];
    EXPECT_GE( g.peak_active, 2u );   /** scaled up for the burst      **/
    EXPECT_GE( g.shrinks, 1u );       /** retired lanes for the trickle **/
    EXPECT_LT( g.final_active, g.peak_active );
}

/* ------------------------------------------------------------------ */
/* stress: mid-run quiesce under concurrent actuation (TSan target)     */
/* ------------------------------------------------------------------ */

TEST( elastic_stress, concurrent_actuation_loses_nothing )
{
    const int count = 20000;
    const auto meta = raft::detail::type_meta::of<int>();
    raft::split_kernel sp(
        meta, 3,
        raft::make_split_strategy( raft::split_kind::round_robin ),
        /*initial_active*/ 1 );
    raft::ring_buffer<int> in( 64 ), l0( 64 ), l1( 64 ), l2( 64 );
    sp.input[ "0" ].bind( &in );
    sp.output[ "0" ].bind( &l0 );
    sp.output[ "1" ].bind( &l1 );
    sp.output[ "2" ].bind( &l2 );
    std::vector<raft::ring_buffer<int> *> lanes{ &l0, &l1, &l2 };

    std::atomic<bool> split_done{ false };

    std::thread producer( [ & ]() {
        for( int i = 0; i < count; ++i )
        {
            in.push( i );
        }
        in.close_write();
    } );

    /** the controller's role: keep flipping the active-lane count and the
     *  strategy while the split routes — every transition is a quiesce **/
    std::thread toggler( [ & ]() {
        std::size_t n = 0;
        while( !split_done.load( std::memory_order_acquire ) )
        {
            sp.set_active( 1 + ( n % 3 ) );
            sp.request_strategy( ( n & 1 ) != 0
                                     ? raft::split_kind::least_utilized
                                     : raft::split_kind::round_robin );
            ++n;
            std::this_thread::sleep_for(
                std::chrono::microseconds( 50 ) );
        }
    } );

    std::vector<std::vector<int>> received( lanes.size() );
    std::vector<std::thread> consumers;
    for( std::size_t i = 0; i < lanes.size(); ++i )
    {
        consumers.emplace_back( [ &, i ]() {
            int v = 0;
            while( true )
            {
                if( lanes[ i ]->try_pop( v ) )
                {
                    received[ i ].push_back( v );
                }
                else if( lanes[ i ]->drained() )
                {
                    break;
                }
                else
                {
                    std::this_thread::yield();
                }
            }
        } );
    }

    while( sp.run() != raft::stop )
    {
    }
    split_done.store( true, std::memory_order_release );
    for( auto *l : lanes )
    {
        l->close_write();
    }
    producer.join();
    toggler.join();
    for( auto &c : consumers )
    {
        c.join();
    }

    std::vector<int> all;
    for( const auto &r : received )
    {
        all.insert( all.end(), r.begin(), r.end() );
    }
    ASSERT_EQ( all.size(), static_cast<std::size_t>( count ) );
    std::sort( all.begin(), all.end() );
    for( int i = 0; i < count; ++i )
    {
        ASSERT_EQ( all[ static_cast<std::size_t>( i ) ], i );
    }
}
