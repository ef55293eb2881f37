/**
 * Discrete-event engine and the pipeline simulator: event ordering,
 * deterministic stage math, finite-queue blocking, the shared-bandwidth
 * ceiling and scaling behaviour of multi-server stages.
 */
#include <gtest/gtest.h>

#include <vector>

#include <sim/des.hpp>
#include <sim/pipeline.hpp>

using namespace raft::sim;

TEST( des_engine, events_fire_in_time_order )
{
    des_engine e;
    std::vector<int> order;
    e.schedule_at( 3.0, [ & ]() { order.push_back( 3 ); } );
    e.schedule_at( 1.0, [ & ]() { order.push_back( 1 ); } );
    e.schedule_at( 2.0, [ & ]() { order.push_back( 2 ); } );
    e.run();
    EXPECT_EQ( order, ( std::vector<int>{ 1, 2, 3 } ) );
    EXPECT_DOUBLE_EQ( e.now(), 3.0 );
    EXPECT_EQ( e.processed(), 3u );
}

TEST( des_engine, equal_times_fifo )
{
    des_engine e;
    std::vector<int> order;
    for( int i = 0; i < 5; ++i )
    {
        e.schedule_at( 1.0, [ &order, i ]() { order.push_back( i ); } );
    }
    e.run();
    EXPECT_EQ( order, ( std::vector<int>{ 0, 1, 2, 3, 4 } ) );
}

TEST( des_engine, handlers_can_schedule_more )
{
    des_engine e;
    int fired = 0;
    std::function<void()> chain = [ & ]() {
        ++fired;
        if( fired < 10 )
        {
            e.schedule_in( 1.0, chain );
        }
    };
    e.schedule_at( 0.0, chain );
    e.run();
    EXPECT_EQ( fired, 10 );
    EXPECT_DOUBLE_EQ( e.now(), 9.0 );
}

TEST( des_engine, run_until_bound )
{
    des_engine e;
    int fired = 0;
    e.schedule_at( 1.0, [ & ]() { ++fired; } );
    e.schedule_at( 5.0, [ & ]() { ++fired; } );
    e.run( 2.0 );
    EXPECT_EQ( fired, 1 );
    EXPECT_FALSE( e.empty() );
    e.run();
    EXPECT_EQ( fired, 2 );
}

TEST( des_engine, past_scheduling_rejected )
{
    des_engine e;
    e.schedule_at( 5.0, []() {} );
    e.run();
    EXPECT_THROW( e.schedule_at( 1.0, []() {} ),
                  std::invalid_argument );
    e.reset();
    e.schedule_at( 1.0, []() {} ); /** fine after reset **/
}

TEST( pipeline_sim, deterministic_single_stage_exact_makespan )
{
    pipeline_desc d;
    d.stages.push_back( stage_desc{ "only", 10.0, 1, 1,
                                    service_dist::deterministic,
                                    false } );
    d.items = 100;
    const auto r = simulate_pipeline( d );
    EXPECT_NEAR( r.makespan_s, 10.0, 1e-9 ); /** 100 / 10 per s **/
    EXPECT_NEAR( r.throughput_items_per_s, 10.0, 1e-9 );
    EXPECT_EQ( r.stages[ 0 ].completed, 100u );
    EXPECT_NEAR( r.stages[ 0 ].utilization, 1.0, 1e-9 );
}

TEST( pipeline_sim, bottleneck_stage_saturates )
{
    pipeline_desc d;
    d.stages.push_back( stage_desc{ "fast_src", 100.0, 1, 1,
                                    service_dist::deterministic,
                                    false } );
    d.stages.push_back( stage_desc{ "slow", 10.0, 1, 16,
                                    service_dist::deterministic,
                                    false } );
    d.stages.push_back( stage_desc{ "fast_sink", 200.0, 1, 16,
                                    service_dist::deterministic,
                                    false } );
    d.items = 2000;
    const auto r = simulate_pipeline( d );
    EXPECT_NEAR( r.throughput_items_per_s, 10.0, 0.2 );
    EXPECT_GT( r.stages[ 1 ].utilization, 0.98 );
    EXPECT_LT( r.stages[ 2 ].utilization, 0.1 );
    /** the fast producer spends most of its time output-blocked **/
    EXPECT_GT( r.stages[ 0 ].blocked_fraction, 0.5 );
}

TEST( pipeline_sim, multi_server_stage_scales_throughput )
{
    auto run_with = [ & ]( const std::size_t servers ) {
        pipeline_desc d;
        d.stages.push_back( stage_desc{ "src", 1000.0, 1, 1,
                                        service_dist::deterministic,
                                        false } );
        d.stages.push_back( stage_desc{ "work", 10.0, servers, 64,
                                        service_dist::exponential,
                                        false } );
        d.items = 20'000;
        d.seed  = 5;
        return simulate_pipeline( d ).throughput_items_per_s;
    };
    const auto t1 = run_with( 1 );
    const auto t4 = run_with( 4 );
    EXPECT_NEAR( t1, 10.0, 0.5 );
    EXPECT_GT( t4, 3.2 * t1 ); /** near-linear with 4 servers **/
}

TEST( pipeline_sim, tiny_queue_throttles_variable_service )
{
    auto run_with_cap = [ & ]( const std::size_t cap ) {
        pipeline_desc d;
        d.stages.push_back( stage_desc{ "src", 10.0, 1, 1,
                                        service_dist::exponential,
                                        false } );
        d.stages.push_back( stage_desc{ "work", 10.0, 1, cap,
                                        service_dist::exponential,
                                        false } );
        d.items = 30'000;
        d.seed  = 21;
        return simulate_pipeline( d ).throughput_items_per_s;
    };
    const auto small = run_with_cap( 1 );
    const auto big   = run_with_cap( 256 );
    /** Figure 4's left side: too-small queues create a bottleneck **/
    EXPECT_LT( small, 0.85 * big );
}

TEST( pipeline_sim, shared_bandwidth_caps_aggregate_rate )
{
    pipeline_desc d;
    d.stages.push_back( stage_desc{ "src", 1e6, 1, 1,
                                    service_dist::deterministic,
                                    false } );
    d.stages.push_back( stage_desc{ "work", 100.0, 8, 64,
                                    service_dist::deterministic,
                                    true } );
    d.items                 = 20'000;
    d.shared_bandwidth_rate = 250.0; /** well below 8 × 100 **/
    const auto r            = simulate_pipeline( d );
    EXPECT_LT( r.throughput_items_per_s, 260.0 );
    EXPECT_GT( r.throughput_items_per_s, 180.0 );
}

TEST( pipeline_sim, reproducible_for_seed )
{
    pipeline_desc d;
    d.stages.push_back( stage_desc{ "src", 7.0, 1, 1,
                                    service_dist::exponential,
                                    false } );
    d.stages.push_back( stage_desc{ "work", 9.0, 2, 8,
                                    service_dist::exponential,
                                    false } );
    d.items = 5000;
    d.seed  = 1234;
    const auto a = simulate_pipeline( d );
    const auto b = simulate_pipeline( d );
    EXPECT_DOUBLE_EQ( a.makespan_s, b.makespan_s );
}

TEST( pipeline_sim, non_exponential_service_keeps_mean_rate )
{
    /** a single-stage pipeline's makespan with n items has mean n/rate
     *  regardless of the service distribution **/
    for( const auto d :
         { service_dist::uniform, service_dist::hyperexponential } )
    {
        pipeline_desc p;
        p.stages.push_back( stage_desc{ "only", 100.0, 1, 1, d, false } );
        p.items      = 40'000;
        p.seed       = 123;
        const auto r = simulate_pipeline( p );
        EXPECT_NEAR( r.throughput_items_per_s, 100.0, 3.0 )
            << "dist " << static_cast<int>( d );
    }
}

TEST( pipeline_sim, empty_pipeline_rejected )
{
    pipeline_desc d;
    EXPECT_THROW( simulate_pipeline( d ), std::invalid_argument );
}
