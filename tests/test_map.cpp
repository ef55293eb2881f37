/**
 * map assembly and execution: link resolution, the exe()-time checks the
 * paper names (connectivity, per-link type checking with arithmetic
 * conversion), scheduler selection, statistics plumbing, and the Figure 3
 * assembly style.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <vector>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;

raft::generate<i64> *seq_source( const std::size_t n,
                                 const i64 scale = 1 )
{
    return raft::kernel::make<raft::generate<i64>>(
        n, [ scale ]( std::size_t i ) {
            return static_cast<i64>( i ) * scale;
        } );
}

/** A 4 KiB element: 16 of them fill the 64 KiB budget, under the floor. */
struct page
{
    char bytes[ 4096 ];
};

/** Pushes `n` value-initialised T, for element types generate<> cannot
 *  make. */
template <class T> class fill : public raft::kernel
{
public:
    explicit fill( const std::size_t n ) : n_( n )
    {
        output.addPort<T>( "0" );
    }
    raft::kstatus run() override
    {
        if( n_ == 0 )
        {
            return raft::stop;
        }
        output[ "0" ].push<T>( T{} );
        --n_;
        return raft::proceed;
    }

private:
    std::size_t n_;
};

/** Run fill<T> → write_each<T> over `count` elements and return the
 *  report of its one stream. */
template <class T>
raft::runtime::stream_stats one_stream( raft::run_options opts,
                                        const std::size_t count = 1000 )
{
    raft::runtime::perf_snapshot snap;
    opts.stats_out = &snap;
    std::vector<T> out;
    raft::map m;
    m.link( raft::kernel::make<fill<T>>( count ),
            raft::kernel::make<raft::write_each<T>>(
                std::back_inserter( out ) ) );
    m.exe( opts );
    EXPECT_EQ( out.size(), count );
    EXPECT_EQ( snap.streams.size(), 1u );
    return snap.streams.empty() ? raft::runtime::stream_stats{}
                                : snap.streams.front();
}

} /** end anonymous namespace **/

TEST( map, empty_map_throws )
{
    raft::map m;
    EXPECT_THROW( m.exe(), raft::graph_exception );
}

TEST( map, null_kernel_throws )
{
    raft::map m;
    EXPECT_THROW( m.link( nullptr, seq_source( 1 ) ),
                  raft::graph_exception );
}

TEST( map, figure3_sum_application )
{
    const std::size_t count = 100000;
    std::vector<i64> out;
    raft::map map;
    auto linked_kernels = map.link(
        seq_source( count ),
        raft::kernel::make<raft::sum<i64, i64, i64>>(), "input_a" );
    map.link( seq_source( count, 10 ), &( linked_kernels.dst ),
              "input_b" );
    map.link( &( linked_kernels.dst ),
              raft::kernel::make<raft::write_each<i64>>(
                  std::back_inserter( out ) ) );
    map.exe();
    ASSERT_EQ( out.size(), count );
    for( std::size_t i = 0; i < count; i += 997 )
    {
        EXPECT_EQ( out[ i ], static_cast<i64>( i * 11 ) );
    }
}

TEST( map, print_kernel_writes_stream )
{
    std::ostringstream os;
    raft::map m;
    m.link( seq_source( 3 ),
            raft::kernel::make<raft::print<i64, ','>>( os ) );
    m.exe();
    EXPECT_EQ( os.str(), "0,1,2," );
}

TEST( map, double_link_same_port_throws )
{
    raft::map m;
    auto *src  = seq_source( 1 );
    auto *dst1 = raft::kernel::make<raft::print<i64>>();
    m.link( src, dst1 );
    auto *dst2 = raft::kernel::make<raft::print<i64>>();
    EXPECT_THROW( m.link( src, dst2 ), raft::port_exception );
}

TEST( map, disconnected_graph_throws )
{
    raft::map m;
    m.link( seq_source( 1 ), raft::kernel::make<raft::print<i64>>() );
    m.link( seq_source( 1 ), raft::kernel::make<raft::print<i64>>() );
    EXPECT_THROW( m.exe(), raft::graph_exception );
}

TEST( map, unlinked_port_throws )
{
    raft::map m;
    auto *s = raft::kernel::make<raft::sum<i64, i64, i64>>();
    m.link( seq_source( 4 ), s, "input_a" );
    m.link( s, raft::kernel::make<raft::print<i64>>() );
    /** input_b never linked **/
    EXPECT_THROW( m.exe(), raft::graph_exception );
}

TEST( map, exe_twice_throws )
{
    std::ostringstream sink;
    raft::map m;
    m.link( seq_source( 2 ), raft::kernel::make<raft::print<i64>>(
                                 sink ) );
    raft::run_options o;
    m.exe( o );
    EXPECT_THROW( m.exe( o ), raft::graph_exception );
}

TEST( map, arithmetic_link_types_converted )
{
    /** int32 source feeding a double sink: the runtime splices a
     *  conversion adapter (§4.2 narrowest-convertible-type behaviour) **/
    std::vector<double> out;
    raft::map m;
    m.link( raft::kernel::make<raft::generate<std::int32_t>>(
                64, []( std::size_t i ) {
                    return static_cast<std::int32_t>( i );
                } ),
            raft::kernel::make<raft::write_each<double>>(
                std::back_inserter( out ) ) );
    m.exe();
    ASSERT_EQ( out.size(), 64u );
    for( std::size_t i = 0; i < out.size(); ++i )
    {
        EXPECT_DOUBLE_EQ( out[ i ], static_cast<double>( i ) );
    }
}

TEST( map, incompatible_link_types_throw )
{
    struct payload
    {
        int x;
    };
    class payload_sink : public raft::kernel
    {
    public:
        payload_sink() { input.addPort<payload>( "0" ); }
        raft::kstatus run() override { return raft::stop; }
    };
    raft::map m;
    m.link( seq_source( 1 ), raft::kernel::make<payload_sink>() );
    EXPECT_THROW( m.exe(), raft::link_type_exception );
}

TEST( map, stats_snapshot_populated )
{
    raft::runtime::perf_snapshot snap;
    raft::run_options opts;
    opts.stats_out     = &snap;
    opts.monitor_delta = std::chrono::microseconds( 50 );
    const std::size_t count = 5000;
    std::vector<i64> out;
    raft::map m;
    m.link( seq_source( count ),
            raft::kernel::make<raft::write_each<i64>>(
                std::back_inserter( out ) ) );
    m.exe( opts );
    ASSERT_EQ( snap.streams.size(), 1u );
    const auto &s = snap.streams.front();
    EXPECT_EQ( s.pushed, count );
    EXPECT_EQ( s.popped, count );
    EXPECT_EQ( s.element_size, sizeof( i64 ) );
    EXPECT_GT( snap.wall_seconds, 0.0 );
    EXPECT_GT( s.service_rate_hz, 0.0 );
    EXPECT_GE( s.mean_utilization, 0.0 );
    EXPECT_LE( s.mean_utilization, 1.0 );
    EXPECT_NE( s.src_kernel.find( "generate" ), std::string::npos );
}

TEST( map, pool_scheduler_runs_sum_app )
{
    const std::size_t count = 2000;
    std::vector<i64> out;
    raft::map map;
    auto linked = map.link(
        seq_source( count ),
        raft::kernel::make<raft::sum<i64, i64, i64>>(), "input_a" );
    map.link( seq_source( count, 2 ), &( linked.dst ), "input_b" );
    map.link( &( linked.dst ),
              raft::kernel::make<raft::write_each<i64>>(
                  std::back_inserter( out ) ) );
    raft::run_options opts;
    opts.scheduler    = raft::scheduler_kind::pool;
    opts.pool_threads = 3;
    map.exe( opts );
    ASSERT_EQ( out.size(), count );
    for( std::size_t i = 0; i < count; i += 101 )
    {
        EXPECT_EQ( out[ i ], static_cast<i64>( 3 * i ) );
    }
}

TEST( map, tiny_queues_without_resize_still_complete )
{
    raft::run_options opts;
    opts.initial_queue_capacity = 2;
    opts.dynamic_resize         = false;
    std::vector<i64> out;
    raft::map m;
    m.link( seq_source( 10000 ),
            raft::kernel::make<raft::write_each<i64>>(
                std::back_inserter( out ) ) );
    m.exe( opts );
    EXPECT_EQ( out.size(), 10000u );
}

TEST( map, kernel_exception_propagates_to_caller )
{
    class bomb : public raft::kernel
    {
    public:
        bomb() { input.addPort<i64>( "0" ); }
        raft::kstatus run() override
        {
            (void) input[ "0" ].pop<i64>();
            throw std::runtime_error( "kernel failure" );
        }
    };
    raft::map m;
    m.link( seq_source( 100 ), raft::kernel::make<bomb>() );
    EXPECT_THROW( m.exe(), std::runtime_error );
}

TEST( map, graph_introspection_reflects_links )
{
    std::ostringstream sink;
    raft::map m;
    auto p = m.link( seq_source( 1 ),
                     raft::kernel::make<raft::print<i64>>( sink ) );
    (void) p;
    EXPECT_EQ( m.graph().edges().size(), 1u );
    EXPECT_EQ( m.graph().kernels().size(), 2u );
    EXPECT_TRUE( m.graph().connected() );
    EXPECT_EQ( m.owned_kernel_count(), 2u );
}

TEST( map, default_stream_starts_at_64_kib )
{
    /** 8-byte elements: 8,192 slots hold 64 KiB **/
    const auto s = one_stream<i64>( raft::run_options{} );
    EXPECT_EQ( s.initial_capacity, 8192u );
    EXPECT_EQ( raft::initial_stream_capacity( raft::run_options{}, 24,
                                              false ),
               4096u ); /** 2,731 slots rounded up to a power of two **/
}

TEST( map, default_stream_floor_is_64_slots )
{
    const auto s = one_stream<page>( raft::run_options{}, 100 );
    EXPECT_EQ( s.element_size, sizeof( page ) );
    EXPECT_EQ( s.initial_capacity, 64u );
    EXPECT_EQ( raft::initial_stream_capacity( raft::run_options{},
                                              1u << 20, false ),
               64u );
}

TEST( map, split_lanes_start_at_64_slots )
{
    raft::runtime::perf_snapshot snap;
    raft::run_options opts;
    opts.stats_out            = &snap;
    opts.enable_auto_parallel = true;
    opts.replication_width    = 2;
    const std::size_t count   = 5000;
    std::vector<i64> out;
    raft::map m;
    auto p = m.link<raft::out>(
        seq_source( count ),
        raft::kernel::make<raft::transform<i64>>(
            []( const i64 &v ) { return v + 1; } ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    m.exe( opts );
    ASSERT_EQ( out.size(), count );
    std::size_t lanes = 0;
    for( const auto &s : snap.streams )
    {
        if( s.src_kernel.find( "split" ) != std::string::npos )
        {
            EXPECT_EQ( s.initial_capacity, 64u ) << s.dst_kernel;
            ++lanes;
        }
        else
        {
            /** the split's input, the lanes' outputs, the reduce's **/
            EXPECT_EQ( s.initial_capacity, 8192u )
                << s.src_kernel << " -> " << s.dst_kernel;
        }
    }
    EXPECT_EQ( lanes, 2u );
}

TEST( map, explicit_initial_capacity_is_honoured )
{
    raft::run_options opts;
    opts.initial_queue_capacity = 16;
    EXPECT_EQ( one_stream<i64>( opts ).initial_capacity, 16u );
    EXPECT_EQ( one_stream<page>( opts, 100 ).initial_capacity, 16u );
    /** an explicit size is the caller's, even above the growth cap **/
    opts.max_queue_capacity = 8;
    EXPECT_EQ( raft::initial_stream_capacity( opts, 8, false ), 16u );
    EXPECT_EQ( raft::initial_stream_capacity( opts, 8, true ), 16u );
}

TEST( map, default_stream_never_exceeds_max_capacity )
{
    raft::run_options opts;
    opts.max_queue_capacity = 1024;
    opts.dynamic_resize     = false;
    EXPECT_EQ( one_stream<i64>( opts ).initial_capacity, 1024u );
    /** not a power of two: the largest one within it **/
    opts.max_queue_capacity = 1000;
    EXPECT_EQ( one_stream<i64>( opts ).initial_capacity, 512u );
    /** below the 64-slot floor, for a split lane too **/
    opts.max_queue_capacity = 16;
    EXPECT_EQ( one_stream<page>( opts, 100 ).initial_capacity, 16u );
    EXPECT_EQ( raft::initial_stream_capacity( opts, 8, true ), 16u );
}
