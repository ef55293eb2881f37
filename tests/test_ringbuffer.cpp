/**
 * Unit tests for ring_buffer<T>: capacity geometry, FIFO order, signals,
 * end-of-stream semantics, try-ops, claims, peek_range windows, resizing
 * (idle and demand-driven), type-erased transfer and arithmetic raw access.
 */
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <core/ringbuffer.hpp>

using raft::ring_buffer;

TEST( ringbuffer, capacity_rounds_to_power_of_two )
{
    ring_buffer<int> a( 3 );
    EXPECT_EQ( a.capacity(), 4u );
    ring_buffer<int> b( 64 );
    EXPECT_EQ( b.capacity(), 64u );
    ring_buffer<int> c( 65 );
    EXPECT_EQ( c.capacity(), 128u );
    ring_buffer<int> d( 0 );
    EXPECT_EQ( d.capacity(), 2u );
}

TEST( ringbuffer, fifo_order_and_counters )
{
    ring_buffer<int> q( 8 );
    for( int i = 0; i < 8; ++i )
    {
        q.push( i );
    }
    EXPECT_EQ( q.size(), 8u );
    EXPECT_EQ( q.space_avail(), 0u );
    for( int i = 0; i < 8; ++i )
    {
        int v = -1;
        q.pop( v );
        EXPECT_EQ( v, i );
    }
    EXPECT_EQ( q.total_pushed(), 8u );
    EXPECT_EQ( q.total_popped(), 8u );
    EXPECT_EQ( q.size(), 0u );
}

TEST( ringbuffer, wraparound_many_times )
{
    ring_buffer<int> q( 4 );
    for( int round = 0; round < 100; ++round )
    {
        q.push( 3 * round );
        q.push( 3 * round + 1 );
        q.push( 3 * round + 2 );
        for( int k = 0; k < 3; ++k )
        {
            int v = -1;
            q.pop( v );
            EXPECT_EQ( v, 3 * round + k );
        }
    }
    EXPECT_EQ( q.total_pushed(), 300u );
}

TEST( ringbuffer, signals_ride_with_elements )
{
    ring_buffer<int> q( 4 );
    q.push( 1, raft::none );
    q.push( 2, raft::eos );
    int v          = 0;
    raft::signal s = raft::none;
    q.pop( v, &s );
    EXPECT_EQ( s, raft::none );
    q.pop( v, &s );
    EXPECT_EQ( v, 2 );
    EXPECT_EQ( s, raft::eos );
}

TEST( ringbuffer, pop_on_drained_closed_throws )
{
    ring_buffer<int> q( 4 );
    q.push( 7 );
    q.close_write();
    int v = 0;
    q.pop( v );
    EXPECT_EQ( v, 7 );
    EXPECT_TRUE( q.drained() );
    EXPECT_THROW( q.pop( v ), raft::closed_port_exception );
}

TEST( ringbuffer, push_after_reader_closed_throws )
{
    ring_buffer<int> q( 4 );
    q.close_read();
    EXPECT_THROW( q.push( 1 ), raft::closed_port_exception );
    EXPECT_THROW( (void) q.try_push( 1 ), raft::closed_port_exception );
}

TEST( ringbuffer, try_ops_respect_bounds )
{
    ring_buffer<int> q( 2 );
    EXPECT_TRUE( q.try_push( 1 ) );
    EXPECT_TRUE( q.try_push( 2 ) );
    EXPECT_FALSE( q.try_push( 3 ) );
    int v = 0;
    EXPECT_TRUE( q.try_pop( v ) );
    EXPECT_EQ( v, 1 );
    EXPECT_TRUE( q.try_pop( v ) );
    EXPECT_FALSE( q.try_pop( v ) );
}

TEST( ringbuffer, peek_then_pop_and_unpeek )
{
    ring_buffer<std::string> q( 4 );
    q.push( std::string( "alpha" ) );
    q.push( std::string( "beta" ) );
    EXPECT_EQ( q.peek(), "alpha" );
    q.unpeek();
    /** peek does not consume **/
    EXPECT_EQ( q.size(), 2u );
    EXPECT_EQ( q.peek(), "alpha" );
    q.unpeek();
    std::string v;
    q.pop( v );
    EXPECT_EQ( v, "alpha" );
}

TEST( ringbuffer, recycle_discards_in_order )
{
    ring_buffer<int> q( 8 );
    for( int i = 0; i < 6; ++i )
    {
        q.push( i );
    }
    q.recycle( 4 );
    int v = -1;
    q.pop( v );
    EXPECT_EQ( v, 4 );
    EXPECT_EQ( q.total_popped(), 5u );
}

TEST( ringbuffer, claim_tail_publish_and_abandon )
{
    ring_buffer<int> q( 4 );
    int *slot = q.claim_tail();
    *slot     = 42;
    q.publish_tail( raft::eos );
    EXPECT_EQ( q.size(), 1u );
    int v          = 0;
    raft::signal s = raft::none;
    q.pop( v, &s );
    EXPECT_EQ( v, 42 );
    EXPECT_EQ( s, raft::eos );

    slot  = q.claim_tail();
    *slot = 43;
    q.abandon_tail();
    EXPECT_EQ( q.size(), 0u );
}

TEST( ringbuffer, autorelease_pop_s_scope )
{
    ring_buffer<int> q( 4 );
    q.push( 5, raft::eos );
    q.push( 6 );
    {
        auto a = q.pop_s();
        EXPECT_EQ( *a, 5 );
        EXPECT_EQ( a.sig(), raft::eos );
        EXPECT_EQ( q.size(), 2u ); /** not consumed while held **/
    }
    EXPECT_EQ( q.size(), 1u ); /** consumed at scope exit **/
}

TEST( ringbuffer, allocate_s_scope_publishes )
{
    ring_buffer<int> q( 4 );
    {
        auto w = q.allocate_s();
        *w     = 9;
        EXPECT_EQ( q.size(), 0u ); /** not visible while held **/
    }
    EXPECT_EQ( q.size(), 1u );
    int v = 0;
    q.pop( v );
    EXPECT_EQ( v, 9 );
}

TEST( ringbuffer, peek_range_window_spans_wrap )
{
    ring_buffer<int> q( 4 );
    /** advance head so the window wraps the ring edge **/
    q.push( 0 );
    q.push( 1 );
    int v = 0;
    q.pop( v );
    q.pop( v );
    q.push( 10 );
    q.push( 11 );
    q.push( 12 );
    q.push( 13 );
    {
        auto w = q.peek_range( 4 );
        ASSERT_EQ( w.size(), 4u );
        EXPECT_EQ( w[ 0 ], 10 );
        EXPECT_EQ( w[ 1 ], 11 );
        EXPECT_EQ( w[ 2 ], 12 );
        EXPECT_EQ( w[ 3 ], 13 );
    } /** window released **/
    EXPECT_EQ( q.size(), 4u ); /** peeking pops nothing **/
    q.recycle( 2 );            /** slide **/
    auto w2 = q.peek_range( 2 );
    EXPECT_EQ( w2[ 0 ], 12 );
}

TEST( ringbuffer, peek_range_overflow_without_monitor_throws )
{
    ring_buffer<int> q( 4 );
    q.set_auto_resize( false );
    EXPECT_THROW( (void) q.peek_range( 64 ),
                  raft::demand_exceeds_capacity_exception );
}

TEST( ringbuffer, peek_range_unsatisfiable_after_close_throws )
{
    ring_buffer<int> q( 8 );
    q.push( 1 );
    q.close_write();
    EXPECT_THROW( (void) q.peek_range( 3 ),
                  raft::closed_port_exception );
}

TEST( ringbuffer, resize_preserves_content_and_counters )
{
    ring_buffer<int> q( 4 );
    q.push( 1 );
    q.push( 2 );
    int v = 0;
    q.pop( v );
    q.push( 3 );
    q.push( 4 );
    q.push( 5 ); /** ring wrapped **/
    const auto pushed_before = q.total_pushed();
    ASSERT_TRUE( q.resize( 16 ) );
    EXPECT_EQ( q.capacity(), 16u );
    EXPECT_EQ( q.size(), 4u );
    EXPECT_EQ( q.total_pushed(), pushed_before );
    EXPECT_EQ( q.resize_count(), 1u );
    for( int want : { 2, 3, 4, 5 } )
    {
        q.pop( v );
        EXPECT_EQ( v, want );
    }
    EXPECT_EQ( q.total_popped(), 5u );
}

TEST( ringbuffer, resize_cannot_shrink_below_occupancy )
{
    ring_buffer<int> q( 8 );
    for( int i = 0; i < 6; ++i )
    {
        q.push( i );
    }
    EXPECT_FALSE( q.resize( 4 ) );
    EXPECT_EQ( q.capacity(), 8u );
    q.recycle( 4 );
    EXPECT_TRUE( q.resize( 2 ) );
    EXPECT_EQ( q.capacity(), 2u );
    int v = 0;
    q.pop( v );
    EXPECT_EQ( v, 4 );
}

TEST( ringbuffer, resize_with_nontrivial_type )
{
    ring_buffer<std::string> q( 2 );
    q.push( std::string( "first-very-long-string-beyond-sso" ) );
    q.push( std::string( "second-very-long-string-beyond-sso" ) );
    ASSERT_TRUE( q.resize( 8 ) );
    std::string v;
    q.pop( v );
    EXPECT_EQ( v, "first-very-long-string-beyond-sso" );
    q.pop( v );
    EXPECT_EQ( v, "second-very-long-string-beyond-sso" );
}

TEST( ringbuffer, move_only_elements )
{
    ring_buffer<std::unique_ptr<int>> q( 4 );
    q.push( std::make_unique<int>( 11 ) );
    std::unique_ptr<int> p;
    q.pop( p );
    ASSERT_TRUE( p );
    EXPECT_EQ( *p, 11 );
}

TEST( ringbuffer, destructor_destroys_remaining_elements )
{
    auto counter = std::make_shared<int>( 0 );
    struct tracked
    {
        std::shared_ptr<int> c;
        ~tracked()
        {
            if( c )
            {
                ++( *c );
            }
        }
    };
    {
        ring_buffer<tracked> q( 4 );
        q.push( tracked{ counter } );
        q.push( tracked{ counter } );
        *counter = 0; /** ignore temporaries' destructions **/
    }
    EXPECT_EQ( *counter, 2 );
}

TEST( ringbuffer, transfer_to_moves_element_and_signal )
{
    ring_buffer<int> a( 4 ), b( 4 );
    a.push( 99, raft::eos );
    EXPECT_TRUE( a.try_transfer_to( b ) );
    EXPECT_EQ( a.size(), 0u );
    int v          = 0;
    raft::signal s = raft::none;
    b.pop( v, &s );
    EXPECT_EQ( v, 99 );
    EXPECT_EQ( s, raft::eos );
}

TEST( ringbuffer, transfer_to_type_mismatch_refused )
{
    ring_buffer<int> a( 4 );
    ring_buffer<double> b( 4 );
    a.push( 1 );
    EXPECT_FALSE( a.try_transfer_to( b ) );
    EXPECT_EQ( a.size(), 1u );
}

TEST( ringbuffer, transfer_to_full_destination_refused )
{
    ring_buffer<int> a( 4 ), b( 2 );
    a.push( 1 );
    ASSERT_TRUE( b.try_push( 8 ) );
    ASSERT_TRUE( b.try_push( 9 ) );
    EXPECT_FALSE( a.try_transfer_to( b ) );
    EXPECT_EQ( a.size(), 1u );
}

TEST( ringbuffer, arithmetic_raw_access )
{
    ring_buffer<std::int32_t> q( 4 );
    q.push( 41, raft::eos );
    double d       = 0.0;
    raft::signal s = raft::none;
    EXPECT_TRUE( q.try_pop_as_double( d, s ) );
    EXPECT_DOUBLE_EQ( d, 41.0 );
    EXPECT_EQ( s, raft::eos );
    EXPECT_FALSE( q.try_pop_as_double( d, s ) ); /** empty **/

    ring_buffer<float> f( 4 );
    EXPECT_TRUE( f.try_push_from_double( 2.5, raft::none ) );
    float v = 0.0f;
    f.pop( v );
    EXPECT_FLOAT_EQ( v, 2.5f );
}

TEST( ringbuffer, raw_access_refused_for_non_arithmetic )
{
    ring_buffer<std::string> q( 4 );
    q.push( std::string( "x" ) );
    double d       = 0.0;
    raft::signal s = raft::none;
    EXPECT_FALSE( q.try_pop_as_double( d, s ) );
    EXPECT_FALSE( q.try_push_from_double( 1.0, raft::none ) );
}

TEST( ringbuffer, value_type_and_element_size )
{
    ring_buffer<double> q( 4 );
    EXPECT_TRUE( q.value_type() == typeid( double ) );
    EXPECT_EQ( q.element_size(), sizeof( double ) );
}

TEST( ringbuffer, blocked_writer_timestamp_set_and_cleared )
{
    ring_buffer<int> q( 2 );
    q.push( 1 );
    q.push( 2 );
    EXPECT_EQ( q.write_blocked_since(), 0 );
    std::thread writer( [ & ]() { q.push( 3 ); } );
    /** wait for the writer to note the stall **/
    while( q.write_blocked_since() == 0 )
    {
        std::this_thread::yield();
    }
    int v = 0;
    q.pop( v );
    writer.join();
    EXPECT_EQ( q.write_blocked_since(), 0 ); /** cleared on success **/
    EXPECT_EQ( q.size(), 2u );
}

namespace {

/** An element whose copy construction, move construction or move
 *  assignment throws on demand. The budgets count the operations left
 *  before one throws; a negative budget never throws. */
struct flaky
{
    static inline bool fail_copy   = false;
    static inline int move_budget   = -1;
    static inline int assign_budget = -1;

    int v{ 0 };

    static void spend( int &budget, const char *what )
    {
        if( budget == 0 )
        {
            throw std::runtime_error( what );
        }
        if( budget > 0 )
        {
            --budget;
        }
    }

    flaky() = default;
    explicit flaky( const int x ) : v( x ) {}
    flaky( const flaky &o ) : v( o.v )
    {
        if( fail_copy )
        {
            throw std::runtime_error( "copy" );
        }
    }
    flaky( flaky &&o ) : v( o.v ) { spend( move_budget, "move" ); }
    flaky &operator=( const flaky & ) = default;
    flaky &operator=( flaky &&o )
    {
        spend( assign_budget, "move-assign" );
        v = o.v;
        return *this;
    }
};

} /** end anonymous namespace **/

/** A throwing element constructor or assignment must release the end's
 *  handshake (else resize() can never park that end again) and commit
 *  exactly the elements it completed. */
TEST( ringbuffer, throwing_element_releases_claim )
{
    ring_buffer<flaky> q( 8 );
    q.set_auto_resize( true );
    q.push( flaky( 1 ) );

    /** scalar push: the copy throws, nothing is published **/
    const flaky two( 2 );
    flaky::fail_copy = true;
    EXPECT_THROW( q.push( two ), std::runtime_error );
    flaky::fail_copy = false;
    EXPECT_TRUE( q.resize( 16 ) );
    ASSERT_EQ( q.size(), 1u );
    EXPECT_EQ( q.total_pushed(), 1u );
    q.push( two );

    /** scalar pop: the move-assign throws, the element stays queued **/
    flaky out;
    flaky::assign_budget = 0;
    EXPECT_THROW( q.pop( out ), std::runtime_error );
    flaky::assign_budget = -1;
    EXPECT_TRUE( q.resize( 32 ) );
    ASSERT_EQ( q.size(), 2u );
    EXPECT_EQ( q.total_popped(), 0u );

    /** bulk push: the third move throws, the two built are published **/
    flaky src[ 4 ] = { flaky( 3 ), flaky( 4 ), flaky( 5 ), flaky( 6 ) };
    flaky::move_budget = 2;
    EXPECT_THROW( q.try_push_n( src, 4 ), std::runtime_error );
    flaky::move_budget = -1;
    EXPECT_TRUE( q.resize( 64 ) );
    ASSERT_EQ( q.size(), 4u );
    EXPECT_EQ( q.total_pushed(), 4u );

    /** bulk pop: the second move-assign throws, the first is consumed **/
    flaky dst[ 3 ];
    flaky::assign_budget = 1;
    EXPECT_THROW( q.try_pop_n( dst, 3 ), std::runtime_error );
    flaky::assign_budget = -1;
    EXPECT_EQ( dst[ 0 ].v, 1 );
    EXPECT_TRUE( q.resize( 8 ) );
    ASSERT_EQ( q.size(), 3u );
    EXPECT_EQ( q.total_popped(), 1u );

    /** FIFO order holds over what was committed **/
    for( const int want : { 2, 3, 4 } )
    {
        q.pop( out );
        EXPECT_EQ( out.v, want );
    }
    ASSERT_EQ( q.size(), 0u );
}

/** parameterized geometry sweep: push/pop integrity across capacities **/
class ringbuffer_geometry
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P( ringbuffer_geometry, integrity_under_interleaving )
{
    const auto cap = GetParam();
    ring_buffer<std::uint64_t> q( cap );
    std::uint64_t pushed = 0, popped = 0;
    const std::uint64_t total = 1000;
    while( popped < total )
    {
        while( pushed < total && q.try_push( pushed + 0 ) )
        {
            ++pushed;
        }
        std::uint64_t v = 0;
        while( q.try_pop( v ) )
        {
            EXPECT_EQ( v, popped );
            ++popped;
        }
    }
    EXPECT_EQ( q.total_pushed(), total );
    EXPECT_EQ( q.total_popped(), total );
}

INSTANTIATE_TEST_SUITE_P( geometries, ringbuffer_geometry,
                          ::testing::Values( 2, 4, 8, 16, 64, 256,
                                             1024 ) );
