/**
 * Reference-model property test: random operation sequences applied to
 * ring_buffer<T> and to a trivially correct std::deque model must agree
 * on every observable (contents, sizes, counters, exceptions), across
 * seeds, capacities and interleaved resizes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

#include <core/ringbuffer.hpp>

namespace {

struct ref_model
{
    std::deque<std::pair<int, raft::signal>> q;
    std::size_t capacity;
    bool write_closed{ false };
    std::uint64_t pushed{ 0 }, popped{ 0 };

    std::size_t space() const { return capacity - q.size(); }
    void push( const int v, const raft::signal s )
    {
        q.emplace_back( v, s );
        ++pushed;
    }
    std::pair<int, raft::signal> pop()
    {
        const auto front = q.front();
        q.pop_front();
        ++popped;
        return front;
    }
};

raft::signal sig_of( const int v )
{
    return ( v % 3 == 0 ) ? raft::eos : raft::none;
}

} /** end anonymous namespace **/

class refmodel_fuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P( refmodel_fuzz, ring_buffer_matches_deque_model )
{
    std::mt19937_64 eng( GetParam() );
    /** 0-99: the scalar mix; 100-139: the bulk, window, accessor and
     *  transfer paths **/
    std::uniform_int_distribution<int> op_pick( 0, 139 );
    std::uniform_int_distribution<int> val_pick( -1000, 1000 );

    const std::size_t cap0 = 1u << ( 1 + ( GetParam() % 6 ) );
    raft::ring_buffer<int> rb( cap0 );
    ref_model ref;
    ref.capacity = rb.capacity();
    /** the destination of try_transfer_n, with its own model **/
    raft::ring_buffer<int> rb2( 8 );
    ref_model ref2;
    ref2.capacity = rb2.capacity();

    for( int step = 0; step < 4000; ++step )
    {
        const int op = op_pick( eng );
        if( op < 40 ) /** try_push **/
        {
            const int v        = val_pick( eng );
            const raft::signal s = sig_of( v );
            bool ref_ok = false;
            if( ref.q.size() < ref.capacity )
            {
                ref.q.emplace_back( v, s );
                ++ref.pushed;
                ref_ok = true;
            }
            EXPECT_EQ( rb.try_push( v + 0, s ), ref_ok ) << "step "
                                                         << step;
        }
        else if( op < 80 ) /** try_pop **/
        {
            int v          = 0;
            raft::signal s = raft::none;
            const bool got = rb.try_pop( v, &s );
            EXPECT_EQ( got, !ref.q.empty() ) << "step " << step;
            if( got )
            {
                EXPECT_EQ( v, ref.q.front().first );
                EXPECT_EQ( s, ref.q.front().second );
                ref.q.pop_front();
                ++ref.popped;
            }
        }
        else if( op < 85 ) /** peek **/
        {
            if( !ref.q.empty() )
            {
                raft::signal s = raft::none;
                EXPECT_EQ( rb.peek( &s ), ref.q.front().first );
                EXPECT_EQ( s, ref.q.front().second );
                rb.unpeek();
            }
        }
        else if( op < 90 ) /** recycle k **/
        {
            const auto k =
                std::min<std::size_t>( ref.q.size(), 1 + op % 3 );
            if( k > 0 )
            {
                rb.recycle( k );
                for( std::size_t i = 0; i < k; ++i )
                {
                    ref.q.pop_front();
                }
                ref.popped += k;
            }
        }
        else if( op < 96 ) /** resize **/
        {
            const std::size_t new_cap = 1u << ( 1 + ( op % 8 ) );
            const bool expect_ok = new_cap >= 2 &&
                                   raft::detail::pow2_ceil( new_cap ) >=
                                       ref.q.size();
            const bool ok = rb.resize( new_cap );
            EXPECT_EQ( ok, expect_ok ) << "step " << step;
            if( ok )
            {
                ref.capacity = rb.capacity();
            }
        }
        else if( op < 100 ) /** window peek over everything queued **/
        {
            const auto n = ref.q.size();
            if( n > 0 )
            {
                auto w = rb.peek_range( n );
                for( std::size_t i = 0; i < n; ++i )
                {
                    ASSERT_EQ( w[ i ], ref.q[ i ].first )
                        << "window idx " << i << " step " << step;
                }
            }
        }
        else if( op < 105 ) /** try_push_n **/
        {
            const std::size_t n = 1 + op % 5;
            int src[ 5 ];
            raft::signal sigs[ 5 ];
            for( std::size_t i = 0; i < n; ++i )
            {
                src[ i ]  = val_pick( eng );
                sigs[ i ] = sig_of( src[ i ] );
            }
            const auto k = std::min( n, ref.space() );
            ASSERT_EQ( rb.try_push_n( src, n, sigs ), k ) << "step " << step;
            for( std::size_t i = 0; i < k; ++i )
            {
                ref.push( src[ i ], sigs[ i ] );
            }
        }
        else if( op < 110 ) /** try_pop_n **/
        {
            const std::size_t n = 1 + op % 5;
            int dst[ 5 ];
            raft::signal sigs[ 5 ];
            const auto k = std::min( n, ref.q.size() );
            ASSERT_EQ( rb.try_pop_n( dst, n, sigs ), k ) << "step " << step;
            for( std::size_t i = 0; i < k; ++i )
            {
                const auto want = ref.pop();
                EXPECT_EQ( dst[ i ], want.first ) << "step " << step;
                EXPECT_EQ( sigs[ i ], want.second ) << "step " << step;
            }
        }
        else if( op < 115 ) /** write window, partial publish(k) **/
        {
            if( ref.space() > 0 )
            {
                const std::size_t n = 1 + op % 5;
                auto w = rb.write_window( n );
                ASSERT_EQ( w.size(), std::min( n, ref.space() ) );
                const auto k = static_cast<std::size_t>(
                    val_pick( eng ) + 1000 ) % ( w.size() + 1 );
                for( std::size_t i = 0; i < w.size(); ++i )
                {
                    w[ i ] = val_pick( eng );
                    w.set_signal( i, sig_of( w[ i ] ) );
                    if( i < k )
                    {
                        ref.push( w[ i ], sig_of( w[ i ] ) );
                    }
                }
                w.publish( k );
            }
        }
        else if( op < 120 ) /** read window, partial consume(k) **/
        {
            if( !ref.q.empty() )
            {
                const std::size_t n = 1 + op % 5;
                auto r = rb.read_window( n );
                ASSERT_EQ( r.size(), std::min( n, ref.q.size() ) );
                for( std::size_t i = 0; i < r.size(); ++i )
                {
                    EXPECT_EQ( r[ i ], ref.q[ i ].first ) << "step " << step;
                    EXPECT_EQ( r.sig( i ), ref.q[ i ].second );
                }
                const auto k = static_cast<std::size_t>(
                    val_pick( eng ) + 1000 ) % ( r.size() + 1 );
                r.consume( k );
                for( std::size_t i = 0; i < k; ++i )
                {
                    ref.pop();
                }
            }
        }
        else if( op < 125 ) /** allocate_s published, or abandoned **/
        {
            if( ref.space() > 0 )
            {
                const int v = val_pick( eng );
                if( op < 123 )
                {
                    auto a = rb.allocate_s();
                    *a     = v;
                    a.set_signal( sig_of( v ) );
                    ref.push( v, sig_of( v ) );
                }
                else
                {
                    *rb.claim_tail() = v;
                    rb.abandon_tail();
                }
            }
        }
        else if( op < 130 ) /** pop_s **/
        {
            if( !ref.q.empty() )
            {
                const auto want = ref.pop();
                auto a          = rb.pop_s();
                EXPECT_EQ( *a, want.first ) << "step " << step;
                EXPECT_EQ( a.sig(), want.second ) << "step " << step;
            }
        }
        else if( op < 136 ) /** try_transfer_n into the second ring **/
        {
            const std::size_t n = 1 + op % 6;
            const auto k =
                std::min( { n, ref.q.size(), ref2.space() } );
            ASSERT_EQ( rb.try_transfer_n( rb2, n ), k ) << "step " << step;
            for( std::size_t i = 0; i < k; ++i )
            {
                const auto moved = ref.pop();
                ref2.push( moved.first, moved.second );
            }
        }
        else /** drain part of the second ring **/
        {
            int dst[ 5 ];
            raft::signal sigs[ 5 ];
            const auto k = std::min<std::size_t>( 5, ref2.q.size() );
            ASSERT_EQ( rb2.try_pop_n( dst, 5, sigs ), k ) << "step " << step;
            for( std::size_t i = 0; i < k; ++i )
            {
                const auto want = ref2.pop();
                EXPECT_EQ( dst[ i ], want.first ) << "step " << step;
                EXPECT_EQ( sigs[ i ], want.second ) << "step " << step;
            }
        }

        /** invariants after every operation **/
        ASSERT_EQ( rb.size(), ref.q.size() );
        ASSERT_EQ( rb.total_pushed(), ref.pushed );
        ASSERT_EQ( rb.total_popped(), ref.popped );
        ASSERT_EQ( rb.capacity(), ref.capacity );
        ASSERT_EQ( rb2.size(), ref2.q.size() );
        ASSERT_EQ( rb2.total_pushed(), ref2.pushed );
        ASSERT_EQ( rb2.total_popped(), ref2.popped );
    }

    /** drain and verify the tail contents **/
    rb.close_write();
    while( !ref.q.empty() )
    {
        int v = 0;
        rb.pop( v );
        EXPECT_EQ( v, ref.q.front().first );
        ref.q.pop_front();
    }
    EXPECT_THROW( { int v; rb.pop( v ); },
                  raft::closed_port_exception );
}

INSTANTIATE_TEST_SUITE_P( seeds, refmodel_fuzz,
                          ::testing::Values( 1u, 2u, 3u, 5u, 8u, 13u,
                                             21u, 34u, 55u, 89u ) );
