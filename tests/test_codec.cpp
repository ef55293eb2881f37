/**
 * Link data compression (§4.2 future work): RLE codec roundtrips
 * (including fuzzed inputs and malformed-stream rejection), plus the TCP
 * kernels with compression on, end to end across two maps.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <random>
#include <thread>
#include <vector>

#include <net/codec.hpp>
#include <net/tcp_kernels.hpp>
#include <raft.hpp>

using namespace raft::net;

TEST( rle, roundtrip_simple )
{
    const std::vector<std::uint8_t> data{ 1, 1, 1, 1, 2, 3, 3, 0 };
    const auto packed = rle_compress( data.data(), data.size() );
    const auto back =
        rle_decompress( packed.data(), packed.size(), data.size() );
    EXPECT_EQ( back, data );
}

TEST( rle, long_runs_compress_well )
{
    std::vector<std::uint8_t> data( 10'000, 0x7F );
    const auto packed = rle_compress( data.data(), data.size() );
    EXPECT_LT( packed.size(), data.size() / 50 );
    EXPECT_EQ( rle_decompress( packed.data(), packed.size(),
                               data.size() ),
               data );
}

TEST( rle, empty_input )
{
    const auto packed = rle_compress( nullptr, 0 );
    EXPECT_TRUE( packed.empty() );
    EXPECT_TRUE( rle_decompress( packed.data(), 0, 0 ).empty() );
}

TEST( rle, worst_case_bounded_to_2x )
{
    std::vector<std::uint8_t> data( 1000 );
    for( std::size_t i = 0; i < data.size(); ++i )
    {
        data[ i ] = static_cast<std::uint8_t>( i );
    }
    const auto packed = rle_compress( data.data(), data.size() );
    EXPECT_LE( packed.size(), 2 * data.size() );
}

TEST( rle, malformed_streams_rejected )
{
    const std::uint8_t odd[ 3 ]  = { 1, 2, 3 };
    EXPECT_THROW( rle_decompress( odd, 3, 100 ),
                  raft::net_exception );
    const std::uint8_t zero[ 2 ] = { 1, 0 };
    EXPECT_THROW( rle_decompress( zero, 2, 100 ),
                  raft::net_exception );
    const std::uint8_t big[ 2 ] = { 1, 200 };
    EXPECT_THROW( rle_decompress( big, 2, 100 ),
                  raft::net_exception ); /** exceeds max_output **/
}

TEST( rle, fuzz_roundtrip )
{
    std::mt19937_64 eng( 99 );
    for( int trial = 0; trial < 50; ++trial )
    {
        std::uniform_int_distribution<int> len( 0, 2000 );
        std::uniform_int_distribution<int> byte( 0, 3 ); /** runs **/
        std::vector<std::uint8_t> data(
            static_cast<std::size_t>( len( eng ) ) );
        for( auto &b : data )
        {
            b = static_cast<std::uint8_t>( byte( eng ) );
        }
        const auto packed = rle_compress( data.data(), data.size() );
        EXPECT_EQ( rle_decompress( packed.data(), packed.size(),
                                   data.size() ),
                   data );
    }
}

TEST( compressed_tcp, stream_roundtrips_with_signals )
{
    using i64 = std::int64_t;
    const std::size_t count = 10'000;
    tcp_listener listener( 0 );

    std::vector<i64> received;
    raft::signal last_sig = raft::none;
    std::thread consumer( [ & ]() {
        auto conn = listener.accept();
        class sig_tail : public raft::kernel
        {
        public:
            std::vector<i64> *out;
            raft::signal *last;
            sig_tail( std::vector<i64> *o, raft::signal *l )
                : out( o ), last( l )
            {
                input.addPort<i64>( "0" );
            }
            raft::kstatus run() override
            {
                auto v = input[ "0" ].pop_s<i64>();
                out->push_back( *v );
                *last = v.sig();
                return raft::proceed;
            }
        };
        raft::map m;
        m.link( raft::kernel::make<tcp_source<i64>>( std::move( conn ) ),
                raft::kernel::make<sig_tail>( &received, &last_sig ) );
        m.exe();
    } );

    raft::map m;
    auto conn = tcp_connection::connect( "127.0.0.1",
                                         listener.port() );
    m.link( raft::kernel::make<raft::generate<i64>>(
                count, []( std::size_t i ) { return i64( i / 7 ); } ),
            raft::kernel::make<tcp_sink<i64>>( std::move( conn ), true ) );
    m.exe();
    consumer.join();

    ASSERT_EQ( received.size(), count );
    for( std::size_t i = 0; i < count; i += 211 )
    {
        EXPECT_EQ( received[ i ], i64( i / 7 ) );
    }
    EXPECT_EQ( last_sig, raft::eos ); /** in-band signal survived **/
}

TEST( compressed_tcp, partial_final_batch_flushed )
{
    using i64 = std::int64_t;
    tcp_listener listener( 0 );
    std::vector<i64> received;
    std::thread consumer( [ & ]() {
        auto conn = listener.accept();
        raft::map m;
        m.link( raft::kernel::make<tcp_source<i64>>( std::move( conn ) ),
                raft::kernel::make<raft::write_each<i64>>(
                    std::back_inserter( received ) ) );
        m.exe();
    } );
    raft::map m;
    auto conn = tcp_connection::connect( "127.0.0.1",
                                         listener.port() );
    /** fewer elements than one frame holds **/
    m.link( raft::kernel::make<raft::generate<i64>>(
                10, []( std::size_t i ) { return i64( i ); } ),
            raft::kernel::make<tcp_sink<i64>>( std::move( conn ), true ) );
    m.exe();
    consumer.join();
    EXPECT_EQ( received,
               ( std::vector<i64>{ 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 } ) );
}

TEST( compressed_tcp, sink_sends_rle_frames )
{
    /** read the sink's bytes raw: every frame must name the RLE codec,
     *  and a run of equal values must cost less than its raw body **/
    using i64 = std::int64_t;
    const std::size_t count = 1000;
    tcp_listener listener( 0 );
    std::vector<std::uint8_t> wire;
    std::thread consumer( [ & ]() {
        auto conn = listener.accept();
        std::uint8_t buf[ 4096 ];
        while( const auto k = conn.recv_some( buf, sizeof( buf ) ) )
        {
            wire.insert( wire.end(), buf, buf + k );
        }
    } );
    raft::map m;
    auto conn = tcp_connection::connect( "127.0.0.1", listener.port() );
    m.link( raft::kernel::make<raft::generate<i64>>(
                count, []( std::size_t ) { return i64( 7 ); } ),
            raft::kernel::make<tcp_sink<i64>>( std::move( conn ), true ) );
    m.exe();
    consumer.join();

    std::size_t at = 0, elements = 0;
    std::uint32_t n = 1;
    while( n != 0 )
    {
        ASSERT_LE( at + frame_header_bytes, wire.size() );
        std::uint32_t payload = 0;
        std::memcpy( &n, wire.data() + at, 4 );
        std::memcpy( &payload, wire.data() + at + 4, 4 );
        EXPECT_EQ( wire[ at + 8 ],
                   static_cast<std::uint8_t>( frame_codec::rle ) );
        at += frame_header_bytes + payload;
        elements += n;
    }
    EXPECT_EQ( at, wire.size() ); /** nothing after end of stream **/
    EXPECT_EQ( elements, count );
    EXPECT_LT( wire.size(), count * ( sizeof( i64 ) + 1 ) );
}

TEST( pool_batching, batched_dispatch_preserves_results )
{
    using i64 = std::int64_t;
    const std::size_t count = 4000;
    for( const std::size_t workers : { 1u, 2u, 3u } )
    {
        std::vector<i64> out;
        raft::map m;
        auto p = m.link(
            raft::kernel::make<raft::generate<i64>>(
                count, []( std::size_t i ) { return i64( i ); } ),
            raft::kernel::make<raft::lambdak<i64>>(
                1, 1, []( raft::Port &in, raft::Port &o ) {
                    auto v = in[ "0" ].pop_s<i64>();
                    o[ "0" ].push<i64>( *v + 1 );
                } ) );
        m.link( &( p.dst ), raft::kernel::make<raft::write_each<i64>>(
                                std::back_inserter( out ) ) );
        raft::run_options o;
        o.scheduler    = raft::scheduler_kind::pool;
        o.pool_threads = workers;
        m.exe( o );
        ASSERT_EQ( out.size(), count ) << workers << " workers";
        for( std::size_t i = 0; i < count; i += 101 )
        {
            EXPECT_EQ( out[ i ], i64( i + 1 ) );
        }
    }
}
