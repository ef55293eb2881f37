/**
 * Link data compression (§4.2 future work): RLE and delta/varint codec
 * roundtrips (including fuzzed inputs and malformed-stream rejection),
 * plus the compressed TCP kernels end to end across two maps.
 */
#include <gtest/gtest.h>

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

TEST( varint, roundtrip_boundaries )
{
    for( const std::uint64_t v :
         { 0ull, 1ull, 127ull, 128ull, 16'383ull, 16'384ull,
           ~0ull } )
    {
        std::vector<std::uint8_t> buf;
        put_varint( buf, v );
        std::uint64_t out = 0;
        const auto *end =
            get_varint( buf.data(), buf.data() + buf.size(), out );
        EXPECT_EQ( out, v );
        EXPECT_EQ( end, buf.data() + buf.size() );
    }
}

TEST( varint, truncation_rejected )
{
    std::vector<std::uint8_t> buf;
    put_varint( buf, 1u << 20 );
    std::uint64_t out = 0;
    EXPECT_THROW(
        get_varint( buf.data(), buf.data() + buf.size() - 1, out ),
        raft::net_exception );
}

TEST( zigzag, symmetric )
{
    for( const std::int64_t v :
         { 0ll, 1ll, -1ll, 63ll, -64ll, 1'000'000ll, -1'000'000ll } )
    {
        EXPECT_EQ( zigzag_decode( zigzag_encode( v ) ), v );
    }
}

TEST( delta_codec, near_sequential_values_compress )
{
    std::vector<std::int64_t> values;
    for( std::int64_t i = 0; i < 5000; ++i )
    {
        values.push_back( 1'000'000 + i * 3 );
    }
    const auto packed =
        delta_compress( values.data(), values.size() );
    /** 8-byte values become ~1-byte deltas **/
    EXPECT_LT( packed.size(), values.size() * 2 );
    const auto back = delta_decompress<std::int64_t>(
        packed.data(), packed.size(), values.size() );
    EXPECT_EQ( back, values );
}

TEST( delta_codec, fuzz_roundtrip_random_values )
{
    std::mt19937_64 eng( 5 );
    std::uniform_int_distribution<std::int64_t> val(
        std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max() );
    std::vector<std::int64_t> values( 777 );
    for( auto &v : values )
    {
        v = val( eng );
    }
    const auto packed =
        delta_compress( values.data(), values.size() );
    EXPECT_EQ( delta_decompress<std::int64_t>(
                   packed.data(), packed.size(), values.size() ),
               values );
}

TEST( delta_codec, oversize_claim_rejected )
{
    std::vector<std::int64_t> values( 100, 7 );
    const auto packed =
        delta_compress( values.data(), values.size() );
    EXPECT_THROW( delta_decompress<std::int64_t>( packed.data(),
                                                  packed.size(), 50 ),
                  raft::net_exception );
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
        m.link( raft::kernel::make<tcp_source_compressed<i64>>(
                    std::move( conn ) ),
                raft::kernel::make<sig_tail>( &received, &last_sig ) );
        m.exe();
    } );

    raft::map m;
    auto conn = tcp_connection::connect( "127.0.0.1",
                                         listener.port() );
    m.link( raft::kernel::make<raft::generate<i64>>(
                count, []( std::size_t i ) { return i64( i / 7 ); } ),
            raft::kernel::make<tcp_sink_compressed<i64>>(
                std::move( conn ), 128 ) );
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
        m.link( raft::kernel::make<tcp_source_compressed<i64>>(
                    std::move( conn ) ),
                raft::kernel::make<raft::write_each<i64>>(
                    std::back_inserter( received ) ) );
        m.exe();
    } );
    raft::map m;
    auto conn = tcp_connection::connect( "127.0.0.1",
                                         listener.port() );
    /** 10 elements with batch 256: everything rides the EOF flush **/
    m.link( raft::kernel::make<raft::generate<i64>>(
                10, []( std::size_t i ) { return i64( i ); } ),
            raft::kernel::make<tcp_sink_compressed<i64>>(
                std::move( conn ), 256 ) );
    m.exe();
    consumer.join();
    EXPECT_EQ( received,
               ( std::vector<i64>{ 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 } ) );
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
