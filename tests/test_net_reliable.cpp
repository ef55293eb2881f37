/**
 * Network robustness: EINTR-safe socket I/O, connect retry with backoff,
 * heartbeat frames in the scalar codec, rejection of signal bytes that
 * name no raft::signal, a seeded mutation check of the frame scanner, and
 * the reliable (sequence-numbered, reconnecting) TCP kernels —
 * exactly-once delivery across a link killed mid-stream by the
 * fault-injection harness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include <net/codec.hpp>
#include <net/reliable.hpp>
#include <net/socket.hpp>
#include <net/tcp_kernels.hpp>
#include <raft.hpp>

using namespace std::chrono_literals;
using i64 = std::int64_t;

/* ------------------------------------------------------------------ */
/* EINTR                                                                */
/* ------------------------------------------------------------------ */

namespace {
extern "C" void noop_handler( int ) {}
} /** end anonymous namespace **/

TEST( net_robust, recv_and_send_survive_eintr )
{
    /** install a non-restarting handler so blocking syscalls really do
     *  return EINTR **/
    struct sigaction sa{};
    struct sigaction old{};
    sa.sa_handler = noop_handler;
    sa.sa_flags   = 0; /** no SA_RESTART **/
    ASSERT_EQ( sigaction( SIGUSR1, &sa, &old ), 0 );

    raft::net::tcp_listener server( 0 );
    auto client =
        raft::net::tcp_connection::connect( "127.0.0.1", server.port() );
    auto conn = server.accept();

    std::vector<char> payload( 1 << 20, 'x' );
    std::vector<char> rx( payload.size() );
    std::atomic<bool> ok{ false };
    std::thread receiver( [ & ]() {
        ok.store( conn.recv_all( rx.data(), rx.size() ) );
    } );
    /** hammer the blocked receiver with signals while data trickles in **/
    for( int i = 0; i < 50; ++i )
    {
        pthread_kill( receiver.native_handle(), SIGUSR1 );
        std::this_thread::sleep_for( 1ms );
        if( i % 10 == 0 )
        {
            client.send_all( payload.data() + ( i / 10 ) * 1000, 1000 );
        }
    }
    client.send_all( payload.data() + 5000, payload.size() - 5000 );
    receiver.join();
    EXPECT_TRUE( ok.load() );
    EXPECT_EQ( rx.back(), 'x' );

    sigaction( SIGUSR1, &old, nullptr );
}

/* ------------------------------------------------------------------ */
/* connect retry                                                        */
/* ------------------------------------------------------------------ */

TEST( net_robust, connect_retries_until_listener_appears )
{
    /** find a free port, leave it dark, bring the listener up late: the
     *  retrying connect must bridge the gap **/
    std::uint16_t port;
    {
        raft::net::tcp_listener probe( 0 );
        port = probe.port();
    }
    std::atomic<bool> connected{ false };
    std::thread dialer( [ & ]() {
        raft::net::connect_options co;
        co.max_attempts    = 50;
        co.initial_backoff = 10ms;
        co.max_backoff     = 50ms;
        auto c = raft::net::tcp_connection::connect( "127.0.0.1", port,
                                                     co );
        connected.store( c.valid() );
    } );
    std::this_thread::sleep_for( 150ms );
    raft::net::tcp_listener late( port );
    auto conn = late.accept();
    dialer.join();
    EXPECT_TRUE( connected.load() );
}

TEST( net_robust, connect_retry_exhaustion_throws )
{
    std::uint16_t dead_port;
    {
        raft::net::tcp_listener probe( 0 );
        dead_port = probe.port();
    }
    raft::net::connect_options co;
    co.max_attempts    = 3;
    co.initial_backoff = 1ms;
    EXPECT_THROW( raft::net::tcp_connection::connect( "127.0.0.1",
                                                      dead_port, co ),
                  raft::net_exception );
}

/* ------------------------------------------------------------------ */
/* heartbeat frames                                                     */
/* ------------------------------------------------------------------ */

TEST( net_robust, scanner_skips_heartbeats )
{
    std::vector<std::uint8_t> wire;
    wire.push_back( raft::net::scalar_heartbeat_frame );
    const i64 a = 7, b = 9;
    raft::net::append_scalar_frame( wire, 0, &a, sizeof( a ) );
    wire.push_back( raft::net::scalar_heartbeat_frame );
    wire.push_back( raft::net::scalar_heartbeat_frame );
    raft::net::append_scalar_frame( wire, 0, &b, sizeof( b ) );
    wire.push_back( raft::net::scalar_eof_frame );

    const auto scan = raft::net::scan_scalar_frames(
        wire.data(), wire.size(), sizeof( i64 ) );
    EXPECT_EQ( scan.frames, 2u );
    EXPECT_TRUE( scan.eof );
    EXPECT_EQ( scan.consumed, wire.size() );

    const auto packed = raft::net::compact_scalar_frames(
        wire.data(), wire.size(), sizeof( i64 ) );
    EXPECT_EQ( packed, 2 * ( 1 + sizeof( i64 ) ) + 1 );
    i64 va = 0, vb = 0;
    std::memcpy( &va, wire.data() + 1, sizeof( va ) );
    std::memcpy( &vb, wire.data() + 2 + sizeof( i64 ), sizeof( vb ) );
    EXPECT_EQ( va, 7 );
    EXPECT_EQ( vb, 9 );
}

TEST( net_robust, tcp_source_tolerates_heartbeats )
{
    raft::net::tcp_listener listener( 0 );
    const auto port = listener.port();

    std::vector<i64> received;
    std::thread node_b( [ & ]() {
        auto conn = listener.accept();
        raft::map m;
        m.link( raft::kernel::make<raft::net::tcp_source<i64>>(
                    std::move( conn ) ),
                raft::kernel::make<raft::write_each<i64>>(
                    std::back_inserter( received ) ) );
        m.exe();
    } );

    auto conn =
        raft::net::tcp_connection::connect( "127.0.0.1", port );
    /** handcrafted wire: keep-alives interleaved with real elements **/
    std::vector<std::uint8_t> wire;
    for( i64 v = 0; v < 100; ++v )
    {
        wire.push_back( raft::net::scalar_heartbeat_frame );
        raft::net::append_scalar_frame( wire, 0, &v, sizeof( v ) );
    }
    wire.push_back( raft::net::scalar_eof_frame );
    conn.send_all( wire.data(), wire.size() );
    conn.shutdown_write();
    node_b.join();

    ASSERT_EQ( received.size(), 100u );
    for( i64 v = 0; v < 100; ++v )
    {
        EXPECT_EQ( received[ static_cast<std::size_t>( v ) ], v );
    }
}

TEST( net_robust, tcp_source_rejects_unknown_signal_byte )
{
    raft::net::tcp_listener listener( 0 );
    const auto port = listener.port();

    std::vector<i64> received;
    bool threw = false;
    std::string what;
    std::chrono::steady_clock::duration took{};
    std::thread node_b( [ & ]() {
        auto conn = listener.accept();
        raft::map m;
        m.link( raft::kernel::make<raft::net::tcp_source<i64>>(
                    std::move( conn ) ),
                raft::kernel::make<raft::write_each<i64>>(
                    std::back_inserter( received ) ) );
        const auto t0 = std::chrono::steady_clock::now();
        try
        {
            m.exe();
        }
        catch( const raft::graph_error &e )
        {
            threw = true;
            what  = e.what();
        }
        took = std::chrono::steady_clock::now() - t0;
    } );

    auto conn =
        raft::net::tcp_connection::connect( "127.0.0.1", port );
    /** one well-formed frame, then one whose signal byte names no
     *  raft::signal, then a clean end of stream **/
    std::vector<std::uint8_t> wire;
    const i64 good = 1, bad = 2;
    raft::net::append_scalar_frame( wire, raft::none, &good,
                                    sizeof( good ) );
    raft::net::append_scalar_frame( wire, 0x42, &bad, sizeof( bad ) );
    wire.push_back( raft::net::scalar_eof_frame );
    conn.send_all( wire.data(), wire.size() );
    conn.shutdown_write();
    node_b.join();

    EXPECT_TRUE( threw ) << "a frame with signal byte 0x42 was delivered";
    EXPECT_NE( what.find( "signal byte 66" ), std::string::npos ) << what;
    EXPECT_LT( took, std::chrono::seconds( 5 ) );
    EXPECT_EQ( std::count( received.begin(), received.end(), bad ), 0 );
}

namespace {

/** The data frames of wire[0..n) in order, walked the way the scalar
 *  frame format defines them: heartbeats skipped, stop at EOF or at a
 *  partial trailing frame. */
std::vector<std::vector<std::uint8_t>>
reference_frames( const std::uint8_t *wire, const std::size_t n,
                  const std::size_t payload, bool &eof )
{
    std::vector<std::vector<std::uint8_t>> out;
    eof = false;
    std::size_t at = 0;
    while( at < n )
    {
        if( wire[ at ] == raft::net::scalar_eof_frame )
        {
            eof = true;
            break;
        }
        if( wire[ at ] == raft::net::scalar_heartbeat_frame )
        {
            ++at;
            continue;
        }
        if( n - at < 1 + payload )
        {
            break;
        }
        out.emplace_back( wire + at, wire + at + 1 + payload );
        at += 1 + payload;
    }
    return out;
}

} /** end anonymous namespace **/

TEST( net_robust, frame_scanner_survives_mutation )
{
    for( const std::uint32_t seed : { 1u, 2u, 3u, 4u } )
    {
        std::mt19937 rng( seed );
        auto below = [ &rng ]( const std::size_t k ) {
            return std::uniform_int_distribution<std::size_t>( 0, k - 1 )(
                rng );
        };
        for( int c = 0; c < 500; ++c )
        {
            const std::size_t payload = 1 + below( 16 );
            std::vector<std::uint8_t> wire;
            const auto frames = below( 40 );
            for( std::size_t f = 0; f < frames; ++f )
            {
                for( auto h = below( 3 ); h > 0; --h )
                {
                    wire.push_back( raft::net::scalar_heartbeat_frame );
                }
                wire.push_back( static_cast<std::uint8_t>( below( 4 ) ) );
                for( std::size_t b = 0; b < payload; ++b )
                {
                    wire.push_back( static_cast<std::uint8_t>( below( 256 ) ) );
                }
            }
            if( below( 2 ) == 0 )
            {
                wire.push_back( raft::net::scalar_eof_frame );
            }
            /** truncate at a random point, then flip random bytes **/
            wire.resize( below( wire.size() + 1 ) );
            for( auto k = wire.empty() ? 0 : below( 5 ); k > 0; --k )
            {
                wire[ below( wire.size() ) ] ^=
                    static_cast<std::uint8_t>( 1 + below( 255 ) );
            }
            SCOPED_TRACE( "seed " + std::to_string( seed ) + " case " +
                          std::to_string( c ) );

            const auto n    = wire.size();
            const auto scan = raft::net::scan_scalar_frames(
                wire.data(), n, payload );
            ASSERT_LE( scan.consumed, n );
            bool ref_eof   = false;
            const auto ref = reference_frames( wire.data(), n, payload,
                                               ref_eof );
            ASSERT_EQ( scan.frames, ref.size() );
            ASSERT_EQ( scan.eof, ref_eof );

            const auto packed = raft::net::compact_scalar_frames(
                wire.data(), n, payload );
            ASSERT_LE( packed, n );
            const auto again = raft::net::scan_scalar_frames(
                wire.data(), packed, payload );
            ASSERT_EQ( again.frames, scan.frames );
            ASSERT_EQ( again.eof, scan.eof );
            /** frame i now starts at i * (1 + payload), as tcp_source
             *  reads it **/
            for( std::size_t i = 0; i < ref.size(); ++i )
            {
                const auto *at = wire.data() + i * ( 1 + payload );
                ASSERT_TRUE(
                    std::equal( ref[ i ].begin(), ref[ i ].end(), at ) )
                    << "frame " << i;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* reliable TCP kernels                                                 */
/* ------------------------------------------------------------------ */

namespace {

/** Run generate(count) → reliable sink ⇢ reliable source → collect and
 *  return what arrived. */
std::vector<i64> reliable_roundtrip( const std::size_t count,
                                     const std::string &link_name )
{
    auto *src_k =
        raft::kernel::make<raft::net::reliable_tcp_source<i64>>();
    const auto port = src_k->port();

    std::vector<i64> received;
    std::thread node_b( [ & ]() {
        raft::map m;
        m.link( src_k, raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( received ) ) );
        m.exe();
    } );

    raft::map m;
    m.link( raft::kernel::make<raft::generate<i64>>(
                count, []( std::size_t i ) { return i64( i ); } ),
            raft::kernel::make<raft::net::reliable_tcp_sink<i64>>(
                "127.0.0.1", port,
                raft::net::connect_options::retry( 10 ), link_name ) );
    m.exe();
    node_b.join();
    return received;
}

void expect_exactly_once( const std::vector<i64> &received,
                          const std::size_t count )
{
    ASSERT_EQ( received.size(), count );
    for( std::size_t i = 0; i < count; ++i )
    {
        ASSERT_EQ( received[ i ], static_cast<i64>( i ) )
            << "element " << i << " lost, duplicated or reordered";
    }
}

} /** end anonymous namespace **/

TEST( net_reliable, exactly_once_clean_link )
{
    const std::size_t count = 20000;
    expect_exactly_once( reliable_roundtrip( count, "clean" ), count );
}

TEST( net_reliable, exactly_once_across_killed_link )
{
    /** the harness kills the sender's live socket mid-stream; the sink
     *  must reconnect, replay, and the receiver must dedup — no element
     *  lost, duplicated or reordered **/
    raft::runtime::inject::enable( 7 );
    raft::runtime::inject::plan p;
    p.site  = "net.link";
    p.match = "chaos";
    p.act   = raft::runtime::inject::action::kill_link;
    p.after = 20; /** let ~20 transmit batches through first **/
    p.count = 1;
    raft::runtime::inject::arm( p );

    const std::size_t count = 50000;
    const auto received     = reliable_roundtrip( count, "chaos" );
    EXPECT_EQ( raft::runtime::inject::fired( "net.link" ), 1u );
    raft::runtime::inject::disable();
    expect_exactly_once( received, count );
}

TEST( net_reliable, repeated_kills_still_exactly_once )
{
    raft::runtime::inject::enable( 11 );
    raft::runtime::inject::plan p;
    p.site  = "net.link";
    p.match = "storm";
    p.act   = raft::runtime::inject::action::kill_link;
    p.after = 5;
    p.count = 3; /** three separate partitions over one stream **/
    raft::runtime::inject::arm( p );

    const std::size_t count = 30000;
    const auto received     = reliable_roundtrip( count, "storm" );
    EXPECT_EQ( raft::runtime::inject::fired( "net.link" ), 3u );
    raft::runtime::inject::disable();
    expect_exactly_once( received, count );
}
