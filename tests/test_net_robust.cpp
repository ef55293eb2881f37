/**
 * Network robustness: EINTR-safe socket I/O, and the TCP link's one
 * contract — it ends cleanly only on the end-of-stream frame, and any
 * other loss fails the graph. Covered: a signal byte that names no
 * raft::signal, a forged header (rejected before anything is allocated
 * for it), a peer that closes mid-stream, a link killed by the
 * fault-injection harness, and a seeded mutation check of the frame
 * decoder against a reference walk of the format.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>

#include <net/codec.hpp>
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
/* tcp_source against a hand-driven sender                              */
/* ------------------------------------------------------------------ */

namespace {

/** A frame of i64 values, every signal none unless sigs says otherwise. */
std::vector<std::uint8_t> frame_of( const std::vector<i64> &values,
                                    const bool compress,
                                    std::vector<std::uint8_t> sigs = {} )
{
    sigs.resize( values.size(), raft::none );
    std::vector<std::uint8_t> body( values.size() * sizeof( i64 ) );
    std::memcpy( body.data(), values.data(), body.size() );
    body.insert( body.end(), sigs.begin(), sigs.end() );
    std::vector<std::uint8_t> wire;
    raft::net::append_frame( wire, values.size(), body, compress );
    return wire;
}

std::vector<std::uint8_t> end_of_stream()
{
    std::vector<std::uint8_t> wire;
    raft::net::append_frame( wire, 0, {}, false );
    return wire;
}

struct source_run
{
    std::vector<i64> received;
    bool threw{ false };
    std::string what;
    std::chrono::steady_clock::duration took{};
};

/** Run tcp_source<i64> → write_each in its own map on node B while this
 *  thread sends `wire` to it. The sender closes right after the wire when
 *  close_after is set; otherwise it holds the link open until the map
 *  ends (or 5 s pass), so only the bytes sent can end the run. */
source_run feed_source( const std::vector<std::uint8_t> &wire,
                        const bool close_after )
{
    raft::net::tcp_listener listener( 0 );
    source_run r;
    std::atomic<bool> done{ false };
    std::thread node_b( [ & ]() {
        auto conn = listener.accept();
        raft::map m;
        m.link( raft::kernel::make<raft::net::tcp_source<i64>>(
                    std::move( conn ) ),
                raft::kernel::make<raft::write_each<i64>>(
                    std::back_inserter( r.received ) ) );
        const auto t0 = std::chrono::steady_clock::now();
        try
        {
            m.exe();
        }
        catch( const raft::graph_error &e )
        {
            r.threw = true;
            r.what  = e.what();
        }
        r.took = std::chrono::steady_clock::now() - t0;
        done.store( true );
    } );
    auto conn =
        raft::net::tcp_connection::connect( "127.0.0.1", listener.port() );
    conn.send_all( wire.data(), wire.size() );
    if( close_after )
    {
        conn.close();
    }
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while( !done.load() && std::chrono::steady_clock::now() < deadline )
    {
        std::this_thread::sleep_for( 1ms );
    }
    conn.close(); /** wakes a source still waiting, so the test ends **/
    node_b.join();
    return r;
}

} /** end anonymous namespace **/

TEST( net_robust, tcp_source_rejects_unknown_signal_byte )
{
    /** one well-formed frame, then one whose signal byte names no
     *  raft::signal, then a clean end of stream **/
    auto wire         = frame_of( { 1 }, false );
    const auto bad    = frame_of( { 2 }, false, { 0x42 } );
    const auto finish = end_of_stream();
    wire.insert( wire.end(), bad.begin(), bad.end() );
    wire.insert( wire.end(), finish.begin(), finish.end() );
    const auto r = feed_source( wire, true );

    EXPECT_TRUE( r.threw ) << "a frame with signal byte 0x42 was delivered";
    EXPECT_NE( r.what.find( "signal byte 66" ), std::string::npos )
        << r.what;
    EXPECT_LT( r.took, 5s );
    EXPECT_EQ( std::count( r.received.begin(), r.received.end(), 2 ), 0 );
}

TEST( net_robust, tcp_source_rejects_forged_header )
{
    /** [count][payload_bytes][codec] straight from a hostile peer: a
     *  payload far above the codec's bound for one element, and a count
     *  above wire_batch; then each bound missed by one (65 elements whose
     *  raw payload size is consistent, and one byte past RLE's 2× worst
     *  case for one i64). Each must fail before the source allocates for
     *  it or waits for the payload (the sender holds the link open). **/
    struct forged
    {
        std::uint32_t count, payload_bytes;
        raft::net::frame_codec codec;
    };
    constexpr std::uint32_t one = sizeof( i64 ) + 1;
    for( const auto f :
         { forged{ 1, 0xFFFFFFFFu, raft::net::frame_codec::rle },
           forged{ 1, 0xFFFFFFFFu, raft::net::frame_codec::raw },
           forged{ 0xFFFFFFFFu, 8, raft::net::frame_codec::raw },
           forged{ 65, 65 * one, raft::net::frame_codec::raw },
           forged{ 1, 2 * one + 1, raft::net::frame_codec::rle } } )
    {
        std::vector<std::uint8_t> wire( raft::net::frame_header_bytes );
        std::memcpy( wire.data(), &f.count, 4 );
        std::memcpy( wire.data() + 4, &f.payload_bytes, 4 );
        wire[ 8 ] = static_cast<std::uint8_t>( f.codec );
        const auto r = feed_source( wire, false );
        SCOPED_TRACE( "count " + std::to_string( f.count ) + " payload " +
                      std::to_string( f.payload_bytes ) );
        EXPECT_TRUE( r.threw );
        EXPECT_LT( r.took, 5s );
        EXPECT_TRUE( r.received.empty() );
    }
}

TEST( net_robust, tcp_source_fails_when_peer_closes_mid_stream )
{
    /** whole frames, then a close with no end-of-stream frame **/
    auto wire         = frame_of( { 1, 2, 3 }, false );
    const auto packed = frame_of( { 4, 4, 4 }, true );
    wire.insert( wire.end(), packed.begin(), packed.end() );
    const auto r = feed_source( wire, true );
    EXPECT_TRUE( r.threw ) << "a short stream looked like a clean end";
    EXPECT_NE( r.what.find( "end-of-stream" ), std::string::npos ) << r.what;
    EXPECT_LT( r.took, 5s );
    /** the failed graph may drop what it had not written out yet, but
     *  delivers nothing beyond what was sent **/
    const std::vector<i64> sent{ 1, 2, 3, 4, 4, 4 };
    ASSERT_LE( r.received.size(), sent.size() );
    EXPECT_TRUE( std::equal( r.received.begin(), r.received.end(),
                             sent.begin() ) );

    /** a close inside a frame's payload **/
    auto cut = frame_of( { 5, 6 }, false );
    cut.resize( cut.size() - 3 );
    const auto r2 = feed_source( cut, true );
    EXPECT_TRUE( r2.threw );
    EXPECT_LT( r2.took, 5s );
    EXPECT_TRUE( r2.received.empty() );
}

TEST( net_robust, killed_link_fails_both_maps )
{
    /** the harness kills the sender's socket partway through the stream:
     *  node A's send fails, node B sees the link end before the
     *  end-of-stream frame, and both graphs fail instead of node B
     *  finishing on a short stream **/
    raft::runtime::inject::enable( 7 );
    raft::runtime::inject::plan p;
    p.site  = "net.send";
    p.act   = raft::runtime::inject::action::kill_link;
    p.after = 20; /** let 20 frames through first **/
    p.count = 1;
    raft::runtime::inject::arm( p );

    raft::net::tcp_listener listener( 0 );
    std::vector<i64> received;
    bool b_threw = false;
    std::chrono::steady_clock::duration b_took{};
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
        catch( const raft::graph_error & )
        {
            b_threw = true;
        }
        b_took = std::chrono::steady_clock::now() - t0;
    } );

    const std::size_t count = 200'000;
    bool a_threw            = false;
    const auto t0           = std::chrono::steady_clock::now();
    {
        raft::map m;
        auto conn = raft::net::tcp_connection::connect( "127.0.0.1",
                                                        listener.port() );
        m.link( raft::kernel::make<raft::generate<i64>>(
                    count, []( std::size_t i ) { return i64( i ); } ),
                raft::kernel::make<raft::net::tcp_sink<i64>>(
                    std::move( conn ) ) );
        try
        {
            m.exe();
        }
        catch( const raft::graph_error & )
        {
            a_threw = true;
        }
    }
    const auto a_took = std::chrono::steady_clock::now() - t0;
    node_b.join();
    EXPECT_EQ( raft::runtime::inject::fired( "net.send" ), 1u );
    raft::runtime::inject::disable();

    EXPECT_TRUE( a_threw );
    EXPECT_TRUE( b_threw );
    EXPECT_LT( a_took, 5s );
    EXPECT_LT( b_took, 5s );
    EXPECT_LT( received.size(), count );
}

/* ------------------------------------------------------------------ */
/* seeded mutation of the frame decoder                                 */
/* ------------------------------------------------------------------ */

namespace {

/** What a byte stream holds, walked the way codec.hpp defines the
 *  format, independently of recv_frame: the decoded bodies, whether the
 *  end-of-stream frame was reached, and whether the walk hit a frame it
 *  must reject (a bound broken, a body that does not decode, a bad
 *  signal byte, or the bytes running out before end of stream). */
struct walk
{
    std::vector<std::vector<std::uint8_t>> bodies;
    bool eos{ false };
    bool rejected{ false };
};

walk reference_walk( const std::vector<std::uint8_t> &wire,
                     const std::size_t value_size )
{
    walk w;
    std::size_t at = 0;
    const auto left = [ & ]() { return wire.size() - at; };
    for( ;; )
    {
        if( left() < 9 )
        {
            w.rejected = true;
            return w;
        }
        std::uint32_t count = 0, bytes = 0;
        std::memcpy( &count, wire.data() + at, 4 );
        std::memcpy( &bytes, wire.data() + at + 4, 4 );
        const auto codec = wire[ at + 8 ];
        at += 9;
        const std::size_t body_bytes = std::size_t( count ) * ( value_size + 1 );
        const bool bounded =
            count <= 64 &&
            ( ( codec == 0 && bytes == body_bytes ) ||
              ( codec == 1 && bytes <= 2 * body_bytes ) );
        if( !bounded )
        {
            w.rejected = true;
            return w;
        }
        if( count == 0 )
        {
            w.eos = true;
            return w;
        }
        if( left() < bytes )
        {
            w.rejected = true;
            return w;
        }
        std::vector<std::uint8_t> body;
        if( codec == 0 )
        {
            body.assign( wire.begin() + at, wire.begin() + at + bytes );
        }
        else
        {
            for( std::size_t k = 0; k + 1 < bytes; k += 2 )
            {
                const auto run = wire[ at + k + 1 ];
                if( run == 0 )
                {
                    w.rejected = true;
                    return w;
                }
                body.insert( body.end(), run, wire[ at + k ] );
            }
            if( bytes % 2 != 0 || body.size() != body_bytes )
            {
                w.rejected = true;
                return w;
            }
        }
        at += bytes;
        for( std::size_t k = count * value_size; k < body_bytes; ++k )
        {
            if( body[ k ] > raft::term )
            {
                w.rejected = true;
                return w;
            }
        }
        w.bodies.push_back( std::move( body ) );
    }
}

/** The same bytes through recv_frame, the one receive loop tcp_source
 *  runs: fed through a socket pair whose far end closes after them. */
walk decode_with_recv_frame( const std::vector<std::uint8_t> &wire,
                             const std::size_t value_size )
{
    int fds[ 2 ];
    EXPECT_EQ( ::socketpair( AF_UNIX, SOCK_STREAM, 0, fds ), 0 );
    {
        raft::net::tcp_connection writer( fds[ 0 ] );
        writer.send_all( wire.data(), wire.size() );
    } /** closed: the reader sees EOF after the bytes **/
    raft::net::tcp_connection reader( fds[ 1 ] );
    walk w;
    std::vector<std::uint8_t> payload, body;
    try
    {
        while( raft::net::recv_frame( reader, value_size, payload, body ) !=
               0 )
        {
            w.bodies.push_back( body );
        }
        w.eos = true;
    }
    catch( const raft::net_exception & )
    {
        w.rejected = true;
    }
    return w;
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
        std::size_t clean = 0, rejected = 0;
        for( int c = 0; c < 500; ++c )
        {
            const std::size_t value_size = 1 + below( 16 );
            std::vector<std::uint8_t> wire;
            for( auto f = below( 6 ); f > 0; --f )
            {
                /** runs of few symbols, so RLE has something to do **/
                const auto count = 1 + below( 8 );
                const auto alphabet = below( 2 ) == 0 ? 3 : 256;
                std::vector<std::uint8_t> body( count * value_size );
                for( auto &b : body )
                {
                    b = static_cast<std::uint8_t>( below( alphabet ) );
                }
                for( std::size_t i = 0; i < count; ++i )
                {
                    body.push_back( static_cast<std::uint8_t>( below( 4 ) ) );
                }
                raft::net::append_frame( wire, count, body,
                                         below( 2 ) == 0 );
            }
            if( below( 2 ) == 0 )
            {
                raft::net::append_frame( wire, 0, {}, below( 2 ) == 0 );
            }
            /** truncate half the cases at a random point, then flip up
             *  to four random bytes **/
            if( below( 2 ) == 0 )
            {
                wire.resize( below( wire.size() + 1 ) );
            }
            for( auto k = wire.empty() ? 0 : below( 5 ); k > 0; --k )
            {
                wire[ below( wire.size() ) ] ^=
                    static_cast<std::uint8_t>( 1 + below( 255 ) );
            }
            SCOPED_TRACE( "seed " + std::to_string( seed ) + " case " +
                          std::to_string( c ) );

            const auto ref = reference_walk( wire, value_size );
            const auto got = decode_with_recv_frame( wire, value_size );
            ASSERT_EQ( got.bodies, ref.bodies );
            ASSERT_EQ( got.eos, ref.eos );
            ASSERT_EQ( got.rejected, ref.rejected );
            ++( ref.rejected ? rejected : clean );
        }
        /** the mutations reach both outcomes **/
        EXPECT_GT( clean, 0u ) << "seed " << seed;
        EXPECT_GT( rejected, 0u ) << "seed " << seed;
    }
}
