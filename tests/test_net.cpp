/**
 * The distributed substrate: raw socket wrappers, TCP stream kernels
 * (distributed sum across two maps on two "nodes"), and the oar status
 * mesh.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include <net/oar.hpp>
#include <net/socket.hpp>
#include <net/tcp_kernels.hpp>
#include <raft.hpp>

using namespace std::chrono_literals;

TEST( sockets, roundtrip_and_eof )
{
    raft::net::tcp_listener server( 0 );
    ASSERT_GT( server.port(), 0 );
    std::thread peer( [ & ]() {
        auto conn = server.accept();
        int v     = 0;
        ASSERT_TRUE( conn.recv_all( &v, sizeof( v ) ) );
        v *= 2;
        conn.send_all( &v, sizeof( v ) );
        /** destructor closes: client sees EOF **/
    } );
    auto client =
        raft::net::tcp_connection::connect( "127.0.0.1", server.port() );
    int v = 21;
    client.send_all( &v, sizeof( v ) );
    ASSERT_TRUE( client.recv_all( &v, sizeof( v ) ) );
    EXPECT_EQ( v, 42 );
    EXPECT_FALSE( client.recv_all( &v, sizeof( v ) ) ); /** clean EOF **/
    peer.join();
}

TEST( sockets, connect_refused_throws )
{
    /** a freshly closed ephemeral port refuses connections **/
    std::uint16_t dead_port;
    {
        raft::net::tcp_listener l( 0 );
        dead_port = l.port();
    }
    EXPECT_THROW(
        raft::net::tcp_connection::connect( "127.0.0.1", dead_port ),
        raft::net_exception );
}

TEST( tcp_kernels, stream_spans_two_maps )
{
    using i64 = std::int64_t;
    const std::size_t count = 3000;
    raft::net::tcp_listener listener( 0 );
    const auto port = listener.port();

    /** node B: tcp_source → collect; accepts the connection **/
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

    /** node A: generate ×2 → sum → tcp_sink; the SAME application code
     *  as the local version, with the print swapped for a network hop **/
    raft::map m;
    auto conn =
        raft::net::tcp_connection::connect( "127.0.0.1", port );
    auto linked = m.link(
        raft::kernel::make<raft::generate<i64>>(
            count, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<raft::sum<i64, i64, i64>>(), "input_a" );
    m.link( raft::kernel::make<raft::generate<i64>>(
                count, []( std::size_t i ) { return i64( 2 * i ); } ),
            &( linked.dst ), "input_b" );
    m.link( &( linked.dst ),
            raft::kernel::make<raft::net::tcp_sink<i64>>(
                std::move( conn ) ) );
    m.exe();
    node_b.join();

    ASSERT_EQ( received.size(), count );
    for( std::size_t i = 0; i < count; i += 97 )
    {
        EXPECT_EQ( received[ i ], i64( 3 * i ) );
    }
}

TEST( tcp_kernels, signal_propagates_across_link )
{
    raft::net::tcp_listener listener( 0 );
    std::vector<raft::signal> sigs;
    std::thread node_b( [ & ]() {
        auto conn = listener.accept();
        class sig_probe : public raft::kernel
        {
        public:
            std::vector<raft::signal> *out;
            explicit sig_probe( std::vector<raft::signal> *o )
                : out( o )
            {
                input.addPort<int>( "0" );
            }
            raft::kstatus run() override
            {
                auto v = input[ "0" ].pop_s<int>();
                out->push_back( v.sig() );
                return raft::proceed;
            }
        };
        raft::map m;
        m.link( raft::kernel::make<raft::net::tcp_source<int>>(
                    std::move( conn ) ),
                raft::kernel::make<sig_probe>( &sigs ) );
        m.exe();
    } );
    raft::map m;
    auto conn = raft::net::tcp_connection::connect( "127.0.0.1",
                                                    listener.port() );
    m.link( raft::kernel::make<raft::generate<int>>(
                3, []( std::size_t i ) { return int( i ); } ),
            raft::kernel::make<raft::net::tcp_sink<int>>(
                std::move( conn ) ) );
    m.exe();
    node_b.join();
    ASSERT_EQ( sigs.size(), 3u );
    EXPECT_EQ( sigs.back(), raft::eos ); /** in-band signal survived **/
}

TEST( oar, mesh_exchanges_status )
{
    raft::net::oar_node a( 1, 5ms ), b( 2, 5ms ), c( 3, 5ms );
    a.connect_to( "127.0.0.1", b.port() );
    a.connect_to( "127.0.0.1", c.port() );
    b.connect_to( "127.0.0.1", c.port() );

    a.set_load( 0.9, 0.1, 12 );
    b.set_load( 0.2, 0.8, 3 );
    c.set_load( 0.5, 0.5, 7 );

    /** wait for gossip to converge: each heartbeat before set_load()
     *  already put a status with load 0 in the peers' registries, so wait
     *  for the values, not for the entries **/
    const auto holds = []( const std::map<std::uint32_t,
                                          raft::net::node_status> &reg,
                           const std::uint32_t peer, const double load ) {
        return reg.count( peer ) != 0 && reg.at( peer ).load == load;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + 2s;
    while( std::chrono::steady_clock::now() < deadline )
    {
        const auto ra = a.registry(), rb = b.registry(), rc = c.registry();
        if( holds( rb, 1, 0.9 ) && holds( rc, 1, 0.9 ) &&
            holds( rc, 2, 0.2 ) && holds( ra, 2, 0.2 ) &&
            holds( ra, 3, 0.5 ) )
        {
            break;
        }
        std::this_thread::sleep_for( 2ms );
    }

    const auto reg_b = b.registry();
    ASSERT_TRUE( reg_b.count( 1 ) );
    EXPECT_DOUBLE_EQ( reg_b.at( 1 ).load, 0.9 );
    EXPECT_EQ( reg_b.at( 1 ).kernel_count, 12u );

    const auto reg_c = c.registry();
    ASSERT_TRUE( reg_c.count( 1 ) );
    ASSERT_TRUE( reg_c.count( 2 ) );
    EXPECT_DOUBLE_EQ( reg_c.at( 2 ).load, 0.2 );

    /** a sees b as its least loaded peer **/
    EXPECT_EQ( a.least_loaded_peer(), 2u );

    a.stop();
    b.stop();
    c.stop();
}

TEST( oar, status_updates_overwrite_older )
{
    raft::net::oar_node a( 10, 5ms ), b( 20, 5ms );
    a.connect_to( "127.0.0.1", b.port() );
    a.set_load( 0.1, 0.9, 1 );
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while( std::chrono::steady_clock::now() < deadline &&
           b.registry().count( 10 ) == 0 )
    {
        std::this_thread::sleep_for( 2ms );
    }
    a.set_load( 0.7, 0.3, 5 );
    const auto deadline2 = std::chrono::steady_clock::now() + 2s;
    while( std::chrono::steady_clock::now() < deadline2 )
    {
        const auto reg = b.registry();
        if( reg.count( 10 ) != 0 && reg.at( 10 ).load > 0.6 )
        {
            break;
        }
        std::this_thread::sleep_for( 2ms );
    }
    EXPECT_DOUBLE_EQ( b.registry().at( 10 ).load, 0.7 );
    a.stop();
    b.stop();
}

TEST( oar, no_peers_reports_self )
{
    raft::net::oar_node lonely( 42, 50ms );
    EXPECT_EQ( lonely.least_loaded_peer(), 42u );
    EXPECT_EQ( lonely.link_count(), 0u );
    lonely.stop();
}
