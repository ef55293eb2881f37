#include "net/oar.hpp"

#include <algorithm>
#include <limits>

#include "core/defs.hpp"
#include "core/exceptions.hpp"

namespace raft::net {

oar_node::oar_node( const std::uint32_t node_id,
                    const std::chrono::milliseconds interval )
    : id_( node_id ), interval_( interval ), listener_( 0 )
{
    self_.node_id      = id_;
    self_.timestamp_ns = raft::detail::now_ns();
    accept_thread_    = std::thread( [ this ]() { accept_loop(); } );
    heartbeat_thread_ = std::thread( [ this ]() { heartbeat_loop(); } );
}

oar_node::~oar_node() { stop(); }

std::uint16_t oar_node::port() const noexcept { return listener_.port(); }

void oar_node::connect_to( const std::string &host,
                           const std::uint16_t port )
{
    auto conn = tcp_connection::connect( host, port );
    const std::lock_guard<std::mutex> lock( mutex_ );
    links_.push_back( link{ std::move( conn ) } );
    const auto index = links_.size() - 1;
    receivers_.emplace_back(
        [ this, index ]() { receive_loop( index ); } );
}

void oar_node::set_load( const double load, const double free_capacity,
                         const std::uint32_t kernel_count )
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    self_.load          = load;
    self_.free_capacity = free_capacity;
    self_.kernel_count  = kernel_count;
}

std::map<std::uint32_t, node_status> oar_node::registry() const
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    return registry_;
}

std::uint32_t oar_node::least_loaded_peer() const
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    std::uint32_t best = id_;
    double best_load   = std::numeric_limits<double>::infinity();
    for( const auto &[ peer, status ] : registry_ )
    {
        if( status.load < best_load )
        {
            best_load = status.load;
            best      = peer;
        }
    }
    return best;
}

std::size_t oar_node::link_count() const
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    return links_.size();
}

void oar_node::stop()
{
    if( !running_.exchange( false ) )
    {
        return;
    }
    /** no link joins once the accept thread is gone, and none is written
     *  to once the heartbeat is **/
    listener_.close();
    if( accept_thread_.joinable() )
    {
        accept_thread_.join();
    }
    if( heartbeat_thread_.joinable() )
    {
        heartbeat_thread_.join();
    }
    /** shut each link down while its fd stays open, so a receiver blocked
     *  in recv on it wakes and returns; close the fds only after that **/
    std::vector<std::thread> receivers;
    {
        const std::lock_guard<std::mutex> lock( mutex_ );
        for( auto &l : links_ )
        {
            l.conn.kill();
        }
        receivers = std::move( receivers_ );
    }
    for( auto &r : receivers )
    {
        if( r.joinable() )
        {
            r.join();
        }
    }
    const std::lock_guard<std::mutex> lock( mutex_ );
    for( auto &l : links_ )
    {
        l.conn.close();
    }
}

node_status oar_node::self_status() const
{
    const std::lock_guard<std::mutex> lock( mutex_ );
    node_status s    = self_;
    s.timestamp_ns   = raft::detail::now_ns();
    return s;
}

void oar_node::accept_loop()
{
    while( running_.load( std::memory_order_acquire ) )
    {
        try
        {
            auto conn = listener_.accept();
            const std::lock_guard<std::mutex> lock( mutex_ );
            links_.push_back( link{ std::move( conn ) } );
            const auto index = links_.size() - 1;
            receivers_.emplace_back(
                [ this, index ]() { receive_loop( index ); } );
        }
        catch( const raft::net_exception & )
        {
            return; /** listener closed during stop() **/
        }
    }
}

void oar_node::receive_loop( const std::size_t link_index )
{
    for( ;; )
    {
        node_status incoming{};
        try
        {
            tcp_connection *conn;
            {
                const std::lock_guard<std::mutex> lock( mutex_ );
                conn = &links_[ link_index ].conn;
            }
            if( !conn->recv_all( &incoming, sizeof( incoming ) ) )
            {
                return; /** peer done **/
            }
        }
        catch( const raft::net_exception & )
        {
            return; /** link torn down **/
        }
        const std::lock_guard<std::mutex> lock( mutex_ );
        auto &slot = registry_[ incoming.node_id ];
        if( incoming.timestamp_ns >= slot.timestamp_ns )
        {
            slot = incoming;
        }
    }
}

void oar_node::heartbeat_loop()
{
    while( running_.load( std::memory_order_acquire ) )
    {
        const auto status = self_status();
        {
            const std::lock_guard<std::mutex> lock( mutex_ );
            for( auto &l : links_ )
            {
                if( !l.up )
                {
                    continue;
                }
                try
                {
                    l.conn.send_all( &status, sizeof( status ) );
                }
                catch( const raft::net_exception & )
                {
                    /** peer gone: stop sending, and wake the receiver **/
                    l.up = false;
                    l.conn.kill();
                }
            }
        }
        std::this_thread::sleep_for( interval_ );
    }
}

} /** end namespace raft::net **/
