#include "net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/exceptions.hpp"
#include "runtime/inject.hpp"
#include "runtime/telemetry/metrics.hpp"

namespace raft::net {

namespace {

[[noreturn]] void throw_errno( const std::string &what )
{
    throw raft::net_exception( what + ": " +
                               std::string( std::strerror( errno ) ) );
}

} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* tcp_connection                                                       */
/* ------------------------------------------------------------------ */

tcp_connection::~tcp_connection() { close(); }

tcp_connection::tcp_connection( tcp_connection &&other ) noexcept
    : fd_( std::exchange( other.fd_, -1 ) )
{
}

tcp_connection &
tcp_connection::operator=( tcp_connection &&other ) noexcept
{
    if( this != &other )
    {
        close();
        fd_ = std::exchange( other.fd_, -1 );
    }
    return *this;
}

tcp_connection tcp_connection::connect( const std::string &host,
                                        const std::uint16_t port )
{
    const int fd = ::socket( AF_INET, SOCK_STREAM, 0 );
    if( fd < 0 )
    {
        throw_errno( "socket" );
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port   = htons( port );
    if( ::inet_pton( AF_INET, host.c_str(), &addr.sin_addr ) != 1 )
    {
        ::close( fd );
        throw raft::net_exception( "bad address: " + host );
    }
    if( ::connect( fd, reinterpret_cast<sockaddr *>( &addr ),
                   sizeof( addr ) ) != 0 )
    {
        ::close( fd );
        throw_errno( "connect " + host + ":" + std::to_string( port ) );
    }
    const int one = 1;
    ::setsockopt( fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof( one ) );
    return tcp_connection( fd );
}

void tcp_connection::send_all( const void *data, const std::size_t n )
{
    if( raft::runtime::inject::enabled() )
    {
        /** build the site detail only when injection is on **/
        const auto site_detail = std::to_string( fd_ );
        if( raft::runtime::inject::should_kill( "net.send", site_detail ) )
        {
            kill();
        }
        raft::runtime::inject::maybe_delay( "net.send", site_detail );
    }
    const auto *p  = static_cast<const char *>( data );
    std::size_t off = 0;
    while( off < n )
    {
        const auto k = ::send( fd_, p + off, n - off, MSG_NOSIGNAL );
        if( k < 0 && errno == EINTR )
        {
            continue; /** interrupted by a signal: not an error **/
        }
        if( k <= 0 )
        {
            throw_errno( "send" );
        }
        off += static_cast<std::size_t>( k );
    }
    if( telemetry::metrics_on() && n != 0 )
    {
        telemetry::net_bytes_sent_total().add( n );
    }
}

std::size_t tcp_connection::recv_some( void *data, const std::size_t n )
{
    if( raft::runtime::inject::enabled() &&
        raft::runtime::inject::should_kill( "net.recv",
                                            std::to_string( fd_ ) ) )
    {
        kill();
    }
    for( ;; )
    {
        const auto k = ::recv( fd_, data, n, 0 );
        if( k == 0 )
        {
            return 0; /** clean EOF **/
        }
        if( k < 0 )
        {
            if( errno == EINTR )
            {
                continue;
            }
            throw_errno( "recv" );
        }
        if( telemetry::metrics_on() )
        {
            telemetry::net_bytes_received_total().add(
                static_cast<std::uint64_t>( k ) );
        }
        return static_cast<std::size_t>( k );
    }
}

bool tcp_connection::recv_all( void *data, const std::size_t n )
{
    auto *p         = static_cast<char *>( data );
    std::size_t off = 0;
    while( off < n )
    {
        const auto k = recv_some( p + off, n - off );
        if( k == 0 )
        {
            if( off == 0 )
            {
                return false; /** clean EOF at message boundary **/
            }
            throw raft::net_exception( "peer closed mid-message" );
        }
        off += k;
    }
    return true;
}

void tcp_connection::shutdown_write() noexcept
{
    if( fd_ >= 0 )
    {
        ::shutdown( fd_, SHUT_WR );
    }
}

void tcp_connection::kill() noexcept
{
    if( fd_ >= 0 )
    {
        ::shutdown( fd_, SHUT_RDWR );
    }
}

void tcp_connection::close() noexcept
{
    if( fd_ >= 0 )
    {
        /** wake any thread blocked in recv() before closing **/
        ::shutdown( fd_, SHUT_RDWR );
        ::close( fd_ );
        fd_ = -1;
    }
}

/* ------------------------------------------------------------------ */
/* tcp_listener                                                         */
/* ------------------------------------------------------------------ */

tcp_listener::tcp_listener( const std::uint16_t port )
{
    const int fd = ::socket( AF_INET, SOCK_STREAM, 0 );
    if( fd < 0 )
    {
        throw_errno( "socket" );
    }
    const int one = 1;
    ::setsockopt( fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof( one ) );
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port   = htons( port );
    ::inet_pton( AF_INET, "127.0.0.1", &addr.sin_addr );
    if( ::bind( fd, reinterpret_cast<sockaddr *>( &addr ),
                sizeof( addr ) ) != 0 )
    {
        ::close( fd );
        throw_errno( "bind" );
    }
    if( ::listen( fd, 16 ) != 0 )
    {
        ::close( fd );
        throw_errno( "listen" );
    }
    sockaddr_in bound{};
    socklen_t len = sizeof( bound );
    if( ::getsockname( fd, reinterpret_cast<sockaddr *>( &bound ),
                       &len ) == 0 )
    {
        port_ = ntohs( bound.sin_port );
    }
    fd_.store( fd, std::memory_order_release );
}

tcp_listener::~tcp_listener() { close(); }

tcp_connection tcp_listener::accept()
{
    const int fd =
        ::accept( fd_.load( std::memory_order_acquire ), nullptr, nullptr );
    if( fd < 0 )
    {
        throw_errno( "accept" );
    }
    const int one = 1;
    ::setsockopt( fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof( one ) );
    return tcp_connection( fd );
}

void tcp_listener::close() noexcept
{
    const int fd = fd_.exchange( -1, std::memory_order_acq_rel );
    if( fd >= 0 )
    {
        /** shutdown first: close() alone does not wake a thread blocked
         *  in accept() on Linux **/
        ::shutdown( fd, SHUT_RDWR );
        ::close( fd );
    }
}

} /** end namespace raft::net **/
