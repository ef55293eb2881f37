/**
 * exporters.cpp - Prometheus HTTP endpoint + trace file writer.
 **/
#include "runtime/telemetry/exporters.hpp"

#include <fstream>
#include <sstream>

#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft
{
namespace telemetry
{

prometheus_endpoint::prometheus_endpoint( const std::uint16_t port )
    : listener_( port ), thread_( [ this ]() { loop(); } )
{
}

prometheus_endpoint::~prometheus_endpoint()
{
    stop();
}

void prometheus_endpoint::stop() noexcept
{
    if( !running_.exchange( false, std::memory_order_relaxed ) )
    {
        return;
    }
    /** closing the listener wakes the blocked accept() with an error **/
    listener_.close();
    if( thread_.joinable() )
    {
        thread_.join();
    }
}

void prometheus_endpoint::loop()
{
    while( running_.load( std::memory_order_relaxed ) )
    {
        try
        {
            auto conn = listener_.accept();
            /** drain (and ignore) the request line + headers: every path
             *  gets the same exposition, and scrapers send tiny GETs
             *  that fit one recv **/
            char reqbuf[ 1024 ];
            (void) conn.recv_some( reqbuf, sizeof( reqbuf ) );
            const auto body = registry::instance().render_prometheus();
            std::ostringstream head;
            head << "HTTP/1.0 200 OK\r\n"
                 << "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                 << "Content-Length: " << body.size() << "\r\n"
                 << "Connection: close\r\n\r\n";
            const auto h = head.str();
            conn.send_all( h.data(), h.size() );
            conn.send_all( body.data(), body.size() );
            scrapes_.fetch_add( 1, std::memory_order_relaxed );
        }
        catch( ... )
        {
            /** accept() failing after close() is the shutdown path; a
             *  client dropping mid-response is its problem — keep
             *  serving until stop() **/
            continue;
        }
    }
}

std::string scrape_prometheus( const std::string &host,
                               const std::uint16_t port )
{
    auto conn = net::tcp_connection::connect( host, port );
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    conn.send_all( req.data(), req.size() );
    std::string raw;
    char buf[ 4096 ];
    for( ;; )
    {
        const auto n = conn.recv_some( buf, sizeof( buf ) );
        if( n == 0 )
        {
            break;
        }
        raw.append( buf, n );
    }
    const auto split = raw.find( "\r\n\r\n" );
    return split == std::string::npos ? raw : raw.substr( split + 4 );
}

bool write_trace_file( const std::string &path )
{
    std::ofstream out( path );
    if( !out )
    {
        return false;
    }
    write_trace_json( out );
    return static_cast<bool>( out );
}

} /** end namespace telemetry **/
} /** end namespace raft **/
