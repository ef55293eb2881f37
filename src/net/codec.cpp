#include "net/codec.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/signal.hpp"
#include "net/socket.hpp"

namespace raft::net {

std::vector<std::uint8_t> rle_compress( const std::uint8_t *data,
                                        const std::size_t n )
{
    std::vector<std::uint8_t> out;
    out.reserve( n / 2 + 8 );
    std::size_t i = 0;
    while( i < n )
    {
        const auto byte = data[ i ];
        std::size_t run = 1;
        while( i + run < n && data[ i + run ] == byte && run < 255 )
        {
            ++run;
        }
        out.push_back( byte );
        out.push_back( static_cast<std::uint8_t>( run ) );
        i += run;
    }
    return out;
}

std::vector<std::uint8_t> rle_decompress( const std::uint8_t *data,
                                          const std::size_t n,
                                          const std::size_t max_output )
{
    if( n % 2 != 0 )
    {
        throw net_exception( "malformed RLE stream: odd length" );
    }
    std::vector<std::uint8_t> out;
    out.reserve( std::min( max_output, n * 4 ) );
    for( std::size_t i = 0; i < n; i += 2 )
    {
        const auto byte = data[ i ];
        const auto run  = static_cast<std::size_t>( data[ i + 1 ] );
        if( run == 0 )
        {
            throw net_exception( "malformed RLE stream: zero run" );
        }
        if( out.size() + run > max_output )
        {
            throw net_exception( "RLE stream exceeds expected size" );
        }
        out.insert( out.end(), run, byte );
    }
    return out;
}

void append_frame( std::vector<std::uint8_t> &wire, const std::size_t count,
                   const std::vector<std::uint8_t> &body, const bool compress )
{
    std::vector<std::uint8_t> packed;
    if( compress )
    {
        packed = rle_compress( body.data(), body.size() );
    }
    const auto &payload = compress ? packed : body;
    const std::uint32_t sizes[ 2 ] = {
        static_cast<std::uint32_t>( count ),
        static_cast<std::uint32_t>( payload.size() ) };
    const auto *head = reinterpret_cast<const std::uint8_t *>( sizes );
    wire.insert( wire.end(), head, head + sizeof( sizes ) );
    wire.push_back( static_cast<std::uint8_t>( compress ? frame_codec::rle
                                                        : frame_codec::raw ) );
    wire.insert( wire.end(), payload.begin(), payload.end() );
}

namespace {

void recv_or_throw( tcp_connection &conn, void *data, const std::size_t n )
{
    if( !conn.recv_all( data, n ) )
    {
        throw net_exception( "link closed before the end-of-stream frame" );
    }
}

} /** end anonymous namespace **/

std::size_t recv_frame( tcp_connection &conn, const std::size_t value_size,
                        std::vector<std::uint8_t> &payload,
                        std::vector<std::uint8_t> &body )
{
    std::uint8_t header[ frame_header_bytes ];
    recv_or_throw( conn, header, sizeof( header ) );
    std::uint32_t count = 0, payload_bytes = 0;
    std::memcpy( &count, header, sizeof( count ) );
    std::memcpy( &payload_bytes, header + 4, sizeof( payload_bytes ) );
    const auto codec = static_cast<frame_codec>( header[ 8 ] );

    /** bound the header before anything is allocated for it **/
    if( count > wire_batch )
    {
        throw net_exception( "frame claims " + std::to_string( count ) +
                             " elements, more than " +
                             std::to_string( wire_batch ) );
    }
    const std::size_t body_bytes = count * ( value_size + 1 );
    if( codec != frame_codec::raw && codec != frame_codec::rle )
    {
        throw net_exception( "frame names unknown codec " +
                             std::to_string( header[ 8 ] ) );
    }
    /** raw carries the body as is; RLE at worst doubles it **/
    if( codec == frame_codec::raw ? payload_bytes != body_bytes
                                  : payload_bytes > 2 * body_bytes )
    {
        throw net_exception( "frame payload of " +
                             std::to_string( payload_bytes ) +
                             " bytes does not fit " +
                             std::to_string( count ) + " elements" );
    }
    if( count == 0 )
    {
        return 0; /** end of stream; its payload is empty **/
    }

    if( codec == frame_codec::raw )
    {
        body.resize( body_bytes );
        recv_or_throw( conn, body.data(), body_bytes );
    }
    else
    {
        payload.resize( payload_bytes );
        recv_or_throw( conn, payload.data(), payload_bytes );
        body = rle_decompress( payload.data(), payload_bytes, body_bytes );
        if( body.size() != body_bytes )
        {
            throw net_exception( "compressed frame size mismatch" );
        }
    }
    for( auto i = count * value_size; i < body_bytes; ++i )
    {
        if( body[ i ] > term )
        {
            throw net_exception( "frame carries unknown signal byte " +
                                 std::to_string( body[ i ] ) );
        }
    }
    return count;
}

} /** end namespace raft::net **/
