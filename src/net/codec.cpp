#include "net/codec.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace raft::net {

void append_scalar_frame( std::vector<std::uint8_t> &out,
                          const std::uint8_t sig,
                          const void *payload,
                          const std::size_t payload_size )
{
    const auto base = out.size();
    out.resize( base + 1 + payload_size );
    out[ base ] = sig;
    std::memcpy( out.data() + base + 1, payload, payload_size );
}

frame_scan_result scan_scalar_frames( const std::uint8_t *data,
                                      const std::size_t n,
                                      const std::size_t payload_size ) noexcept
{
    frame_scan_result r;
    const auto frame_size = 1 + payload_size;
    while( r.consumed < n )
    {
        if( data[ r.consumed ] == scalar_eof_frame )
        {
            ++r.consumed;
            r.eof = true;
            break;
        }
        if( data[ r.consumed ] == scalar_heartbeat_frame )
        {
            ++r.consumed; /** keep-alive: no payload, not an element **/
            continue;
        }
        if( n - r.consumed < frame_size )
        {
            break; /** partial trailing frame: wait for more bytes **/
        }
        r.consumed += frame_size;
        ++r.frames;
    }
    return r;
}

std::size_t compact_scalar_frames( std::uint8_t *data, const std::size_t n,
                                   const std::size_t payload_size ) noexcept
{
    const auto frame_size = 1 + payload_size;
    std::size_t rd = 0, wr = 0;
    while( rd < n )
    {
        if( data[ rd ] == scalar_heartbeat_frame )
        {
            ++rd;
            continue;
        }
        if( data[ rd ] == scalar_eof_frame )
        {
            data[ wr++ ] = data[ rd++ ];
            break;
        }
        const auto take = std::min( frame_size, n - rd );
        if( wr != rd )
        {
            std::memmove( data + wr, data + rd, take );
        }
        wr += take;
        rd += take;
    }
    /** tail after EOF (or a partial frame) carries over verbatim **/
    if( rd < n && wr != rd )
    {
        std::memmove( data + wr, data + rd, n - rd );
    }
    wr += n - rd;
    return wr;
}

signal decode_signal( const std::uint8_t byte )
{
    if( byte > term )
    {
        throw net_exception( "frame carries unknown signal byte " +
                             std::to_string( byte ) );
    }
    return static_cast<signal>( byte );
}

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

void put_varint( std::vector<std::uint8_t> &out, std::uint64_t v )
{
    while( v >= 0x80 )
    {
        out.push_back( static_cast<std::uint8_t>( v ) | 0x80 );
        v >>= 7;
    }
    out.push_back( static_cast<std::uint8_t>( v ) );
}

const std::uint8_t *get_varint( const std::uint8_t *p,
                                const std::uint8_t *end,
                                std::uint64_t &out )
{
    out        = 0;
    int shift  = 0;
    for( ;; )
    {
        if( p == end )
        {
            throw net_exception( "truncated varint" );
        }
        if( shift >= 64 )
        {
            throw net_exception( "varint overflow" );
        }
        const auto byte = *p++;
        out |= static_cast<std::uint64_t>( byte & 0x7F ) << shift;
        if( ( byte & 0x80 ) == 0 )
        {
            return p;
        }
        shift += 7;
    }
}

} /** end namespace raft::net **/
