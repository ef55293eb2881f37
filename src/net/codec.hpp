/**
 * codec.hpp — link data compression (§4.2: "Future versions will
 * incorporate link data compression as well, further improving the
 * cache-able data.").
 *
 * Two dependency-free codecs sized for stream payloads:
 *
 *  - RLE over raw bytes: (byte, count) pairs. Worst case 2× expansion,
 *    large wins on the run-heavy payloads streaming apps ship (zeroed
 *    struct padding, repeated tiles). Safe decoder: malformed input
 *    throws, output size is bounded by the caller.
 *  - zigzag + varint delta coding for integral sequences: consecutive
 *    stream elements are usually close in value (sequence numbers,
 *    offsets, sensor samples), so deltas fit in 1-2 bytes.
 *
 * The compressed TCP kernels (tcp_kernels.hpp) batch elements, compress
 * the batch with RLE, and frame it; per-type specializations can swap in
 * the delta codec.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/exceptions.hpp"
#include "core/signal.hpp"

namespace raft::net {

/** @name RLE byte codec */
///@{
std::vector<std::uint8_t> rle_compress( const std::uint8_t *data,
                                        std::size_t n );

/** Throws net_exception on malformed input or when the decoded size
 *  would exceed max_output. */
std::vector<std::uint8_t> rle_decompress( const std::uint8_t *data,
                                          std::size_t n,
                                          std::size_t max_output );
///@}

/** @name scalar frame batching (tcp_kernels wire format)
 * One stream element travels as [1 signal byte][payload_size bytes]; the
 * end-of-stream marker is a lone 0xFF signal byte, and a lone 0xFE signal
 * byte is a heartbeat — an idle link's keep-alive that carries no payload
 * and is skipped by the scanner (receivers prove the peer is alive without
 * disturbing the element stream). These helpers let the TCP kernels gather
 * many frames into one buffer (single send(2)) and scan a received byte
 * buffer for the complete frames it contains (single recv(2) feeding a
 * batched queue publication).
 */
///@{
inline constexpr std::uint8_t scalar_eof_frame       = 0xFF;
inline constexpr std::uint8_t scalar_heartbeat_frame = 0xFE;

/** Append one [sig][payload] frame to out. */
void append_scalar_frame( std::vector<std::uint8_t> &out,
                          std::uint8_t sig,
                          const void *payload,
                          std::size_t payload_size );

struct frame_scan_result
{
    std::size_t frames{ 0 };   /**< complete payload frames found      */
    std::size_t consumed{ 0 }; /**< bytes covered incl. any EOF marker */
    bool eof{ false };         /**< hit the end-of-stream marker       */
};

/** Count the complete [sig][payload] frames at the front of data[0..n),
 *  skipping heartbeat bytes and stopping at the EOF marker or a partial
 *  trailing frame. With no heartbeats present, frame i starts at offset
 *  i * (1 + payload_size); compact_scalar_frames() restores that layout
 *  otherwise. */
frame_scan_result scan_scalar_frames( const std::uint8_t *data,
                                      std::size_t n,
                                      std::size_t payload_size ) noexcept;

/** Remove heartbeat bytes in place from data[0..n): after this the frames
 *  scan_scalar_frames() counted are contiguous. Returns the new length. */
std::size_t compact_scalar_frames( std::uint8_t *data, std::size_t n,
                                   std::size_t payload_size ) noexcept;

/** The raft::signal a received data frame's signal byte names. Throws
 *  net_exception on a byte that names none (anything above raft::term);
 *  callers handle the EOF and heartbeat markers before decoding. */
signal decode_signal( std::uint8_t byte );
///@}

/** @name varint / zigzag primitives */
///@{
inline std::uint64_t zigzag_encode( const std::int64_t v ) noexcept
{
    return ( static_cast<std::uint64_t>( v ) << 1 ) ^
           static_cast<std::uint64_t>( v >> 63 );
}

inline std::int64_t zigzag_decode( const std::uint64_t u ) noexcept
{
    return static_cast<std::int64_t>( u >> 1 ) ^
           -static_cast<std::int64_t>( u & 1 );
}

void put_varint( std::vector<std::uint8_t> &out, std::uint64_t v );

/** Returns the advanced cursor; throws net_exception on truncation. */
const std::uint8_t *get_varint( const std::uint8_t *p,
                                const std::uint8_t *end,
                                std::uint64_t &out );
///@}

/** @name delta codec for integral streams */
///@{
template <class T>
std::vector<std::uint8_t> delta_compress( const T *values,
                                          const std::size_t n )
{
    static_assert( std::is_integral_v<T>,
                   "delta codec is for integral element types" );
    std::vector<std::uint8_t> out;
    out.reserve( n * 2 + 10 );
    put_varint( out, n );
    std::int64_t prev = 0;
    for( std::size_t i = 0; i < n; ++i )
    {
        const auto v = static_cast<std::int64_t>( values[ i ] );
        put_varint( out, zigzag_encode( v - prev ) );
        prev = v;
    }
    return out;
}

template <class T>
std::vector<T> delta_decompress( const std::uint8_t *data,
                                 const std::size_t n,
                                 const std::size_t max_elements )
{
    static_assert( std::is_integral_v<T>,
                   "delta codec is for integral element types" );
    const auto *p   = data;
    const auto *end = data + n;
    std::uint64_t count = 0;
    p = get_varint( p, end, count );
    if( count > max_elements )
    {
        throw net_exception( "delta stream claims too many elements" );
    }
    std::vector<T> out;
    out.reserve( count );
    std::int64_t prev = 0;
    for( std::uint64_t i = 0; i < count; ++i )
    {
        std::uint64_t d = 0;
        p    = get_varint( p, end, d );
        prev = prev + zigzag_decode( d );
        out.push_back( static_cast<T>( prev ) );
    }
    if( p != end )
    {
        throw net_exception( "trailing bytes in delta stream" );
    }
    return out;
}
///@}

} /** end namespace raft::net **/
