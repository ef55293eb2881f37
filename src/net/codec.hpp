/**
 * codec.hpp — the TCP link's wire format and its one decoder, plus the
 * RLE byte codec it can carry (§4.2: "Future versions will incorporate
 * link data compression as well, further improving the cache-able
 * data.").
 *
 * A tcp_sink<T> ships one batch frame per run():
 *
 *   [u32 count][u32 payload_bytes][u8 codec][payload_bytes of payload]
 *
 * The payload decodes (raw: as is; rle: RLE-decoded) to the frame's body:
 * `count` values of sizeof(T) bytes, then `count` signal bytes. A frame
 * with count 0 and no payload is end of stream. A link ends cleanly only
 * on that frame: a peer that closes first, a header out of bounds, a body
 * that does not decode or a signal byte that names no raft::signal is a
 * net_exception, which fails the graph.
 *
 * Header fields travel in host byte order (same-architecture nodes; see
 * DESIGN.md §7).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/exceptions.hpp"

namespace raft::net {

class tcp_connection;

/** @name RLE byte codec */
///@{
/** (byte, run length) pairs: worst case 2× the input. */
std::vector<std::uint8_t> rle_compress( const std::uint8_t *data,
                                        std::size_t n );

/** Throws net_exception on malformed input or when the decoded size
 *  would exceed max_output. */
std::vector<std::uint8_t> rle_decompress( const std::uint8_t *data,
                                          std::size_t n,
                                          std::size_t max_output );
///@}

/** @name batch frames */
///@{
/** Elements per frame at most; the receiver rejects larger counts. */
inline constexpr std::size_t wire_batch = 64;

inline constexpr std::size_t frame_header_bytes = 9;

enum class frame_codec : std::uint8_t
{
    raw = 0,
    rle = 1
};

/** Append one frame to wire. body holds count values of value_size bytes
 *  followed by count signal bytes; count 0 with an empty body is the
 *  end-of-stream frame. */
void append_frame( std::vector<std::uint8_t> &wire, std::size_t count,
                   const std::vector<std::uint8_t> &body, bool compress );

/** Receive one frame from conn and decode it into body (count values of
 *  value_size bytes, then count signal bytes, each ≤ raft::term). Returns
 *  count; 0 is the end-of-stream frame. Throws net_exception, before it
 *  allocates for the payload, on a header whose count exceeds wire_batch,
 *  whose codec is unknown, or whose payload_bytes does not fit count
 *  (raw: exactly the body's size; rle: at most twice it); and after that
 *  on a payload that does not decode, a bad signal byte, or a link that
 *  closes before the end-of-stream frame. payload is scratch. */
std::size_t recv_frame( tcp_connection &conn, std::size_t value_size,
                        std::vector<std::uint8_t> &payload,
                        std::vector<std::uint8_t> &body );
///@}

} /** end namespace raft::net **/
