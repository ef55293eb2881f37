/**
 * tcp_kernels.hpp — kernels that extend a stream across a TCP link.
 *
 * "Stream processing also naturally lends itself to distributed (network)
 * processing, where network links simply become part of the stream" (§1).
 * A tcp_sink<T> on the producing node and a tcp_source<T> on the consuming
 * node splice a typed stream over a socket; end-of-stream propagates as an
 * end-of-stream frame, so the remote application terminates exactly like
 * a local one. Any other end of the link (a peer that closes first, a
 * killed socket, a malformed frame) throws net_exception and fails the
 * graph. Elements must be trivially copyable (the wire format is the
 * in-memory representation; same-architecture nodes assumed — see
 * DESIGN.md §7). The frame format is in codec.hpp.
 */
#pragma once

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/kernel.hpp"
#include "net/codec.hpp"
#include "net/socket.hpp"

namespace raft::net {

/** Terminal kernel on the sending node: forwards its input stream over a
 *  connected socket, one frame of up to wire_batch elements per run(),
 *  drained through one read window and sent in one send(2). With
 *  `compress`, each frame's body is RLE-coded (§4.2 future work: "link
 *  data compression"). */
template <class T> class tcp_sink : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    explicit tcp_sink( tcp_connection conn, const bool compress = false )
        : kernel(), in_( input.addPort<T>( "0" ) ), conn_( std::move( conn ) ),
          compress_( compress )
    {
        body_.reserve( wire_batch * ( sizeof( T ) + 1 ) );
        wire_.reserve( frame_header_bytes +
                       wire_batch * ( sizeof( T ) + 1 ) );
    }

    kstatus run() override
    {
        wire_.clear();
        try
        {
            auto w       = in_.pop_s<T>( wire_batch );
            const auto n = w.size();
            body_.resize( n * ( sizeof( T ) + 1 ) );
            for( std::size_t i = 0; i < n; ++i )
            {
                std::memcpy( body_.data() + i * sizeof( T ), &w[ i ],
                             sizeof( T ) );
                body_[ n * sizeof( T ) + i ] =
                    static_cast<std::uint8_t>( w.sig( i ) );
            }
            append_frame( wire_, n, body_, compress_ );
        }
        catch( const closed_port_exception & )
        {
            body_.clear();
            append_frame( wire_, 0, body_, compress_ );
            conn_.send_all( wire_.data(), wire_.size() );
            conn_.shutdown_write();
            throw; /** normal completion path **/
        }
        conn_.send_all( wire_.data(), wire_.size() );
        return raft::proceed;
    }

private:
    port &in_;
    tcp_connection conn_;
    bool compress_;
    std::vector<std::uint8_t> body_;
    std::vector<std::uint8_t> wire_;
};

/** Source kernel on the receiving node: replays the remote stream, one
 *  frame per run(), published through write windows (one queue handshake
 *  per claimed run of slots). Each frame names its codec, so the source
 *  takes no option. */
template <class T> class tcp_source : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    explicit tcp_source( tcp_connection conn )
        : kernel(), out_( output.addPort<T>( "0" ) ),
          conn_( std::move( conn ) )
    {
        body_.reserve( wire_batch * ( sizeof( T ) + 1 ) );
    }

    kstatus run() override
    {
        const auto n = recv_frame( conn_, sizeof( T ), payload_, body_ );
        if( n == 0 )
        {
            return raft::stop; /** the end-of-stream frame **/
        }
        std::size_t emitted = 0;
        while( emitted < n )
        {
            auto w = out_.allocate_range<T>( n - emitted );
            for( std::size_t i = 0; i < w.size(); ++i )
            {
                const auto k = emitted + i;
                std::memcpy( &w[ i ], body_.data() + k * sizeof( T ),
                             sizeof( T ) );
                w.set_signal( i, static_cast<signal>(
                                     body_[ n * sizeof( T ) + k ] ) );
            }
            emitted += w.size();
        }
        return raft::proceed;
    }

private:
    port &out_;
    tcp_connection conn_;
    std::vector<std::uint8_t> payload_;
    std::vector<std::uint8_t> body_;
};

} /** end namespace raft::net **/
