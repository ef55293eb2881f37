/**
 * tcp_kernels.hpp — kernels that extend a stream across a TCP link.
 *
 * "Stream processing also naturally lends itself to distributed (network)
 * processing, where network links simply become part of the stream" (§1).
 * A tcp_sink<T> on the producing node and a tcp_source<T> on the consuming
 * node splice a typed stream over a socket; end-of-stream propagates as a
 * framed EOF marker, so the remote application terminates exactly like a
 * local one. Elements must be trivially copyable (the wire format is the
 * in-memory representation; same-architecture nodes assumed — see
 * DESIGN.md §7).
 *
 * Frame layout: 1 signal byte, then sizeof(T) payload bytes.
 * EOF frame: signal byte 0xFF, no payload.
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

namespace detail {
inline constexpr std::uint8_t eof_frame = scalar_eof_frame;
} /** end namespace detail **/

/** Terminal kernel on the sending node: forwards its input stream over a
 *  connected socket. Drains its queue through a read window, so a burst of
 *  elements costs one queue handshake and one send(2) instead of one of
 *  each per element; the per-element wire format is unchanged. */
template <class T> class tcp_sink : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    /** Elements gathered per run() into a single send(2). */
    static constexpr std::size_t wire_batch = 64;

    explicit tcp_sink( tcp_connection conn )
        : kernel(), in_( input.addPort<T>( "0" ) ), conn_( std::move( conn ) )
    {
        wire_.reserve( wire_batch * ( 1 + sizeof( T ) ) );
    }

    kstatus run() override
    {
        wire_.clear();
        try
        {
            auto w = in_.pop_s<T>( wire_batch );
            for( std::size_t i = 0; i < w.size(); ++i )
            {
                append_scalar_frame(
                    wire_, static_cast<std::uint8_t>( w.sig( i ) ),
                    &w[ i ], sizeof( T ) );
            }
        }
        catch( const closed_port_exception & )
        {
            const std::uint8_t frame = detail::eof_frame;
            conn_.send_all( &frame, 1 );
            conn_.shutdown_write();
            throw; /** normal completion path **/
        }
        conn_.send_all( wire_.data(), wire_.size() );
        return raft::proceed;
    }

private:
    port &in_;
    tcp_connection conn_;
    std::vector<std::uint8_t> wire_;
};

/** Source kernel on the receiving node: replays the remote stream. Reads
 *  whatever the kernel socket buffer holds in one recv(2), then publishes
 *  every complete frame through one write-window claim; partial frames
 *  carry over to the next run(). */
template <class T> class tcp_source : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    /** Frames' worth of buffer offered to each recv(2). */
    static constexpr std::size_t wire_batch = 64;

    explicit tcp_source( tcp_connection conn )
        : kernel(), out_( output.addPort<T>( "0" ) ),
          conn_( std::move( conn ) )
    {
        rx_.reserve( wire_batch * ( 1 + sizeof( T ) ) );
    }

    kstatus run() override
    {
        if( !eof_ )
        {
            const auto base = rx_.size();
            rx_.resize( base + wire_batch * ( 1 + sizeof( T ) ) );
            const auto got =
                conn_.recv_some( rx_.data() + base, rx_.size() - base );
            rx_.resize( base + got );
            if( got == 0 )
            {
                eof_ = true; /** peer closed without an EOF frame **/
            }
            /** drop keep-alive bytes so frames sit contiguously **/
            rx_.resize( compact_scalar_frames( rx_.data(), rx_.size(),
                                               sizeof( T ) ) );
        }
        const auto scan =
            scan_scalar_frames( rx_.data(), rx_.size(), sizeof( T ) );
        eof_ = eof_ || scan.eof;
        std::size_t emitted = 0;
        while( emitted < scan.frames )
        {
            auto w = out_.allocate_range<T>(
                scan.frames - emitted );
            std::size_t i = 0;
            try
            {
                for( ; i < w.size(); ++i )
                {
                    const auto *frame = rx_.data() +
                        ( emitted + i ) * ( 1 + sizeof( T ) );
                    w.set_signal( i, decode_signal( frame[ 0 ] ) );
                    std::memcpy( &w[ i ], frame + 1, sizeof( T ) );
                }
            }
            catch( const net_exception & )
            {
                w.publish( i ); /** ship only the frames before the bad one **/
                throw;
            }
            emitted += w.size();
        }
        rx_.erase( rx_.begin(),
                   rx_.begin() + static_cast<std::ptrdiff_t>(
                       scan.consumed ) );
        if( eof_ )
        {
            /** every complete frame was emitted; any leftover bytes are a
             *  truncated trailing frame from a mid-message peer close **/
            return raft::stop;
        }
        return raft::proceed;
    }

private:
    port &out_;
    tcp_connection conn_;
    std::vector<std::uint8_t> rx_;
    bool eof_{ false };
};

/**
 * Batching + compressing variants (§4.2 future work: "link data
 * compression"). The sink gathers up to `batch` elements (with their
 * in-band signals), RLE-compresses the batch, and ships one frame:
 *
 *   [u32 element_count][u32 compressed_bytes][payload]
 *
 * element_count 0 marks end-of-stream. Struct padding and repeated
 * payloads compress well; worst case costs one extra copy plus ≤ 2×
 * frame size, still amortized by batching.
 */
template <class T> class tcp_sink_compressed : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    explicit tcp_sink_compressed( tcp_connection conn,
                                  const std::size_t batch = 256 )
        : kernel(), in_( input.addPort<T>( "0" ) ),
          conn_( std::move( conn ) ), batch_( batch == 0 ? 1 : batch )
    {
        values_.reserve( batch_ );
        sigs_.reserve( batch_ );
    }

    kstatus run() override
    {
        try
        {
            /** drain a whole window per handshake instead of one pop **/
            auto w = in_.pop_s<T>(
                batch_ - values_.size() );
            for( std::size_t i = 0; i < w.size(); ++i )
            {
                values_.push_back( w[ i ] );
                sigs_.push_back( w.sig( i ) );
            }
        }
        catch( const closed_port_exception & )
        {
            flush();
            const std::uint32_t eof[ 2 ] = { 0, 0 };
            conn_.send_all( eof, sizeof( eof ) );
            conn_.shutdown_write();
            throw;
        }
        if( values_.size() >= batch_ )
        {
            flush();
        }
        return raft::proceed;
    }

private:
    void flush()
    {
        if( values_.empty() )
        {
            return;
        }
        const auto n = values_.size();
        std::vector<std::uint8_t> raw( n * ( sizeof( T ) + 1 ) );
        std::memcpy( raw.data(), values_.data(), n * sizeof( T ) );
        for( std::size_t i = 0; i < n; ++i )
        {
            raw[ n * sizeof( T ) + i ] =
                static_cast<std::uint8_t>( sigs_[ i ] );
        }
        const auto packed = rle_compress( raw.data(), raw.size() );
        const std::uint32_t header[ 2 ] = {
            static_cast<std::uint32_t>( n ),
            static_cast<std::uint32_t>( packed.size() )
        };
        conn_.send_all( header, sizeof( header ) );
        conn_.send_all( packed.data(), packed.size() );
        values_.clear();
        sigs_.clear();
    }

    port &in_;
    tcp_connection conn_;
    std::size_t batch_;
    std::vector<T> values_;
    std::vector<signal> sigs_;
};

/** Receiving end of tcp_sink_compressed. */
template <class T> class tcp_source_compressed : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    explicit tcp_source_compressed( tcp_connection conn )
        : kernel(), out_( output.addPort<T>( "0" ) ),
          conn_( std::move( conn ) )
    {
    }

    kstatus run() override
    {
        std::uint32_t header[ 2 ] = { 0, 0 };
        if( !conn_.recv_all( header, sizeof( header ) ) ||
            header[ 0 ] == 0 )
        {
            return raft::stop;
        }
        const std::size_t n = header[ 0 ];
        std::vector<std::uint8_t> packed( header[ 1 ] );
        if( !conn_.recv_all( packed.data(), packed.size() ) )
        {
            return raft::stop;
        }
        const auto expect = n * ( sizeof( T ) + 1 );
        const auto raw =
            rle_decompress( packed.data(), packed.size(), expect );
        if( raw.size() != expect )
        {
            throw net_exception( "compressed frame size mismatch" );
        }
        /** publish the decoded batch through write windows: one queue
         *  handshake per claimed run instead of one per element **/
        std::size_t emitted = 0;
        while( emitted < n )
        {
            auto w =
                out_.allocate_range<T>( n - emitted );
            std::size_t i = 0;
            try
            {
                for( ; i < w.size(); ++i )
                {
                    const auto k = emitted + i;
                    w.set_signal( i,
                                  decode_signal( raw[ n * sizeof( T ) + k ] ) );
                    std::memcpy( &w[ i ], raw.data() + k * sizeof( T ),
                                 sizeof( T ) );
                }
            }
            catch( const net_exception & )
            {
                w.publish( i ); /** ship only the frames before the bad one **/
                throw;
            }
            emitted += w.size();
        }
        return raft::proceed;
    }

private:
    port &out_;
    tcp_connection conn_;
};

} /** end namespace raft::net **/
