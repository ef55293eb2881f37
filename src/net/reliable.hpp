/**
 * reliable.hpp — mid-stream reconnect with exactly-once delivery.
 *
 * tcp_sink/tcp_source (tcp_kernels.hpp) treat a dropped connection as
 * end-of-stream: correct for the clean case, lossy under failure. The
 * reliable pair extends the wire format with sequence numbers, cumulative
 * acknowledgements, and a reconnect handshake, so a TCP link killed
 * mid-stream (a real partition or the raft::runtime::inject harness)
 * delivers every element exactly once end-to-end:
 *
 *  - sender → receiver data frame: [u8 sig][u64 seq][sizeof(T) payload]
 *  - sender → receiver heartbeat:  [0xFE]            (liveness, no data)
 *  - sender → receiver EOF:        [0xFF][u64 end_seq]
 *  - receiver → sender ack:        [u64 expected_seq]   (cumulative; sent
 *    every ack_interval frames and at EOF, on the same full-duplex socket)
 *  - reconnect handshake: on every (re)accept the receiver first sends
 *    [u64 expected_seq]; the sender trims its replay buffer to that point
 *    and retransmits from there.
 *
 * Exactly-once: the sender retains every unacknowledged element in a
 * replay buffer (bounded by `window`, which is ≫ ack_interval so steady
 * state never stalls), and the receiver drops any frame below its expected
 * sequence (duplicates from a replay overlap). Element order survives the
 * reconnect because TCP is in-order within a connection and replay always
 * restarts exactly at the receiver's expected sequence.
 *
 * Failure surface: the sender's connect uses net::connect_options retry
 * with exponential backoff + jitter; once attempts are exhausted the
 * net_exception escapes run() and the runtime cancels the graph.
 * Same-architecture nodes assumed, as for tcp_kernels.hpp.
 */
#pragma once

#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/kernel.hpp"
#include "net/codec.hpp"
#include "net/socket.hpp"
#include "runtime/inject.hpp"
#include "runtime/telemetry/metrics.hpp"

namespace raft::net {

/** Terminal kernel on the sending node: reliable counterpart of
 *  tcp_sink<T>. */
template <class T> class reliable_tcp_sink : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    /** Elements gathered per run() into a single send(2). */
    static constexpr std::size_t wire_batch = 64;
    /** Unacked elements retained for replay; send blocks past this. */
    static constexpr std::uint64_t window = 1024;

    reliable_tcp_sink( std::string host, const std::uint16_t port,
                       connect_options copts = connect_options::retry( 8 ),
                       std::string link_name = "reliable" )
        : kernel(), in_( input.addPort<T>( "0" ) ), host_( std::move( host ) ),
          port_( port ), copts_( copts ), name_( std::move( link_name ) )
    {
    }

    kstatus run() override
    {
        try
        {
            auto w = in_.pop_s<T>( wire_batch );
            for( std::size_t i = 0; i < w.size(); ++i )
            {
                replay_.push_back( entry{
                    static_cast<std::uint8_t>( w.sig( i ) ),
                    next_seq_++, w[ i ] } );
            }
        }
        catch( const closed_port_exception & )
        {
            finish();
            throw; /** normal completion path **/
        }
        transmit();
        return raft::proceed;
    }

private:
    struct entry
    {
        std::uint8_t sig;
        std::uint64_t seq;
        T value;
    };

    /** (Re)establish the link and run the handshake: the receiver leads
     *  with the sequence it expects next; everything older is acked. */
    void ensure_connected()
    {
        if( conn_.valid() )
        {
            return;
        }
        conn_ = tcp_connection::connect( host_, port_, copts_ );
        if( ever_connected_ && telemetry::metrics_on() )
        {
            telemetry::net_reconnects_total().add();
        }
        ever_connected_        = true;
        std::uint64_t expected = 0;
        if( !conn_.recv_all( &expected, sizeof( expected ) ) )
        {
            conn_.close();
            throw net_exception( "reliable handshake: peer closed" );
        }
        note_ack( expected );
        sent_seq_ = expected;
    }

    void note_ack( const std::uint64_t ack )
    {
        if( ack > acked_ )
        {
            acked_ = ack;
        }
        while( !replay_.empty() && replay_.front().seq < acked_ )
        {
            replay_.pop_front();
        }
    }

    /** Opportunistically drain any acks the receiver pushed. */
    void drain_acks()
    {
        std::uint8_t buf[ 256 ];
        for( ;; )
        {
            const auto got = conn_.recv_nowait( buf, sizeof( buf ) );
            if( got <= 0 )
            {
                if( got < 0 )
                {
                    throw net_exception( "reliable link: peer closed" );
                }
                return;
            }
            ack_partial_.insert( ack_partial_.end(), buf, buf + got );
            while( ack_partial_.size() >= sizeof( std::uint64_t ) )
            {
                std::uint64_t ack = 0;
                std::memcpy( &ack, ack_partial_.data(), sizeof( ack ) );
                ack_partial_.erase(
                    ack_partial_.begin(),
                    ack_partial_.begin() + sizeof( ack ) );
                note_ack( ack );
            }
        }
    }

    /** Blocking ack read (window full / EOF drain). */
    void await_ack()
    {
        while( ack_partial_.size() < sizeof( std::uint64_t ) )
        {
            std::uint8_t buf[ 64 ];
            const auto got = conn_.recv_some( buf, sizeof( buf ) );
            if( got == 0 )
            {
                throw net_exception( "reliable link: peer closed" );
            }
            ack_partial_.insert( ack_partial_.end(), buf, buf + got );
        }
        std::uint64_t ack = 0;
        std::memcpy( &ack, ack_partial_.data(), sizeof( ack ) );
        ack_partial_.erase( ack_partial_.begin(),
                            ack_partial_.begin() + sizeof( ack ) );
        note_ack( ack );
    }

    /** Send everything past sent_seq_; on a mid-stream link failure, drop
     *  the connection — the next attempt reconnects and replays. A
     *  connect policy exhaustion in ensure_connected() escapes run()
     *  instead: the receiver is gone for good and the graph must fail. */
    void transmit()
    {
        ensure_connected();
        try
        {
            if( runtime::inject::should_kill( "net.link", name_ ) )
            {
                conn_.kill();
            }
            drain_acks();
            while( sent_seq_ < next_seq_ &&
                   sent_seq_ - acked_ >= window )
            {
                await_ack(); /** window full: wait for the receiver **/
            }
            if( sent_seq_ >= next_seq_ )
            {
                return;
            }
            wire_.clear();
            wire_.push_back( scalar_heartbeat_frame ); /** liveness **/
            std::uint64_t frames = 0, replays = 0;
            for( const auto &e : replay_ )
            {
                if( e.seq < sent_seq_ )
                {
                    continue;
                }
                const auto base = wire_.size();
                wire_.resize( base + 1 + sizeof( std::uint64_t ) +
                              sizeof( T ) );
                wire_[ base ] = e.sig;
                std::memcpy( &wire_[ base + 1 ], &e.seq,
                             sizeof( e.seq ) );
                std::memcpy( &wire_[ base + 1 + sizeof( e.seq ) ],
                             &e.value, sizeof( T ) );
                ++frames;
                if( e.seq < high_water_ )
                {
                    ++replays; /** retransmission after a link loss **/
                }
            }
            conn_.send_all( wire_.data(), wire_.size() );
            sent_seq_ = next_seq_;
            if( next_seq_ > high_water_ )
            {
                high_water_ = next_seq_;
            }
            if( telemetry::metrics_on() )
            {
                /** batched per transmit: one fetch_add per counter **/
                telemetry::net_frames_total().add( frames );
                if( replays != 0 )
                {
                    telemetry::net_replayed_frames_total().add( replays );
                }
            }
        }
        catch( const net_exception & )
        {
            conn_.close();
            ack_partial_.clear();
            sent_seq_ = acked_; /** conservatively resend from the ack **/
        }
    }

    /** End of stream: replay until everything is acked, then send the EOF
     *  frame and wait for the final cumulative ack. Reconnects as needed;
     *  throws once the reconnect budget (one full connect policy per
     *  finish attempt, max_attempts attempts) is exhausted. */
    void finish()
    {
        std::size_t attempts = 0;
        for( ;; )
        {
            try
            {
                ensure_connected();
                transmit();
                if( !conn_.valid() )
                {
                    continue; /** transmit lost the link; reconnect **/
                }
                std::uint8_t eof[ 1 + sizeof( std::uint64_t ) ];
                eof[ 0 ] = scalar_eof_frame;
                std::memcpy( eof + 1, &next_seq_, sizeof( next_seq_ ) );
                conn_.send_all( eof, sizeof( eof ) );
                while( acked_ < next_seq_ )
                {
                    await_ack();
                }
                conn_.close();
                return;
            }
            catch( const net_exception & )
            {
                if( ++attempts >= std::max<std::size_t>(
                                      1, copts_.max_attempts ) )
                {
                    throw; /** the receiver is not coming back **/
                }
                conn_.close();
                ack_partial_.clear();
                sent_seq_ = acked_;
            }
        }
    }

    port &in_;
    std::string host_;
    std::uint16_t port_;
    connect_options copts_;
    std::string name_;
    tcp_connection conn_;
    std::deque<entry> replay_;
    std::vector<std::uint8_t> wire_;
    std::vector<std::uint8_t> ack_partial_;
    std::uint64_t next_seq_{ 0 }; /**< next sequence to assign          */
    std::uint64_t sent_seq_{ 0 }; /**< next sequence to transmit        */
    std::uint64_t acked_{ 0 };    /**< receiver's cumulative ack        */
    std::uint64_t high_water_{ 0 }; /**< highest seq ever transmitted   */
    bool ever_connected_{ false };
};

/** Source kernel on the receiving node: reliable counterpart of
 *  tcp_source<T>. Owns the listening socket so the sender can reconnect
 *  mid-stream. */
template <class T> class reliable_tcp_source : public kernel
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "TCP streams carry trivially copyable types" );

public:
    /** Frames acknowledged per cumulative ack (≪ sender window). */
    static constexpr std::uint64_t ack_interval = 32;

    explicit reliable_tcp_source( const std::uint16_t port = 0 )
        : kernel(), out_( output.addPort<T>( "0" ) ), listener_( port )
    {
    }

    /** The bound port (give this to the sink). */
    std::uint16_t port() const noexcept { return listener_.port(); }

    kstatus run() override
    {
        if( !conn_.valid() )
        {
            if( eof_done_ )
            {
                return raft::stop;
            }
            conn_ = listener_.accept();
            rx_.clear(); /** partial frame of a dead link is replayed **/
            try
            {
                conn_.send_all( &expected_, sizeof( expected_ ) );
            }
            catch( const net_exception & )
            {
                conn_.close();
                return raft::proceed;
            }
        }
        std::uint8_t buf[ 4096 ];
        std::size_t got = 0;
        try
        {
            got = conn_.recv_some( buf, sizeof( buf ) );
        }
        catch( const net_exception & )
        {
            conn_.close();
            return raft::proceed; /** sender will reconnect **/
        }
        if( got == 0 )
        {
            /** peer closed: done if the stream completed, else wait for
             *  the reconnect **/
            conn_.close();
            return eof_done_ ? raft::stop : raft::proceed;
        }
        rx_.insert( rx_.end(), buf, buf + got );
        parse();
        if( since_ack_ >= ack_interval || eof_done_ )
        {
            send_ack();
        }
        return raft::proceed;
    }

private:
    void send_ack()
    {
        since_ack_ = 0;
        try
        {
            conn_.send_all( &expected_, sizeof( expected_ ) );
        }
        catch( const net_exception & )
        {
            conn_.close();
        }
    }

    void parse()
    {
        constexpr std::size_t data_frame =
            1 + sizeof( std::uint64_t ) + sizeof( T );
        std::size_t off = 0;
        while( off < rx_.size() )
        {
            const auto sig = rx_[ off ];
            if( sig == scalar_heartbeat_frame )
            {
                ++off;
                continue;
            }
            if( sig == scalar_eof_frame )
            {
                if( rx_.size() - off < 1 + sizeof( std::uint64_t ) )
                {
                    break;
                }
                std::uint64_t end = 0;
                std::memcpy( &end, rx_.data() + off + 1, sizeof( end ) );
                off += 1 + sizeof( end );
                if( end != expected_ )
                {
                    throw net_exception(
                        "reliable stream: EOF at sequence " +
                        std::to_string( end ) + ", expected " +
                        std::to_string( expected_ ) );
                }
                eof_done_ = true;
                continue;
            }
            if( rx_.size() - off < data_frame )
            {
                break;
            }
            std::uint64_t seq = 0;
            std::memcpy( &seq, rx_.data() + off + 1, sizeof( seq ) );
            if( seq < expected_ )
            {
                /** duplicate from a replay overlap: drop **/
                if( telemetry::metrics_on() )
                {
                    telemetry::net_duplicate_frames_total().add();
                }
                off += data_frame;
                continue;
            }
            if( seq > expected_ )
            {
                throw net_exception(
                    "reliable stream: sequence gap (" +
                    std::to_string( seq ) + " > " +
                    std::to_string( expected_ ) + ")" );
            }
            T v;
            std::memcpy( &v, rx_.data() + off + 1 + sizeof( seq ),
                         sizeof( T ) );
            out_.push( v, decode_signal( rx_[ off ] ) );
            ++expected_;
            ++since_ack_;
            off += data_frame;
        }
        rx_.erase( rx_.begin(),
                   rx_.begin() + static_cast<std::ptrdiff_t>( off ) );
    }

    raft::port &out_;
    tcp_listener listener_;
    tcp_connection conn_;
    std::vector<std::uint8_t> rx_;
    std::uint64_t expected_{ 0 };
    std::uint64_t since_ack_{ 0 };
    bool eof_done_{ false };
};

} /** end namespace raft::net **/
