/**
 * socket.hpp — thin RAII wrappers over TCP sockets (loopback-oriented).
 *
 * Substrate for the distributed layer: "RaftLib seamlessly integrates
 * TCP/IP networks, and the parallelized execution on multiple distributed
 * compute nodes is transparent to the programmer" (§1). In this offline
 * reproduction nodes are processes/threads on one host, so links run over
 * 127.0.0.1 — the code path (connect, framing, EOF semantics) is the real
 * one.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace raft::net {

/**
 * Connection-establishment policy: retry a refused/failed connect with
 * exponential backoff plus deterministic jitter (de-synchronizes a herd of
 * reconnecting links without a global RNG). The default is the historical
 * single-shot behavior.
 */
struct connect_options
{
    std::size_t max_attempts{ 1 };
    std::chrono::nanoseconds initial_backoff{
        std::chrono::milliseconds( 10 ) };
    double backoff_multiplier{ 2.0 };
    std::chrono::nanoseconds max_backoff{ std::chrono::seconds( 1 ) };
    /** Each delay is scaled by a factor drawn from [1-jitter, 1+jitter]
     *  off a splitmix64 stream seeded with jitter_seed. */
    double jitter{ 0.1 };
    std::uint64_t jitter_seed{ 0x9e3779b97f4a7c15ull };

    /** Convenience: retry up to n attempts with the default curve. */
    static connect_options retry( const std::size_t n )
    {
        connect_options o;
        o.max_attempts = n;
        return o;
    }
};

/** Connected TCP socket: blocking, whole-message send/recv helpers. */
class tcp_connection
{
public:
    tcp_connection() = default;
    explicit tcp_connection( int fd ) : fd_( fd ) {}
    ~tcp_connection();

    tcp_connection( tcp_connection &&other ) noexcept;
    tcp_connection &operator=( tcp_connection &&other ) noexcept;
    tcp_connection( const tcp_connection & )            = delete;
    tcp_connection &operator=( const tcp_connection & ) = delete;

    /** Connect to host:port (throws net_exception on failure). */
    static tcp_connection connect( const std::string &host,
                                   std::uint16_t port );

    /** Connect with retry/backoff/jitter per `opts`; throws net_exception
     *  carrying the last errno once max_attempts are exhausted. */
    static tcp_connection connect( const std::string &host,
                                   std::uint16_t port,
                                   const connect_options &opts );

    bool valid() const noexcept { return fd_ >= 0; }
    int fd() const noexcept { return fd_; }

    /** Send exactly n bytes (throws on error / peer reset). */
    void send_all( const void *data, std::size_t n );

    /** Receive exactly n bytes. Returns false on clean EOF at a message
     *  boundary (0 bytes read so far); throws on mid-message EOF/error. */
    bool recv_all( void *data, std::size_t n );

    /** Receive up to n bytes in a single recv(2): blocks until at least one
     *  byte arrives, then returns whatever the kernel had buffered (the
     *  batched TCP source drains frames wholesale this way). Returns 0 on
     *  clean EOF; throws on error. */
    std::size_t recv_some( void *data, std::size_t n );

    /** Non-blocking receive of up to n bytes: returns the byte count
     *  (> 0), 0 when nothing is buffered yet, or -1 on clean EOF; throws
     *  on error. The reliable TCP sender drains acks this way between
     *  sends without stalling the stream. */
    std::ptrdiff_t recv_nowait( void *data, std::size_t n );

    /** Half-close the write side (signals EOF to the peer's reads). */
    void shutdown_write() noexcept;

    /** Hard-kill the link in place (both directions) without releasing
     *  the fd: the next send/recv on either end fails as if the network
     *  partitioned. Fault injection uses this; recovery is a reconnect. */
    void kill() noexcept;

    void close() noexcept;

private:
    int fd_{ -1 };
};

/** Listening socket bound to 127.0.0.1. Port 0 picks an ephemeral port. */
class tcp_listener
{
public:
    explicit tcp_listener( std::uint16_t port = 0 );
    ~tcp_listener();

    tcp_listener( const tcp_listener & )            = delete;
    tcp_listener &operator=( const tcp_listener & ) = delete;

    /** The actually bound port. */
    std::uint16_t port() const noexcept { return port_; }

    /** Block until a client connects. */
    tcp_connection accept();

    /** Safe to call from another thread while accept() blocks: it wakes
     *  the blocked accept() with an error. */
    void close() noexcept;

private:
    std::atomic<int> fd_{ -1 };
    std::uint16_t port_{ 0 };
};

} /** end namespace raft::net **/
