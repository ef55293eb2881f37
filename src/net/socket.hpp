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
#include <cstddef>
#include <cstdint>
#include <string>

namespace raft::net {

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

    bool valid() const noexcept { return fd_ >= 0; }
    int fd() const noexcept { return fd_; }

    /** Send exactly n bytes (throws on error / peer reset). */
    void send_all( const void *data, std::size_t n );

    /** Receive exactly n bytes. Returns false on clean EOF at a message
     *  boundary (0 bytes read so far); throws on mid-message EOF/error. */
    bool recv_all( void *data, std::size_t n );

    /** Receive up to n bytes in a single recv(2): blocks until at least one
     *  byte arrives, then returns whatever the kernel had buffered. Returns
     *  0 on clean EOF; throws on error. */
    std::size_t recv_some( void *data, std::size_t n );

    /** Half-close the write side (signals EOF to the peer's reads). */
    void shutdown_write() noexcept;

    /** Hard-kill the link in place (both directions) without releasing
     *  the fd: the next send/recv on either end fails as if the network
     *  partitioned. Fault injection uses this. */
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
