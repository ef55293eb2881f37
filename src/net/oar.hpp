/**
 * oar.hpp — the "oar" node mesh (§4.1).
 *
 * "A separate system called 'oar' is a mesh of network clients that
 * continually feed system information to each other. This information is
 * provided to RaftLib in order to continuously optimize and monitor Raft
 * kernels executing on multiple systems."
 *
 * Each oar_node runs a TCP listener; peers connect with connect_to(). A
 * heartbeat thread periodically pushes this node's status (load, free
 * queue capacity, kernel count) down every established link; a receiver
 * thread per link keeps a registry of the freshest status per peer. The
 * registry is what a distributed mapper would consult for "least loaded
 * node" decisions (exercised in tests and the distributed example).
 *
 * Remote compile-and-execute is out of scope (future work in the paper as
 * well); see DESIGN.md §7.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace raft::net {

/** One node's self-reported status (wire format: trivially copyable). */
struct node_status
{
    std::uint32_t node_id{ 0 };
    std::uint32_t kernel_count{ 0 };
    double load{ 0.0 };          /**< app-defined load metric        */
    double free_capacity{ 0.0 }; /**< app-defined headroom metric    */
    std::int64_t timestamp_ns{ 0 };
};

class oar_node
{
public:
    /** Start a node: listener on an ephemeral loopback port, heartbeat
     *  every `interval`. */
    oar_node( std::uint32_t node_id,
              std::chrono::milliseconds interval =
                  std::chrono::milliseconds( 20 ) );
    ~oar_node();

    oar_node( const oar_node & )            = delete;
    oar_node &operator=( const oar_node & ) = delete;

    std::uint16_t port() const noexcept;
    std::uint32_t id() const noexcept { return id_; }

    /** Establish a bidirectional status link to a peer node. */
    void connect_to( const std::string &host, std::uint16_t port );

    /** Update the status this node gossips. */
    void set_load( double load, double free_capacity,
                   std::uint32_t kernel_count );

    /** Freshest status received from each peer. */
    std::map<std::uint32_t, node_status> registry() const;

    /** Peer with the lowest load (this node excluded); nullopt-style:
     *  returns own id when no peers are known. */
    std::uint32_t least_loaded_peer() const;

    /** Number of established links (inbound + outbound). */
    std::size_t link_count() const;

    void stop();

private:
    void accept_loop();
    void receive_loop( std::size_t link_index );
    void heartbeat_loop();
    node_status self_status() const;

    std::uint32_t id_;
    std::chrono::milliseconds interval_;
    tcp_listener listener_;

    /** One status link. A failed heartbeat send marks it down and shuts
     *  it down (tcp_connection::kill); its fd is closed only by stop(),
     *  after its receive thread has returned. */
    struct link
    {
        tcp_connection conn;
        bool up{ true };
    };

    mutable std::mutex mutex_;
    /** deque: element references stay valid across push_back, so receiver
     *  threads can hold a link pointer while new peers join */
    std::deque<link> links_;
    std::map<std::uint32_t, node_status> registry_;
    node_status self_{};

    std::atomic<bool> running_{ true };
    std::thread accept_thread_;
    std::thread heartbeat_thread_;
    std::vector<std::thread> receivers_;
};

} /** end namespace raft::net **/
