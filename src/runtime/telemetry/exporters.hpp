/**
 * exporters.hpp - telemetry exporters (runtime/telemetry/).
 *
 * Two ways out of the process for §4.1-style instrumentation (the run
 * report itself leaves through run_options::stats_out and its to_json()):
 *   - `prometheus_endpoint`: a minimal HTTP/1.0 server on the existing
 *     src/net/socket stack answering every request with the registry's
 *     text exposition (format 0.0.4) — point a Prometheus scraper or
 *     `examples/raft_top` at it while the graph runs;
 *   - `write_trace_file`: dump the tracer's Chrome trace_event JSON.
 **/
#ifndef RAFT_RUNTIME_TELEMETRY_EXPORTERS_HPP
#define RAFT_RUNTIME_TELEMETRY_EXPORTERS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "net/socket.hpp"

namespace raft
{

namespace telemetry
{

/** Serves registry::render_prometheus() over loopback TCP.  One accept
 *  thread, one request per connection (Connection: close) — scrape
 *  traffic is rare and tiny, so simplicity beats pooling.  The response
 *  is rendered outside any hot path; callback gauges are evaluated at
 *  scrape time under the registry mutex. **/
class prometheus_endpoint
{
public:
    /** binds 127.0.0.1:port (0 = ephemeral) and starts serving **/
    explicit prometheus_endpoint( std::uint16_t port = 0 );
    ~prometheus_endpoint();

    prometheus_endpoint( const prometheus_endpoint & )            = delete;
    prometheus_endpoint &operator=( const prometheus_endpoint & ) = delete;

    std::uint16_t port() const noexcept { return listener_.port(); }

    std::uint64_t scrapes() const noexcept
    {
        return scrapes_.load( std::memory_order_relaxed );
    }

    void stop() noexcept;

private:
    void loop();

    net::tcp_listener          listener_;
    std::atomic<bool>          running_{ true };
    std::atomic<std::uint64_t> scrapes_{ 0 };
    std::thread                thread_;
};

/** one-shot scrape helper (raft_top / tests): GET the exposition text
 *  from an endpoint; throws net_exception on connection failure **/
std::string scrape_prometheus( const std::string &host, std::uint16_t port );

/** write the tracer's Chrome trace JSON to `path` (best-effort: returns
 *  false on I/O failure instead of throwing — teardown must not mask a
 *  graph error with an export error) **/
bool write_trace_file( const std::string &path );

} /** end namespace telemetry **/
} /** end namespace raft **/

#endif /** RAFT_RUNTIME_TELEMETRY_EXPORTERS_HPP **/
