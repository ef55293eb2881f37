/**
 * telemetry.hpp - per-run telemetry session (runtime/telemetry/).
 *
 * map::exe() owns one of these when run_options::telemetry.enabled: the
 * constructor flips the global tracer/metrics switches and binds the
 * Prometheus endpoint (publishing the port through bound_port_out before
 * any kernel runs); watch_stream/register_kernel attach interned trace
 * names, live occupancy gauges and service-time probes as the graph is
 * bound; close() writes the Chrome trace and detaches everything while
 * the streams and kernels are still alive.
 *
 * Umbrella include for users: pulls in the tracer, registry, options and
 * exporters.
 **/
#ifndef RAFT_RUNTIME_TELEMETRY_TELEMETRY_HPP
#define RAFT_RUNTIME_TELEMETRY_TELEMETRY_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/telemetry/exporters.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/options.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft
{

class fifo_base;
class kernel;

namespace telemetry
{

class session
{
public:
    /** enables tracing/metrics and (if asked) binds the endpoint **/
    explicit session( const telemetry_options &opts );

    /** close()s if the owner forgot (exception-unwind path) **/
    ~session();

    session( const session & )            = delete;
    session &operator=( const session & ) = delete;

    /** attach tracer names + live occupancy/throughput series to one
     *  stream; `index` disambiguates replica lanes whose kernels share a
     *  name **/
    void watch_stream( fifo_base *f, const std::string &src,
                       const std::string &dst, std::size_t index );

    /** attach a service-time probe (runs, busy ns, run-duration
     *  histogram, lifetime span name) to one kernel **/
    void register_kernel( kernel *k );

    /** export a pull metric owned by this session (e.g. monitor ticks) **/
    void watch_callback( const std::string &name,
                         std::function<double()> fn,
                         const std::string &help = "" );

    /** bound Prometheus port (0 when not serving) **/
    std::uint16_t prometheus_port() const noexcept;

    /** write the trace file, detach probes/gauges, stop the endpoint,
     *  drop the enable refcounts.  Idempotent.  Must run while the
     *  watched streams/kernels are still alive; map::exe() calls it
     *  before unbinding ports. **/
    void close();

private:
    telemetry_options               opts_;
    registry::owner_t               owner_{ 0 };
    std::vector<kernel *>           kernels_;
    std::vector<std::unique_ptr<kernel_probe>> probes_;
    std::vector<fifo_base *>        streams_;
    std::unique_ptr<prometheus_endpoint> endpoint_;
    bool                            closed_{ false };
};

} /** end namespace telemetry **/
} /** end namespace raft **/

#endif /** RAFT_RUNTIME_TELEMETRY_TELEMETRY_HPP **/
