/**
 * session.cpp - wiring one map::exe() run into the tracer, registry and
 * exporters.
 **/
#include "runtime/telemetry/telemetry.hpp"

#include <string>

#include "core/fifo.hpp"
#include "core/kernel.hpp"

namespace raft
{
namespace telemetry
{

namespace
{
/** run-duration histogram bounds: 1 µs .. 1 s in decades (raw ns,
 *  exported in seconds via scale 1e-9) **/
const std::vector<std::uint64_t> run_seconds_bounds_ns{
    1000,      10000,      100000,     1000000,
    10000000,  100000000,  1000000000 };
} /** end anonymous namespace **/

session::session( const telemetry_options &opts ) : opts_( opts )
{
    metrics_enable();
    if( opts_.trace )
    {
        trace_enable( opts_.trace_ring_capacity );
    }
    owner_ = registry::instance().make_owner();
    if( opts_.serve_prometheus )
    {
        endpoint_ =
            std::make_unique<prometheus_endpoint>( opts_.prometheus_port );
        if( opts_.bound_port_out != nullptr )
        {
            *opts_.bound_port_out = endpoint_->port();
        }
    }
}

session::~session()
{
    close();
}

void session::watch_stream( fifo_base *f, const std::string &src,
                            const std::string &dst, const std::size_t index )
{
    if( closed_ || f == nullptr )
    {
        return;
    }
    streams_.push_back( f );
    const auto idx = std::to_string( index );
    if( opts_.trace )
    {
        f->set_telemetry_names(
            intern( "push_block " + src + "->" + dst + " #" + idx ),
            intern( "pop_block " + src + "->" + dst + " #" + idx ) );
    }
    const labels_t labels{ { "src", src },
                           { "dst", dst },
                           { "stream", idx } };
    auto &reg = registry::instance();
    reg.add_callback_gauge(
        "raft_stream_occupancy", labels,
        [ f ]() { return static_cast<double>( f->size() ); },
        "live queue occupancy in elements", owner_ );
    reg.add_callback_gauge(
        "raft_stream_capacity", labels,
        [ f ]() { return static_cast<double>( f->capacity() ); },
        "live queue capacity in elements", owner_ );
    reg.add_callback_counter(
        "raft_stream_pushed_total", labels,
        [ f ]() { return static_cast<double>( f->total_pushed() ); },
        "elements pushed over the stream's lifetime", owner_ );
    reg.add_callback_counter(
        "raft_stream_popped_total", labels,
        [ f ]() { return static_cast<double>( f->total_popped() ); },
        "elements popped over the stream's lifetime", owner_ );
    reg.add_callback_counter(
        "raft_stream_resizes_total", labels,
        [ f ]() { return static_cast<double>( f->resize_count() ); },
        "capacity changes applied to this stream", owner_ );
}

void session::register_kernel( kernel *k )
{
    if( closed_ || k == nullptr )
    {
        return;
    }
    auto probe = std::make_unique<kernel_probe>();
    const labels_t labels{ { "kernel", k->name() },
                           { "id", std::to_string( k->get_id() ) } };
    auto &reg      = registry::instance();
    probe->runs    = &reg.get_counter(
        "raft_kernel_runs_total", labels,
        "run() invocations completed by this kernel", owner_ );
    probe->busy_ns = &reg.get_counter(
        "raft_kernel_busy_seconds_total", labels,
        "wall time spent inside run()", owner_, 1e-9 );
    probe->run_hist = &reg.get_histogram(
        "raft_kernel_run_seconds", run_seconds_bounds_ns, 1e-9, labels,
        "per-invocation service time distribution", owner_ );
    if( opts_.trace )
    {
        probe->trace_name = intern(
            "kernel " + k->name() + " #" + std::to_string( k->get_id() ) );
    }
    auto *p = probe.get();
    reg.add_callback_gauge(
        "raft_kernel_service_rate_hz", labels,
        [ p ]()
        {
            const auto busy = p->busy_ns->value();
            return busy == 0
                       ? 0.0
                       : static_cast<double>( p->runs->value() ) /
                             ( static_cast<double>( busy ) * 1e-9 );
        },
        "run() invocations per busy second (non-blocking service rate)",
        owner_ );
    k->set_probe( p );
    kernels_.push_back( k );
    probes_.emplace_back( std::move( probe ) );
}

void session::watch_callback( const std::string &name,
                              std::function<double()> fn,
                              const std::string &help )
{
    if( closed_ )
    {
        return;
    }
    registry::instance().add_callback_counter( name, {}, std::move( fn ),
                                               help, owner_ );
}

std::uint16_t session::prometheus_port() const noexcept
{
    return endpoint_ != nullptr ? endpoint_->port() : 0;
}

void session::close()
{
    if( closed_ )
    {
        return;
    }
    closed_ = true;
    /** stop serving before tearing anything down: no scrape may touch a
     *  stream callback past this point **/
    if( endpoint_ != nullptr )
    {
        endpoint_->stop();
    }
    if( opts_.trace && !opts_.trace_out.empty() )
    {
        (void) write_trace_file( opts_.trace_out );
    }
    for( auto *k : kernels_ )
    {
        k->set_probe( nullptr );
    }
    for( auto *f : streams_ )
    {
        f->set_telemetry_names( 0, 0 );
    }
    registry::instance().release( owner_ );
    if( opts_.trace )
    {
        trace_disable();
    }
    metrics_disable();
}

} /** end namespace telemetry **/
} /** end namespace raft **/
