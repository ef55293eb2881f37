#include "core/map.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "analysis/analysis.hpp"
#include "core/exceptions.hpp"
#include "core/fifo.hpp"
#include "core/monitor.hpp"
#include "core/parallel.hpp"
#include "core/scheduler.hpp"
#include "runtime/elastic/elastic.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/telemetry/telemetry.hpp"

namespace raft {

void map::adopt( kernel *k )
{
    if( !k->internally_allocated() )
    {
        return;
    }
    for( const auto &o : owned_ )
    {
        if( o.get() == k )
        {
            return;
        }
    }
    owned_.emplace_back( k );
}

std::string map::resolve_port( kernel *k, port_container &ports,
                               const std::string &requested,
                               const char *side )
{
    if( !requested.empty() )
    {
        return requested;
    }
    std::string found;
    for( auto &p : ports )
    {
        if( !p.linked() )
        {
            if( !found.empty() )
            {
                throw port_exception(
                    "kernel " + k->name() + " has multiple unlinked " +
                    side + " ports; name one explicitly" );
            }
            found = p.name();
        }
    }
    if( found.empty() )
    {
        throw port_exception( "kernel " + k->name() +
                              " has no unlinked " + side + " port" );
    }
    return found;
}

kernel_pair map::link_impl( kernel *src, const std::string &src_port,
                            kernel *dst, const std::string &dst_port,
                            const order ord )
{
    /** adopt before validating: a kernel::make()'d kernel must not leak
     *  when the link is rejected */
    if( src != nullptr )
    {
        adopt( src );
    }
    if( dst != nullptr )
    {
        adopt( dst );
    }
    if( src == nullptr || dst == nullptr )
    {
        throw graph_exception( "link() given a null kernel" );
    }
    const auto sp = resolve_port( src, src->output, src_port, "output" );
    const auto dp = resolve_port( dst, dst->input, dst_port, "input" );
    port &out_p = src->output[ sp ];
    port &in_p  = dst->input[ dp ];
    if( out_p.linked() )
    {
        throw port_exception( "output port '" + sp + "' of " +
                              src->name() + " already linked" );
    }
    if( in_p.linked() )
    {
        throw port_exception( "input port '" + dp + "' of " +
                              dst->name() + " already linked" );
    }
    out_p.mark_linked();
    in_p.mark_linked();
    adopt( src );
    adopt( dst );
    topo_.add_edge( edge{ src, sp, dst, dp, ord } );
    return kernel_pair{ *src, *dst };
}

void map::exe( const run_options &opts )
{
    if( executed_ )
    {
        throw graph_exception(
            "map::exe() called twice — assemble a fresh map per run" );
    }
    if( topo_.empty() )
    {
        throw graph_exception( "map::exe() on an empty map" );
    }
    executed_ = true;

    /** 1. connectivity **/
    if( !topo_.connected() )
    {
        throw graph_exception(
            "application graph is not fully connected" );
    }

    /** 1b. static analysis (src/analysis/): lint the graph the user
     *  assembled, before any rewrite, and refuse to run on error-severity
     *  diagnostics. Non-convertible link types are excluded from the
     *  fail-fast set — the type-checking pass below throws its own
     *  link_type_exception with per-link detail. **/
    if( opts.analysis.enabled )
    {
        const auto rep = analysis::analyze( topo_, opts );
        std::string fatal;
        std::size_t fatal_count = 0;
        for( const auto &d : rep.diagnostics )
        {
            const bool counts =
                ( d.sev == analysis::severity::error &&
                  d.id != "incompatible-link-types" ) ||
                ( opts.analysis.warnings_as_errors &&
                  d.sev == analysis::severity::warning );
            if( counts )
            {
                fatal += "\n  " + d.to_string();
                ++fatal_count;
            }
        }
        if( fatal_count > 0 )
        {
            throw analysis_error(
                "graph analysis failed (" +
                std::to_string( fatal_count ) + " error" +
                ( fatal_count == 1 ? "" : "s" ) + ")" + fatal +
                "\n(inspect with raft::analyze; opt out via "
                "run_options::analysis)" );
        }
    }

    /** 2. automatic parallelization **/
    const bool elastic_on = opts.elastic.enabled;
    std::vector<replica_group> replica_groups;
    if( opts.enable_auto_parallel )
    {
        auto width = opts.replication_width != 0
                         ? opts.replication_width
                         : std::max<std::size_t>(
                               1, std::thread::hardware_concurrency() );
        std::size_t initial_active = 0; /** 0 = route to all lanes **/
        if( elastic_on )
        {
            /** pre-provision max_replicas lanes, start at min_replicas;
             *  the controller activates/retires lanes in between **/
            if( opts.elastic.max_replicas != 0 )
            {
                width = opts.elastic.max_replicas;
            }
            initial_active =
                opts.elastic.min_replicas == 0
                    ? 1
                    : ( opts.elastic.min_replicas > width
                            ? width
                            : opts.elastic.min_replicas );
        }
        apply_auto_parallel( topo_, width, opts.split_strategy, owned_,
                             initial_active,
                             elastic_on ? &replica_groups : nullptr );
    }

    /** 3. type checking + conversion adapters **/
    apply_type_conversions( topo_, owned_ );

    /** every declared port must now be part of some stream **/
    for( kernel *k : topo_.kernels() )
    {
        for( const auto &e : topo_.edges() )
        {
            if( e.src == k )
            {
                k->output[ e.src_port ].mark_linked();
            }
            if( e.dst == k )
            {
                k->input[ e.dst_port ].mark_linked();
            }
        }
        for( auto &p : k->input )
        {
            if( !p.linked() )
            {
                throw graph_exception( "input port '" + p.name() +
                                       "' of " + k->name() +
                                       " is not linked" );
            }
        }
        for( auto &p : k->output )
        {
            if( !p.linked() )
            {
                throw graph_exception( "output port '" + p.name() +
                                       "' of " + k->name() +
                                       " is not linked" );
            }
        }
    }

    /** 4. stream allocation & port binding.
     *  Declaration order matters: the controller must outlive the monitor
     *  (whose thread calls into it), so it is declared first — destroyed
     *  last — and constructed once the monitor knows every stream. **/
    std::unique_ptr<elastic::controller> ctrl;
    std::unique_ptr<runtime::supervisor> sup;
    if( opts.supervision.enabled )
    {
        sup = std::make_unique<runtime::supervisor>( opts.supervision );
        for( kernel *k : topo_.kernels() )
        {
            sup->register_kernel( k );
        }
    }
    std::vector<std::unique_ptr<fifo_base>> streams;
    streams.reserve( topo_.edges().size() );
    monitor mon( opts );
    /** Telemetry session: constructed before the stream loop so its
     *  registrations ride along, and declared after streams/mon so it is
     *  destroyed first — stream gauges and the monitor-tick callback
     *  never outlive what they sample, even on the unwind path.  The
     *  constructor publishes the Prometheus port (bound_port_out) before
     *  any kernel runs. **/
    std::unique_ptr<telemetry::session> tele;
    if( opts.telemetry.enabled )
    {
        tele = std::make_unique<telemetry::session>( opts.telemetry );
    }
    std::size_t stream_index = 0;
    for( auto &e : topo_.edges() )
    {
        port &out_p = e.src->output[ e.src_port ];
        port &in_p  = e.dst->input[ e.dst_port ];
        auto stream = out_p.meta().make_fifo( initial_stream_capacity(
            opts, out_p.meta().size,
            dynamic_cast<split_kernel *>( e.src ) != nullptr ) );
        out_p.bind( stream.get() );
        in_p.bind( stream.get() );
        mon.register_stream(
            stream.get(),
            monitor::stream_info{ e.src->name(), e.dst->name(),
                                  e.src_port, e.dst_port,
                                  out_p.meta().name } );
        if( tele != nullptr )
        {
            tele->watch_stream( stream.get(), e.src->name(),
                                e.dst->name(), stream_index );
        }
        ++stream_index;
        streams.push_back( std::move( stream ) );
    }
    if( elastic_on )
    {
        /** ports are bound now — the controller can resolve the split
         *  adapters' input/lane streams to monitor entries **/
        ctrl = std::make_unique<elastic::controller>( opts, mon );
        for( const auto &g : replica_groups )
        {
            ctrl->add_group( g );
        }
        mon.attach_elastic( ctrl.get() );
    }
    /** the scheduler keeps the supervisor for restarts either way; the
     *  monitor only needs it for the watchdog **/
    if( sup != nullptr && opts.supervision.watchdog_deadline.count() > 0 )
    {
        mon.attach_supervisor( sup.get() );
    }
    if( tele != nullptr )
    {
        for( kernel *k : topo_.kernels() )
        {
            tele->register_kernel( k );
        }
        tele->watch_callback(
            "raft_monitor_ticks_total",
            [ &mon ]() { return static_cast<double>( mon.ticks() ); },
            "monitor delta ticks this run" );
    }

    /** 5. async signal bus **/
    async_signal_bus bus;
    for( kernel *k : topo_.kernels() )
    {
        k->set_bus( &bus );
    }

    /** 6. run **/
    mon.start();
    const auto t0  = std::chrono::steady_clock::now();
    auto scheduler = make_scheduler( opts.scheduler );
    scheduler->set_supervisor( sup.get() );
    std::exception_ptr run_error;
    try
    {
        scheduler->execute( topo_.kernels(), opts );
    }
    catch( ... )
    {
        run_error = std::current_exception();
    }
    const auto t1 = std::chrono::steady_clock::now();
    mon.stop();

    /** 7. the run report (also before a graph_error is rethrown) **/
    if( opts.stats_out != nullptr )
    {
        auto &rep = *opts.stats_out;
        mon.collect( rep, std::chrono::duration<double>( t1 - t0 ).count() );
        if( ctrl != nullptr )
        {
            rep.elastic = ctrl->report();
        }
        if( sup != nullptr )
        {
            rep.supervision = sup->report();
        }
        if( tele != nullptr )
        {
            const auto ts = telemetry::trace_counters();
            rep.telemetry =
                runtime::trace_report{ ts.recorded, ts.dropped, ts.threads };
        }
    }

    /** 8. teardown **/
    if( tele != nullptr )
    {
        /** write the trace and detach probes while streams are still
         *  bound (close() is idempotent; the unique_ptr destructor is
         *  only the unwind-path fallback) **/
        tele->close();
    }
    for( kernel *k : topo_.kernels() )
    {
        k->set_bus( nullptr );
        for( auto &p : k->input )
        {
            p.unbind();
        }
        for( auto &p : k->output )
        {
            p.unbind();
        }
    }
    if( run_error )
    {
        std::rethrow_exception( run_error );
    }
}

} /** end namespace raft **/
