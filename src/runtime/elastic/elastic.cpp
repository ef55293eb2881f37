#include "runtime/elastic/elastic.hpp"

#include <cmath>
#include <cstring>

#include "core/monitor.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft::elastic {

namespace {

policy_config make_policy_config( const elastic_options &cfg,
                                  const std::size_t min_active,
                                  const std::size_t max_active )
{
    policy_config p;
    p.hysteresis = cfg.hysteresis == 0 ? 1 : cfg.hysteresis;
    p.min_active = min_active;
    p.max_active = max_active;
    return p;
}

/** Coefficient of variation of the active lanes' mean occupancy
 *  fractions; 0 when the lanes are essentially empty (no skew signal in
 *  starvation). */
double lane_skew( const std::vector<double> &occ )
{
    if( occ.size() < 2 )
    {
        return 0.0;
    }
    double mean = 0.0;
    for( const auto v : occ )
    {
        mean += v;
    }
    mean /= static_cast<double>( occ.size() );
    if( mean < 0.02 )
    {
        return 0.0;
    }
    double var = 0.0;
    for( const auto v : occ )
    {
        var += ( v - mean ) * ( v - mean );
    }
    var /= static_cast<double>( occ.size() );
    return std::sqrt( var ) / mean;
}

/** The monitor entry of stream f; the entry count if f is unknown. */
std::size_t entry_of( const monitor &mon, const fifo_base *f )
{
    const auto &es = mon.streams();
    std::size_t i  = 0;
    while( i < es.size() && es[ i ].f != f )
    {
        ++i;
    }
    return i;
}

} /** end anonymous namespace **/

controller::~controller()
{
    if( tele_owner_ != 0 )
    {
        telemetry::registry::instance().release( tele_owner_ );
    }
}

controller::controller( const run_options &opts, const monitor &mon )
    : mon_( mon ), cfg_( opts.elastic ),
      dynamic_resize_( opts.dynamic_resize ),
      max_queue_capacity_( opts.max_queue_capacity )
{
    period_ns_ = cfg_.control_period.count();
    const auto delta = opts.monitor_delta.count();
    if( period_ns_ < delta )
    {
        period_ns_ = delta; /** can't control faster than we sample **/
    }
    streams_.assign( mon_.streams().size(),
                     stream_state{ rate_estimator(), 0 } );
}

void controller::add_group( const replica_group &g )
{
    if( g.splits.empty() )
    {
        return; /** nothing to actuate without a split adapter **/
    }
    group_state gs;
    gs.name             = g.kernel_name;
    gs.splits           = g.splits;
    split_kernel *first = g.splits.front();
    gs.input            = entry_of( mon_, &first->input[ "0" ].raw() );
    bool known          = gs.input < streams_.size();
    for( std::size_t i = 0; i < first->width(); ++i )
    {
        gs.lanes.push_back( entry_of(
            mon_, &first->output[ std::to_string( i ) ].raw() ) );
        known = known && gs.lanes.back() < streams_.size();
    }
    if( !known )
    {
        return;
    }
    gs.max_active       = first->width();
    gs.min_active       = cfg_.min_replicas == 0 ? 1 : cfg_.min_replicas;
    if( gs.min_active > gs.max_active )
    {
        gs.min_active = gs.max_active;
    }
    gs.active = first->active();

    const auto pcfg =
        make_policy_config( cfg_, gs.min_active, gs.max_active );
    gs.policy         = replica_policy( pcfg );
    gs.strategy       = strategy_policy( pcfg );
    gs.strict_routing = first->strategy_strict();

    gs.rep.kernel_name = g.kernel_name;
    gs.rep.min_active  = gs.min_active;
    gs.rep.max_active  = gs.max_active;
    gs.rep.peak_active = gs.active;

    /** telemetry attachment — map::exe constructs the session before
     *  add_group runs, so the switches tell us whether to export **/
    if( telemetry::metrics_on() )
    {
        if( tele_owner_ == 0 )
        {
            tele_owner_ = telemetry::registry::instance().make_owner();
        }
        gs.active_gauge = &telemetry::registry::instance().get_gauge(
            "raft_elastic_active_replicas",
            { { "kernel", g.kernel_name } },
            "replica lanes currently routed to by the split adapters",
            tele_owner_ );
        gs.active_gauge->set( static_cast<double>( gs.active ) );
    }
    if( telemetry::tracing() )
    {
        gs.trace_activate =
            telemetry::intern( "replica_activate " + g.kernel_name );
        gs.trace_quiesce =
            telemetry::intern( "replica_quiesce " + g.kernel_name );
    }
    groups_.push_back( std::move( gs ) );
}

void controller::on_tick( const std::int64_t now_ns )
{
    if( last_control_ns_ == 0 )
    {
        last_control_ns_ = now_ns;
        return;
    }
    if( now_ns - last_control_ns_ < period_ns_ )
    {
        return;
    }
    const auto dt_s =
        static_cast<double>( now_ns - last_control_ns_ ) / 1e9;
    last_control_ns_ = now_ns;
    control_window( dt_s );
}

void controller::control_window( const double dt_s )
{
    ++control_ticks_;
    const auto &entries = mon_.streams();
    for( std::size_t i = 0; i < streams_.size(); ++i )
    {
        fifo_base &f = *entries[ i ].f;
        streams_[ i ].est.window( entries[ i ].sample, f.total_pushed(),
                                  f.total_popped(), dt_s );
    }
    /** replica actuation first: a resize below may wait on the stream's
     *  ends, and lane activation should not wait behind it **/
    for( auto &g : groups_ )
    {
        control_group( g );
    }

    /** predictive FIFO sizing over every stream **/
    if( !cfg_.predictive_resize || !dynamic_resize_ )
    {
        return;
    }
    for( std::size_t i = 0; i < streams_.size(); ++i )
    {
        auto &s = streams_[ i ];
        if( s.cooldown > 0 )
        {
            --s.cooldown;
            continue;
        }
        if( s.est.windows() < 2 )
        {
            continue; /** estimates still warming up **/
        }
        fifo_base &f    = *entries[ i ].f;
        const auto want = predict_capacity(
            s.est.arrival_hz(), s.est.service_hz(),
            s.est.mean_occupancy_fraction(), f.capacity(),
            max_queue_capacity_ );
        if( want != 0 && f.resize( want ) )
        {
            ++predictive_resizes_;
            s.cooldown = 4; /** let the new capacity show effect **/
            if( telemetry::metrics_on() )
            {
                telemetry::predictive_resizes_total().add();
            }
            if( telemetry::tracing() )
            {
                const auto &info = entries[ i ].info;
                telemetry::instant_str( "predictive_resize " +
                                            info.src_kernel + "->" +
                                            info.dst_kernel,
                                        telemetry::cat::elastic, want );
            }
        }
    }
}

void controller::control_group( group_state &g )
{
    const auto &input = streams_[ g.input ].est;
    /** aggregate the per-replica non-blocking service rate over lanes
     *  with a warmed-up estimate **/
    double mu_sum   = 0.0;
    std::size_t mun = 0;
    for( const auto l : g.lanes )
    {
        const auto &est = streams_[ l ].est;
        if( est.service_valid() )
        {
            mu_sum += est.service_hz();
            ++mun;
        }
    }

    group_estimate e;
    e.lambda         = input.arrival_hz();
    e.mu             = mun == 0 ? 0.0
                                : mu_sum / static_cast<double>( mun );
    e.input_pressure = input.mean_occupancy_fraction();
    e.active         = g.active;
    e.rates_valid    = input.arrival_valid() && mun > 0 &&
                       input.windows() >= 2;

    std::vector<double> occ;
    occ.reserve( g.active );
    for( std::size_t i = 0; i < g.active && i < g.lanes.size(); ++i )
    {
        occ.push_back(
            streams_[ g.lanes[ i ] ].est.mean_occupancy_fraction() );
    }
    e.lane_skew = lane_skew( occ );

    const auto delta = g.policy.decide( e );
    if( delta != 0 )
    {
        g.active = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>( g.active ) + delta );
        for( auto *sp : g.splits )
        {
            sp->set_active( g.active );
        }
        if( delta > 0 )
        {
            ++g.rep.grows;
            if( telemetry::metrics_on() )
            {
                telemetry::elastic_grows_total().add();
            }
            telemetry::instant( g.trace_activate, telemetry::cat::elastic,
                                g.active );
        }
        else
        {
            ++g.rep.shrinks;
            if( telemetry::metrics_on() )
            {
                telemetry::elastic_shrinks_total().add();
            }
            telemetry::instant( g.trace_quiesce, telemetry::cat::elastic,
                                g.active );
        }
        if( g.active_gauge != nullptr )
        {
            g.active_gauge->set( static_cast<double>( g.active ) );
        }
        if( g.active > g.rep.peak_active )
        {
            g.rep.peak_active = g.active;
        }
    }

    if( g.strict_routing && g.strategy.want_least_utilized( e ) )
    {
        for( auto *sp : g.splits )
        {
            sp->request_strategy( split_kind::least_utilized );
        }
        g.strict_routing = false;
        ++g.rep.strategy_switches;
    }

    g.rep.lambda_hz = e.lambda;
    g.rep.mu_hz     = e.mu;
    g.rep.rho       = g.policy.utilization( e );
    if( e.rates_valid )
    {
        const auto md = g.policy.model_desired( e.lambda, e.mu );
        if( md > g.rep.model_desired )
        {
            g.rep.model_desired = md;
        }
    }
}

runtime::elastic_report controller::report() const
{
    runtime::elastic_report r;
    r.control_ticks      = control_ticks_;
    r.predictive_resizes = predictive_resizes_;
    for( const auto &g : groups_ )
    {
        const auto &hist          = mon_.streams()[ g.input ].sample.hist;
        auto rep                  = g.rep;
        rep.final_active          = g.active;
        rep.input_p50_utilization = hist.p50();
        rep.input_p95_utilization = hist.p95();
        r.groups.push_back( std::move( rep ) );
    }
    return r;
}

} /** end namespace raft::elastic **/
