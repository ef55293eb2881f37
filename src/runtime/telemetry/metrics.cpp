/**
 * metrics.cpp - registry storage, Prometheus text rendering, and the
 * process-global counter accessors.
 **/
#include "runtime/telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

namespace raft
{
namespace telemetry
{

namespace
{

enum class kind : std::uint8_t
{
    counter_k,
    gauge_k,
    histogram_k,
    cb_gauge_k,
    cb_counter_k
};

const char *kind_type( const kind k ) noexcept
{
    switch( k )
    {
        case kind::counter_k:
        case kind::cb_counter_k: return "counter";
        case kind::gauge_k:
        case kind::cb_gauge_k:   return "gauge";
        case kind::histogram_k:  return "histogram";
    }
    return "untyped";
}

void escape_label( std::ostream &os, const std::string &v )
{
    for( const char c : v )
    {
        switch( c )
        {
            case '\\': os << "\\\\"; break;
            case '"':  os << "\\\""; break;
            case '\n': os << "\\n";  break;
            default:   os << c;
        }
    }
}

void render_labels( std::ostream &os, const labels_t &labels,
                    const char *extra_key = nullptr,
                    const std::string &extra_val = std::string() )
{
    if( labels.empty() && extra_key == nullptr )
    {
        return;
    }
    os << "{";
    bool first = true;
    for( const auto &l : labels )
    {
        if( !first )
        {
            os << ",";
        }
        first = false;
        os << l.first << "=\"";
        escape_label( os, l.second );
        os << "\"";
    }
    if( extra_key != nullptr )
    {
        if( !first )
        {
            os << ",";
        }
        os << extra_key << "=\"";
        escape_label( os, extra_val );
        os << "\"";
    }
    os << "}";
}

/** shortest %g within 1e-12 relative error: "1e-06" and "0.001" rather
 *  than 17-digit noise — integer-bound × scale is often one ulp off the
 *  round decimal, and le labels only need to stay distinct, not exact **/
std::string fmt_double( const double v )
{
    char buf[ 64 ];
    for( int prec = 1; prec <= 17; ++prec )
    {
        std::snprintf( buf, sizeof( buf ), "%.*g", prec, v );
        const auto back = std::strtod( buf, nullptr );
        if( back == v ||
            std::abs( back - v ) <= 1e-12 * std::abs( v ) )
        {
            break;
        }
    }
    return buf;
}

} /** end anonymous namespace **/

struct registry::impl
{
    struct metric
    {
        kind                        k;
        std::string                 name;
        labels_t                    labels;
        std::string                 help;
        owner_t                     owner;
        double                      scale{ 1.0 };
        std::unique_ptr<counter>    c;
        std::unique_ptr<gauge>      g;
        std::unique_ptr<histogram>  h;
        std::function<double()>     cb;
    };

    mutable std::mutex                  mutex;
    std::vector<std::unique_ptr<metric>> metrics;
    owner_t                             next_owner{ 1 };

    metric *find( const std::string &name, const labels_t &labels )
    {
        for( auto &m : metrics )
        {
            if( m->name == name && m->labels == labels )
            {
                return m.get();
            }
        }
        return nullptr;
    }
};

registry &registry::instance()
{
    static registry r;
    return r;
}

registry::impl &registry::self() const
{
    static impl i;
    return i;
}

registry::owner_t registry::make_owner()
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    return s.next_owner++;
}

void registry::release( const owner_t owner )
{
    if( owner == 0 )
    {
        return; /** process-global metrics are permanent **/
    }
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    s.metrics.erase(
        std::remove_if( s.metrics.begin(), s.metrics.end(),
                        [ owner ]( const auto &m )
                        { return m->owner == owner; } ),
        s.metrics.end() );
}

counter &registry::get_counter( const std::string &name, labels_t labels,
                                const std::string &help, const owner_t owner,
                                const double scale )
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    if( auto *m = s.find( name, labels ) )
    {
        return *m->c;
    }
    auto m   = std::make_unique<impl::metric>();
    m->k     = kind::counter_k;
    m->name  = name;
    m->labels = std::move( labels );
    m->help  = help;
    m->owner = owner;
    m->scale = scale;
    m->c     = std::make_unique<counter>();
    auto &ref = *m->c;
    s.metrics.emplace_back( std::move( m ) );
    return ref;
}

gauge &registry::get_gauge( const std::string &name, labels_t labels,
                            const std::string &help, const owner_t owner )
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    if( auto *m = s.find( name, labels ) )
    {
        return *m->g;
    }
    auto m   = std::make_unique<impl::metric>();
    m->k     = kind::gauge_k;
    m->name  = name;
    m->labels = std::move( labels );
    m->help  = help;
    m->owner = owner;
    m->g     = std::make_unique<gauge>();
    auto &ref = *m->g;
    s.metrics.emplace_back( std::move( m ) );
    return ref;
}

histogram &registry::get_histogram( const std::string &name,
                                    const std::vector<std::uint64_t> &bounds,
                                    const double scale, labels_t labels,
                                    const std::string &help,
                                    const owner_t owner )
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    if( auto *m = s.find( name, labels ) )
    {
        return *m->h;
    }
    auto m   = std::make_unique<impl::metric>();
    m->k     = kind::histogram_k;
    m->name  = name;
    m->labels = std::move( labels );
    m->help  = help;
    m->owner = owner;
    m->scale = scale;
    m->h     = std::make_unique<histogram>();
    m->h->configure( bounds, scale );
    auto &ref = *m->h;
    s.metrics.emplace_back( std::move( m ) );
    return ref;
}

void registry::add_callback_gauge( const std::string &name, labels_t labels,
                                   std::function<double()> fn,
                                   const std::string &help,
                                   const owner_t owner )
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    if( s.find( name, labels ) != nullptr )
    {
        return;
    }
    auto m    = std::make_unique<impl::metric>();
    m->k      = kind::cb_gauge_k;
    m->name   = name;
    m->labels = std::move( labels );
    m->help   = help;
    m->owner  = owner;
    m->cb     = std::move( fn );
    s.metrics.emplace_back( std::move( m ) );
}

void registry::add_callback_counter( const std::string &name, labels_t labels,
                                     std::function<double()> fn,
                                     const std::string &help,
                                     const owner_t owner )
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    if( s.find( name, labels ) != nullptr )
    {
        return;
    }
    auto m    = std::make_unique<impl::metric>();
    m->k      = kind::cb_counter_k;
    m->name   = name;
    m->labels = std::move( labels );
    m->help   = help;
    m->owner  = owner;
    m->cb     = std::move( fn );
    s.metrics.emplace_back( std::move( m ) );
}

std::string registry::render_prometheus() const
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    std::ostringstream os;
    /** families keep first-seen order; HELP/TYPE once per name **/
    std::vector<std::string> seen;
    for( const auto &m : s.metrics )
    {
        if( std::find( seen.begin(), seen.end(), m->name ) != seen.end() )
        {
            continue;
        }
        seen.push_back( m->name );
        if( !m->help.empty() )
        {
            os << "# HELP " << m->name << " " << m->help << "\n";
        }
        os << "# TYPE " << m->name << " " << kind_type( m->k ) << "\n";
        for( const auto &sample : s.metrics )
        {
            if( sample->name != m->name )
            {
                continue;
            }
            switch( sample->k )
            {
                case kind::counter_k:
                {
                    os << sample->name;
                    render_labels( os, sample->labels );
                    const auto raw = sample->c->value();
                    if( sample->scale == 1.0 )
                    {
                        os << " " << raw << "\n";
                    }
                    else
                    {
                        os << " "
                           << fmt_double( static_cast<double>( raw ) *
                                          sample->scale )
                           << "\n";
                    }
                    break;
                }
                case kind::gauge_k:
                {
                    os << sample->name;
                    render_labels( os, sample->labels );
                    os << " " << fmt_double( sample->g->value() ) << "\n";
                    break;
                }
                case kind::cb_gauge_k:
                case kind::cb_counter_k:
                {
                    os << sample->name;
                    render_labels( os, sample->labels );
                    os << " " << fmt_double( sample->cb() ) << "\n";
                    break;
                }
                case kind::histogram_k:
                {
                    const auto &h = *sample->h;
                    std::uint64_t cumulative = 0;
                    for( std::size_t b = 0; b < h.bound_count(); ++b )
                    {
                        cumulative += h.bucket( b );
                        os << sample->name << "_bucket";
                        render_labels(
                            os, sample->labels, "le",
                            fmt_double( static_cast<double>( h.bound( b ) ) *
                                        h.scale() ) );
                        os << " " << cumulative << "\n";
                    }
                    cumulative += h.bucket( h.bound_count() );
                    os << sample->name << "_bucket";
                    render_labels( os, sample->labels, "le", "+Inf" );
                    os << " " << cumulative << "\n";
                    os << sample->name << "_sum";
                    render_labels( os, sample->labels );
                    os << " "
                       << fmt_double( static_cast<double>( h.sum_raw() ) *
                                      h.scale() )
                       << "\n";
                    os << sample->name << "_count";
                    render_labels( os, sample->labels );
                    os << " " << cumulative << "\n";
                    break;
                }
            }
        }
    }
    return os.str();
}

std::size_t registry::size() const
{
    auto &s = self();
    std::lock_guard<std::mutex> guard( s.mutex );
    return s.metrics.size();
}

namespace
{
/** enable/disable refcount shares the registry mutex-free path: a plain
 *  atomic count is enough, sessions serialize on their own setup **/
std::atomic<int> metrics_enable_count{ 0 };
} /** end anonymous namespace **/

void metrics_enable()
{
    if( metrics_enable_count.fetch_add( 1, std::memory_order_relaxed ) == 0 )
    {
        detail::metrics_active.store( true, std::memory_order_relaxed );
    }
}

void metrics_disable()
{
    if( metrics_enable_count.fetch_sub( 1, std::memory_order_relaxed ) == 1 )
    {
        detail::metrics_active.store( false, std::memory_order_relaxed );
    }
}

/** ------- process-global counters ------- **/

namespace
{
counter &global_counter( const char *name, const char *help )
{
    return registry::instance().get_counter( name, {}, help, 0 );
}
} /** end anonymous namespace **/

counter &net_bytes_sent_total()
{
    static counter &c = global_counter(
        "raft_net_bytes_sent_total",
        "bytes written to sockets by net/ substrates" );
    return c;
}

counter &net_bytes_received_total()
{
    static counter &c = global_counter(
        "raft_net_bytes_received_total",
        "bytes read from sockets by net/ substrates" );
    return c;
}

counter &fifo_resizes_total()
{
    static counter &c = global_counter(
        "raft_fifo_resizes_total",
        "FIFO capacity changes applied by the monitor" );
    return c;
}

counter &predictive_resizes_total()
{
    static counter &c = global_counter(
        "raft_predictive_resizes_total",
        "FIFO grows requested ahead of the 3-delta rule by the elastic "
        "controller" );
    return c;
}

counter &elastic_grows_total()
{
    static counter &c = global_counter(
        "raft_elastic_grows_total",
        "replica lanes activated by the elastic controller" );
    return c;
}

counter &elastic_shrinks_total()
{
    static counter &c = global_counter(
        "raft_elastic_shrinks_total",
        "replica lanes quiesced by the elastic controller" );
    return c;
}

counter &supervisor_restarts_total()
{
    static counter &c = global_counter(
        "raft_supervisor_restarts_total",
        "kernel restarts granted by the supervisor" );
    return c;
}

counter &watchdog_stalls_total()
{
    static counter &c = global_counter(
        "raft_watchdog_stalls_total",
        "zero-progress stalls detected by the watchdog" );
    return c;
}

counter &graph_cancellations_total()
{
    static counter &c = global_counter(
        "raft_graph_cancellations_total",
        "graph-wide cancellations raised by the scheduler" );
    return c;
}

counter &inject_faults_total()
{
    static counter &c = global_counter(
        "raft_inject_faults_total",
        "faults fired by the injection harness" );
    return c;
}

} /** end namespace telemetry **/
} /** end namespace raft **/
