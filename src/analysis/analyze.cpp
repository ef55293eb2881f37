#include "analysis/analysis.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/map.hpp"
#include "core/parallel.hpp"

namespace raft {
namespace analysis {

const char *severity_name( const severity s ) noexcept
{
    switch( s )
    {
        case severity::error:
            return "error";
        case severity::warning:
            return "warning";
        default:
            return "note";
    }
}

std::string diagnostic::to_string() const
{
    std::string out = "[" + std::string( severity_name( sev ) ) + "] " + id;
    if( !kernel.empty() )
    {
        out += " at " + kernel;
        if( !port.empty() )
        {
            out += "." + port;
        }
    }
    out += ": " + message;
    return out;
}

std::string report::to_string() const
{
    if( diagnostics.empty() )
    {
        return "analysis clean";
    }
    std::string out;
    for( const auto &d : diagnostics )
    {
        out += d.to_string() + "\n";
    }
    out += std::to_string( errors() ) + " error(s), " +
           std::to_string( warnings() ) + " warning(s), " +
           std::to_string( notes() ) + " note(s)";
    return out;
}

namespace {

std::string json_escape( const std::string &s )
{
    std::string out;
    out.reserve( s.size() + 8 );
    for( const char c : s )
    {
        switch( c )
        {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if( static_cast<unsigned char>( c ) < 0x20 )
                {
                    static const char hex[] = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[ ( c >> 4 ) & 0xf ];
                    out += hex[ c & 0xf ];
                }
                else
                {
                    out += c;
                }
        }
    }
    return out;
}

} /** end anonymous namespace **/

std::string report::to_json() const
{
    std::string out = "{\n  \"version\": 1,\n  \"summary\": { \"errors\": " +
                      std::to_string( errors() ) + ", \"warnings\": " +
                      std::to_string( warnings() ) + ", \"notes\": " +
                      std::to_string( notes() ) + " },\n  \"diagnostics\": [";
    bool first = true;
    for( const auto &d : diagnostics )
    {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    { \"severity\": \"" +
               std::string( severity_name( d.sev ) ) + "\", \"id\": \"" +
               json_escape( d.id ) + "\", \"kernel\": \"" +
               json_escape( d.kernel ) + "\", \"port\": \"" +
               json_escape( d.port ) + "\", \"message\": \"" +
               json_escape( d.message ) + "\" }";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

namespace {

class analyzer
{
public:
    analyzer( const topology &topo, const run_options &opts )
        : topo_( topo ), opts_( opts )
    {
    }

    report run()
    {
        if( topo_.kernels().empty() )
        {
            add( severity::error, "empty-graph", "", "",
                 "the graph has no kernels; nothing to execute" );
            return finish();
        }
        check_ports();
        check_connectivity();
        check_sources_and_sinks();
        check_cycles();
        check_link_types();
        check_replica_lanes();
        check_restart_policies();
        check_elastic_config();
        check_supervision_config();
        return finish();
    }

private:
    void add( const severity sev, std::string id, std::string kernel,
              std::string port, std::string message )
    {
        rep_.diagnostics.push_back(
            diagnostic{ sev, std::move( id ), std::move( kernel ),
                        std::move( port ), std::move( message ) } );
    }

    report finish()
    {
        std::stable_sort(
            rep_.diagnostics.begin(), rep_.diagnostics.end(),
            []( const diagnostic &a, const diagnostic &b )
            { return static_cast<int>( a.sev ) < static_cast<int>( b.sev ); } );
        return std::move( rep_ );
    }

    /** unconnected-port / double-link: every declared port must be part of
     *  exactly one stream. */
    void check_ports()
    {
        for( kernel *k : topo_.kernels() )
        {
            for( const auto &p : std::as_const( k->input ) )
            {
                const auto n = edge_count( k, p.name(), /*input=*/true );
                if( n == 0 )
                {
                    add( severity::error, "unconnected-port", k->name(),
                         p.name(),
                         "input port '" + p.name() + "' of " + k->name() +
                             " is not linked; the kernel would block on it "
                             "forever" );
                }
                else if( n > 1 )
                {
                    add( severity::error, "double-link", k->name(),
                         p.name(),
                         "input port '" + p.name() + "' of " + k->name() +
                             " is the destination of " + std::to_string( n ) +
                             " links; a port binds exactly one stream" );
                }
            }
            for( const auto &p : std::as_const( k->output ) )
            {
                const auto n = edge_count( k, p.name(), /*input=*/false );
                if( n == 0 )
                {
                    add( severity::error, "unconnected-port", k->name(),
                         p.name(),
                         "output port '" + p.name() + "' of " + k->name() +
                             " is not linked; everything it produces would "
                             "be lost" );
                }
                else if( n > 1 )
                {
                    add( severity::error, "double-link", k->name(),
                         p.name(),
                         "output port '" + p.name() + "' of " + k->name() +
                             " is the source of " + std::to_string( n ) +
                             " links; a port binds exactly one stream" );
                }
            }
        }
    }

    std::size_t edge_count( const kernel *k, const std::string &port,
                            const bool input ) const
    {
        std::size_t n = 0;
        for( const auto &e : topo_.edges() )
        {
            if( input )
            {
                n += ( e.dst == k && e.dst_port == port ) ? 1 : 0;
            }
            else
            {
                n += ( e.src == k && e.src_port == port ) ? 1 : 0;
            }
        }
        return n;
    }

    void check_connectivity()
    {
        const auto comps = topo_.weak_components();
        if( comps.size() > 1 )
        {
            add( severity::error, "disconnected-graph", "", "",
                 "the graph splits into " + std::to_string( comps.size() ) +
                     " disconnected components; every kernel must be "
                     "reachable from every other (assemble one map per "
                     "application, §4.2)" );
        }
    }

    /** no-source / no-sink, per weakly-connected component: a component
     *  without a source can never produce data (every kernel waits on an
     *  upstream that never fires); one without a sink has nowhere for data
     *  to drain, so it is a cycle — the cycle check names the loop. */
    void check_sources_and_sinks()
    {
        for( const auto &comp : topo_.weak_components() )
        {
            bool has_source = false;
            bool has_sink   = false;
            for( const auto i : comp )
            {
                kernel *k = topo_.kernels()[ i ];
                has_source = has_source || topo_.in_degree( k ) == 0;
                has_sink   = has_sink || topo_.out_degree( k ) == 0;
            }
            if( !has_source )
            {
                add( severity::error, "no-source",
                     topo_.kernels()[ comp.front() ]->name(), "",
                     "subgraph of " + std::to_string( comp.size() ) +
                         " kernel(s) has no source (a kernel with no input "
                         "ports); nothing in it can ever produce data" );
            }
            if( !has_sink )
            {
                add( severity::warning, "no-sink",
                     topo_.kernels()[ comp.front() ]->name(), "",
                     "subgraph of " + std::to_string( comp.size() ) +
                         " kernel(s) has no sink (a kernel with no output "
                         "ports); produced data can only accumulate in the "
                         "loop" );
            }
        }
    }

    /** deadlock-cycle: a directed cycle over finite FIFOs deadlocks once
     *  the in-flight window exceeds the total buffered capacity around the
     *  loop — every kernel on it then blocks pushing into a full queue.
     *  Capacity-aware severity: with dynamic resizing the monitor's 3δ
     *  rule grows each FIFO up to max_queue_capacity, deferring the bound
     *  (warning); without it the initial capacities are the bound and the
     *  hazard is immediate (error). */
    void check_cycles()
    {
        const auto adj = topo_.adjacency();
        const auto n   = topo_.kernels().size();
        /** colors: 0 = white, 1 = gray (on DFS path), 2 = black **/
        std::vector<int> color( n, 0 );
        std::vector<std::size_t> path;
        std::size_t reported = 0;
        /** recursive DFS, iterative form: (node, next child index) **/
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        for( std::size_t root = 0; root < n; ++root )
        {
            if( color[ root ] != 0 )
            {
                continue;
            }
            stack.emplace_back( root, 0 );
            color[ root ] = 1;
            path.push_back( root );
            while( !stack.empty() )
            {
                auto &[ node, child ] = stack.back();
                if( child < adj[ node ].size() )
                {
                    const auto next = adj[ node ][ child++ ];
                    if( color[ next ] == 0 )
                    {
                        color[ next ] = 1;
                        path.push_back( next );
                        stack.emplace_back( next, 0 );
                    }
                    else if( color[ next ] == 1 && reported < max_cycles )
                    {
                        report_cycle( path, next );
                        ++reported;
                    }
                }
                else
                {
                    color[ node ] = 2;
                    path.pop_back();
                    stack.pop_back();
                }
            }
        }
    }

    void report_cycle( const std::vector<std::size_t> &path,
                       const std::size_t entry )
    {
        auto it = std::find( path.begin(), path.end(), entry );
        std::string loop;
        std::size_t length    = 0;
        std::size_t fixed_cap = 0;
        for( ; it != path.end(); ++it )
        {
            loop += topo_.kernels()[ *it ]->name() + " -> ";
            ++length;
            const auto next = std::next( it ) == path.end() ? entry
                                                           : *std::next( it );
            fixed_cap += hop_capacity( *it, next );
        }
        loop += topo_.kernels()[ entry ]->name();
        if( opts_.dynamic_resize )
        {
            const auto grown_cap = length * opts_.max_queue_capacity;
            add( severity::warning, "deadlock-cycle",
                 topo_.kernels()[ entry ]->name(), "",
                 "cycle " + loop + " can deadlock once more than " +
                     std::to_string( grown_cap ) +
                     " elements are in flight around the loop; the "
                     "monitor's 3δ resize rule grows the " +
                     std::to_string( length ) + " FIFO(s) from " +
                     std::to_string( fixed_cap ) +
                     " total slots up to that bound but cannot remove it" );
        }
        else
        {
            add( severity::error, "deadlock-cycle",
                 topo_.kernels()[ entry ]->name(), "",
                 "cycle " + loop + " over finite FIFOs (" +
                     std::to_string( fixed_cap ) +
                     " total slots) can deadlock: once every queue on the "
                     "loop is full each kernel blocks pushing while no one "
                     "can pop, and dynamic resizing is disabled" );
        }
    }

    /** The initial capacity map::exe() gives the first stream from
     *  kernels()[from] to kernels()[to]. */
    std::size_t hop_capacity( const std::size_t from,
                              const std::size_t to ) const
    {
        const kernel *src = topo_.kernels()[ from ];
        const kernel *dst = topo_.kernels()[ to ];
        for( const auto &e : topo_.edges() )
        {
            if( e.src == src && e.dst == dst )
            {
                return initial_stream_capacity(
                    opts_, e.src->output[ e.src_port ].meta().size,
                    dynamic_cast<const split_kernel *>( e.src ) != nullptr );
            }
        }
        return 0;
    }

    /** incompatible-link-types / lossy-conversion: per-edge type audit.
     *  Non-convertible mismatches are errors (exe() defers the throw to
     *  the type-checking pass so its link_type_exception text is
     *  preserved); convertible-but-lossy links warn with the exact value
     *  classes that cannot survive the trip. */
    void check_link_types()
    {
        for( const auto &e : topo_.edges() )
        {
            const auto &src = e.src->output[ e.src_port ].meta();
            const auto &dst = e.dst->input[ e.dst_port ].meta();
            if( src.index == dst.index )
            {
                continue;
            }
            const std::string site = e.src->name() + "." + e.src_port +
                                     " (" + src.name + ") -> " +
                                     e.dst->name() + "." + e.dst_port +
                                     " (" + dst.name + ")";
            if( !src.arithmetic || !dst.arithmetic )
            {
                add( severity::error, "incompatible-link-types",
                     e.src->name(), e.src_port,
                     "link " + site +
                         ": types differ and are not convertible" );
                continue;
            }
            std::string loss;
            if( src.floating && !dst.floating )
            {
                loss = "fractional values are truncated";
            }
            else if( src.digits > dst.digits )
            {
                loss = ( src.floating || dst.floating )
                           ? "values above 2^" +
                                 std::to_string( dst.digits ) +
                                 " lose precision (" +
                                 std::to_string( src.digits ) + " -> " +
                                 std::to_string( dst.digits ) +
                                 " significand bits)"
                           : "values above " + std::to_string( dst.digits ) +
                                 " bits are truncated";
            }
            else if( src.is_signed && !dst.is_signed )
            {
                loss = "negative values wrap";
            }
            if( !loss.empty() )
            {
                add( severity::warning, "lossy-conversion", e.src->name(),
                     e.src_port,
                     "link " + site +
                         ": the spliced conversion adapter is lossy — " +
                         loss );
            }
        }
    }

    /** ooo-unsafe-replica-lane: an order-sensitive kernel must not end up
     *  behind a split adapter, where replica lanes receive elements out
     *  of order. Two sightings: the pre-rewrite candidate (clonable kernel
     *  whose every stream is raft::out — exactly what apply_auto_parallel
     *  replicates) and the structural case of a split adapter already
     *  feeding it. What reads the kernel's output (a reduce, a merge)
     *  cannot reorder its input, so it is not checked. */
    void check_replica_lanes()
    {
        for( kernel *k : topo_.kernels() )
        {
            if( !k->order_sensitive() )
            {
                continue;
            }
            if( k->clone_supported() && replication_candidate( k ) )
            {
                if( opts_.enable_auto_parallel )
                {
                    add( severity::error, "ooo-unsafe-replica-lane",
                         k->name(), "",
                         k->name() +
                             " is order-sensitive, yet it is clonable and "
                             "every stream touching it is raft::out — "
                             "auto-parallelization would replicate it into "
                             "split/reduce lanes that reorder elements; "
                             "link it in_order or drop clone()" );
                }
                else
                {
                    add( severity::note, "ooo-unsafe-replica-lane",
                         k->name(), "",
                         k->name() +
                             " is an order-sensitive replication candidate; "
                             "safe only while enable_auto_parallel stays "
                             "off" );
                }
            }
            for( const auto &e : topo_.edges() )
            {
                if( e.dst == k &&
                    dynamic_cast<split_kernel *>( e.src ) != nullptr )
                {
                    add( severity::error, "ooo-unsafe-replica-lane",
                         k->name(), "",
                         k->name() +
                             " is order-sensitive but sits inside a "
                             "split/reduce replica lane, which delivers "
                             "elements out of order" );
                    break;
                }
            }
        }
    }

    bool replication_candidate( const kernel *k ) const
    {
        bool touched = false;
        for( const auto &e : topo_.edges() )
        {
            if( e.src == k || e.dst == k )
            {
                touched = true;
                if( e.ord != raft::out )
                {
                    return false;
                }
            }
        }
        return touched;
    }

    /** restart-no-reset / restart-policy-inert: supervised restart re-enters
     *  run() in place, so a kernel holding cross-invocation state must reset
     *  it (on_restart + restart_safe); a policy without supervision enabled
     *  does nothing at all. */
    void check_restart_policies()
    {
        for( kernel *k : topo_.kernels() )
        {
            const restart_policy *explicit_p = k->restart();
            if( !opts_.supervision.enabled )
            {
                if( explicit_p != nullptr && explicit_p->max_restarts > 0 )
                {
                    add( severity::note, "restart-policy-inert", k->name(),
                         "",
                         k->name() +
                             " sets a restart policy but supervision is "
                             "disabled; enable run_options::supervision for "
                             "it to take effect" );
                }
                continue;
            }
            const restart_policy &eff =
                explicit_p != nullptr ? *explicit_p
                                      : opts_.supervision.default_restart;
            if( eff.max_restarts > 0 && !k->restart_safe() )
            {
                add( severity::warning, "restart-no-reset", k->name(), "",
                     k->name() + " can be restarted up to " +
                         std::to_string( eff.max_restarts ) +
                         " time(s) but does not declare restart_safe(); a "
                         "half-finished run() may leave internal state "
                         "behind — override on_restart() to reset it and "
                         "restart_safe() to acknowledge" );
            }
        }
    }

    void check_elastic_config()
    {
        const auto &e = opts_.elastic;
        if( !e.enabled )
        {
            return;
        }
        if( e.max_replicas != 0 && e.min_replicas > e.max_replicas )
        {
            add( severity::error, "elastic-bounds", "", "",
                 "elastic_options: min_replicas (" +
                     std::to_string( e.min_replicas ) +
                     ") exceeds max_replicas (" +
                     std::to_string( e.max_replicas ) +
                     "); the controller has no valid lane count" );
        }
        if( !opts_.enable_auto_parallel )
        {
            add( severity::warning, "elastic-without-auto-parallel", "", "",
                 "the elastic controller actuates replica lanes created by "
                 "auto-parallelization, which is disabled; it can only "
                 "resize FIFOs" );
            return;
        }
        bool candidate = false;
        for( kernel *k : topo_.kernels() )
        {
            candidate = candidate || ( k->clone_supported() &&
                                       replication_candidate( k ) );
        }
        if( !candidate )
        {
            add( severity::note, "elastic-no-candidates", "", "",
                 "elastic runtime enabled but no kernel is clonable with "
                 "all-raft::out links; the controller has no replica lanes "
                 "to activate or retire" );
        }
    }

    void check_supervision_config()
    {
        const auto &s = opts_.supervision;
        if( s.enabled && s.watchdog_deadline.count() > 0 &&
            s.watchdog_deadline < opts_.monitor_delta )
        {
            add( severity::warning, "watchdog-too-tight", "", "",
                 "supervision watchdog deadline (" +
                     std::to_string( s.watchdog_deadline.count() ) +
                     " ns) is shorter than the monitor δ (" +
                     std::to_string( opts_.monitor_delta.count() ) +
                     " ns); progress is sampled once per δ, so every "
                     "tick would look stalled" );
        }
    }

    static constexpr std::size_t max_cycles = 8;

    const topology &topo_;
    const run_options &opts_;
    report rep_;
};

} /** end anonymous namespace **/

report analyze( const topology &topo, const run_options &opts )
{
    return analyzer( topo, opts ).run();
}

} /** end namespace analysis **/

analysis::report analyze( const map &m, const run_options &opts )
{
    return analysis::analyze( m.graph(), opts );
}

} /** end namespace raft **/
