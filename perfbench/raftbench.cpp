/**
 * raftbench — one workload of the repository benchmark, run for a fixed
 * time, printed as one JSON line.
 *
 *   raftbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * The workload's inputs are built from the seed before anything is timed.
 * One checked warm-up rep follows, then reps repeat until `--seconds` have
 * passed (at least min_reps each). Every rep runs under a deadline; a rep
 * that overruns is reported as failed and not waited on. With --trace 0
 * every rep is untraced and the line carries the end-to-end metrics; with
 * --trace 1 traced and untraced reps alternate, the line carries the
 * per-layer metrics, and trace.overhead_frac compares the two kinds.
 *
 * Output: {"correct", "attempted", "failed", "metrics": {name: {value,
 * unit}}, "samples": {name: [per-rep values]}, "detail": {...}}. Exit code
 * 0 when every rep passed its oracle, 1 otherwise, 2 on bad arguments.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <algo/corpus.hpp>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int min_reps            = 3;
constexpr double rep_deadline_s   = 30.0;
/** Stop starting reps this long past --seconds, whatever min_reps says. */
constexpr double overtime_limit_s = 60.0;

struct args
{
    std::string workload;
    std::uint64_t seed{ 0 };
    double seconds{ 0 };
    bool trace{ false };
};

bool parse( const int argc, char **argv, args &a )
{
    bool have[ 4 ] = {};
    for( int i = 1; i + 1 < argc; i += 2 )
    {
        const std::string k = argv[ i ];
        const char *v       = argv[ i + 1 ];
        char *end           = nullptr;
        if( k == "--workload" )
        {
            a.workload = v;
            have[ 0 ]  = true;
        }
        else if( k == "--seed" )
        {
            a.seed    = std::strtoull( v, &end, 10 );
            have[ 1 ] = *end == '\0';
        }
        else if( k == "--seconds" )
        {
            a.seconds = std::strtod( v, &end );
            have[ 2 ] = *end == '\0' && a.seconds > 0;
        }
        else if( k == "--trace" )
        {
            a.trace   = std::strcmp( v, "1" ) == 0;
            have[ 3 ] = a.trace || std::strcmp( v, "0" ) == 0;
        }
        else
        {
            return false;
        }
    }
    return have[ 0 ] && have[ 1 ] && have[ 2 ] && have[ 3 ];
}

std::string json_number( const double v )
{
    if( !std::isfinite( v ) )
    {
        return "null";
    }
    char buf[ 40 ];
    std::snprintf( buf, sizeof buf, "%.17g", v );
    return buf;
}

std::string json_string( const std::string &s )
{
    std::string out = "\"";
    for( const char c : s )
    {
        if( c == '"' || c == '\\' )
        {
            out += '\\';
        }
        out += static_cast<unsigned char>( c ) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

/** Everything the final JSON line reports. */
class report
{
public:
    void metric( const std::string &name, const char *unit,
                 const double value,
                 const std::vector<double> &samples = {} )
    {
        metrics_ += ( metrics_.empty() ? "" : ", " ) + json_string( name ) +
                    ": {\"value\": " + json_number( value ) +
                    ", \"unit\": " + json_string( unit ) + "}";
        if( !samples.empty() )
        {
            sample( name, samples );
        }
    }

    void sample( const std::string &name, const std::vector<double> &v )
    {
        std::string arr;
        for( const auto x : v )
        {
            arr += ( arr.empty() ? "" : ", " ) + json_number( x );
        }
        samples_ += ( samples_.empty() ? "" : ", " ) + json_string( name ) +
                    ": [" + arr + "]";
    }

    void detail( const std::string &name, const std::string &json )
    {
        detail_ += ( detail_.empty() ? "" : ", " ) + json_string( name ) +
                   ": " + json;
    }

    void print( const bool correct, const int attempted,
                const int failed ) const
    {
        std::printf( "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                     "\"metrics\": {%s}, \"samples\": {%s}, "
                     "\"detail\": {%s}}\n",
                     correct ? "true" : "false", attempted, failed,
                     metrics_.c_str(), samples_.c_str(), detail_.c_str() );
        std::fflush( stdout );
    }

private:
    std::string metrics_, samples_, detail_;
};

double primary_value( const std::string &primary, const rep_result &r )
{
    if( primary == "items_per_s" )
    {
        return r.items / r.exe_s;
    }
    if( primary == "mb_per_s" )
    {
        return r.mib / r.exe_s;
    }
    return r.on_time_frac;
}

template <class F>
std::vector<double> each( const std::vector<rep_result> &reps, F &&f )
{
    std::vector<double> v;
    v.reserve( reps.size() );
    for( const auto &r : reps )
    {
        v.push_back( f( r ) );
    }
    return v;
}

/** The q-quantile (the median by default) over reps of one per-rep
 *  figure, with the raw samples. */
template <class F>
void per_rep( report &out, const std::vector<rep_result> &reps,
              const std::string &name, const char *unit, F &&f,
              const double q = 0.5 )
{
    const auto v = each( reps, f );
    out.metric( name, unit, quantile( v, q ), v );
}

/**
 * The host takes its virtual CPUs away for milliseconds now and then, and
 * how often drifts from minute to minute. A rep that loses CPU that way
 * sets up later, runs slower and is charged less CPU (stolen time is not
 * the process's); the share of such reps moves a median between runs. So
 * these figures are the quartile on the far side from that loss: the lower
 * quartile of setup_s, the upper quartile of the rates and cpu_cores.
 * on_time_frac stays the median, since its upper quartile is often exactly
 * 1 on paced_chain and so would not show a change.
 */
void end_to_end( report &out, const std::vector<rep_result> &reps )
{
    constexpr double lower = 0.25;
    constexpr double upper = 0.75;
    per_rep(
        out, reps, "setup_s", "s",
        []( const rep_result &r ) { return r.setup_s; }, lower );
    per_rep(
        out, reps, "items_per_s", "1/s",
        []( const rep_result &r ) { return r.items / r.exe_s; }, upper );
    per_rep(
        out, reps, "mb_per_s", "MiB/s",
        []( const rep_result &r ) { return r.mib / r.exe_s; }, upper );
    per_rep( out, reps, "on_time_frac", "fraction",
             []( const rep_result &r ) { return r.on_time_frac; } );
    per_rep(
        out, reps, "cpu_cores", "cores",
        []( const rep_result &r ) { return r.cpu_cores; }, upper );
    out.metric( "peak_rss_mb", "MiB", peak_rss_mib() );
}

void kernel_metrics( report &out, const std::vector<rep_result> &reps,
                     const std::string &k,
                     const kernel_summary trace_rep::*role )
{
    const auto of = [ role ]( auto field ) {
        return [ role, field ]( const rep_result &r ) {
            return r.trace.*role.*field;
        };
    };
    per_rep( out, reps, "sched.run_calls." + k, "count",
             of( &kernel_summary::run_calls ) );
    per_rep( out, reps, "sched.run_gap_ns_p50." + k, "ns",
             of( &kernel_summary::gap_ns_p50 ) );
    per_rep( out, reps, "kernel.busy_frac." + k, "fraction",
             of( &kernel_summary::busy_frac ) );
    per_rep( out, reps, "port.pop_frac." + k, "fraction",
             of( &kernel_summary::pop_frac ) );
    per_rep( out, reps, "port.pop_ns_p50." + k, "ns",
             of( &kernel_summary::pop_ns_p50 ) );
    if( role == &trace_rep::stage )
    {
        per_rep( out, reps, "port.push_frac." + k, "fraction",
                 of( &kernel_summary::push_frac ) );
        per_rep( out, reps, "port.push_ns_p50." + k, "ns",
                 of( &kernel_summary::push_ns_p50 ) );
    }
}

void per_layer( report &out, const std::vector<rep_result> &traced,
                const std::vector<rep_result> &untraced,
                const std::string &primary )
{
    per_rep( out, traced, "map.link_s", "s",
             []( const rep_result &r ) { return r.trace.link_s; } );
    per_rep( out, traced, "map.exe_prerun_s", "s",
             []( const rep_result &r ) { return r.trace.exe_prerun_s; } );
    per_rep( out, traced, "analysis.analyze_s", "s",
             []( const rep_result &r ) { return r.trace.analyze_s; } );
    per_rep( out, traced, "mapping.detect_s", "s",
             []( const rep_result &r ) { return r.trace.detect_s; } );
    per_rep( out, traced, "mapping.partition_s", "s",
             []( const rep_result &r ) { return r.trace.partition_s; } );
    kernel_metrics( out, traced, "stage", &trace_rep::stage );
    kernel_metrics( out, traced, "sink", &trace_rep::sink );
    per_rep( out, traced, "monitor.tick_hz", "1/s",
             []( const rep_result &r ) { return r.trace.monitor_tick_hz; } );
    per_rep( out, traced, "fifo.resizes", "count",
             []( const rep_result &r ) { return r.trace.fifo_resizes; } );
    per_rep( out, traced, "fifo.capacity_bytes_final", "bytes",
             []( const rep_result &r ) {
                 return r.trace.fifo_capacity_bytes_final;
             } );
    per_rep( out, traced, "fifo.util_p95.stage_in", "fraction",
             []( const rep_result &r ) {
                 return r.trace.fifo_util_p95_stage_in;
             } );
    per_rep( out, traced, "fifo.util_p95.stage_out", "fraction",
             []( const rep_result &r ) {
                 return r.trace.fifo_util_p95_stage_out;
             } );
    per_rep( out, traced, "parallel.lane_skew_cv", "ratio",
             []( const rep_result &r ) { return r.trace.lane_skew_cv; } );
    const auto q = []( auto member, const double p ) {
        return [ member, p ]( const rep_result &r ) {
            return quantile( r.trace.*member, p );
        };
    };
    per_rep( out, traced, "stream.hop_wait_us_p50.stage_sink", "us",
             q( &trace_rep::hop_wait_us, 0.50 ) );
    per_rep( out, traced, "stream.hop_wait_us_p99.stage_sink", "us",
             q( &trace_rep::hop_wait_us, 0.99 ) );
    per_rep( out, traced, "bench.latency_us_p50", "us",
             q( &trace_rep::latency_us, 0.50 ) );
    per_rep( out, traced, "bench.latency_us_p90", "us",
             q( &trace_rep::latency_us, 0.90 ) );
    per_rep( out, traced, "bench.latency_us_p99", "us",
             q( &trace_rep::latency_us, 0.99 ) );
    const auto pv = [ &primary ]( const rep_result &r ) {
        return primary_value( primary, r );
    };
    const auto with    = median( each( traced, pv ) );
    const auto without = median( each( untraced, pv ) );
    out.metric( "trace.overhead_frac", "fraction",
                without > 0 ? 1.0 - with / without : 0.0 );
    out.sample( "untraced." + primary, each( untraced, pv ) );
    out.sample( "traced." + primary, each( traced, pv ) );
}

} /** end anonymous namespace **/

int main( int argc, char **argv )
{
    args a;
    if( !parse( argc, argv, a ) )
    {
        std::fprintf( stderr,
                      "usage: raftbench --workload <name> --seed <n> "
                      "--seconds <s> --trace <0|1>\n" );
        return 2;
    }
    const auto wl = make_workload( a.workload, a.seed );
    if( wl == nullptr )
    {
        std::fprintf( stderr, "raftbench: unknown workload '%s'\n",
                      a.workload.c_str() );
        return 2;
    }

    report out;
    /** single-thread layer probes, traced runs only, before any graph **/
    if( a.trace )
    {
        out.metric( "ring.push_pop_ns", "ns", probe_ring_ns() );
        out.metric( "fifo.push_pop_ns", "ns", probe_fifo_ns() );
        out.metric( "port.cached_push_pop_ns", "ns", probe_port_cached_ns() );
        out.metric( "port.named_push_pop_ns", "ns", probe_port_named_ns() );
        out.metric( "monitor.tick_ns_per_stream", "ns",
                    probe_monitor_tick_ns_per_stream() );
        raft::algo::corpus_options o;
        o.size_bytes      = 16u << 20;
        o.seed            = a.seed;
        o.pattern         = search_pattern;
        o.implant_per_mib = 4.0;
        out.metric( "algo.ac_mb_per_s", "MiB/s",
                    probe_ac_mib_per_s( raft::algo::make_corpus( o ),
                                        search_pattern ) );
    }

    std::vector<rep_result> untraced, traced;
    std::vector<std::string> errors;
    int attempted = 0;
    int failed    = 0;

    const auto emit = [ & ]( const bool overran ) {
        if( a.trace )
        {
            per_layer( out, traced, untraced, wl->primary() );
        }
        else
        {
            end_to_end( out, untraced );
        }
        const auto lag = each( untraced.empty() ? traced : untraced,
                               []( const rep_result &r ) {
                                   return r.gen_lag_p99_us;
                               } );
        out.detail( "gen_lag_p99_us", json_number( median( lag ) ) );
        out.detail( "fail_frac",
                    json_number( attempted == 0
                                     ? 0.0
                                     : static_cast<double>( failed ) /
                                           attempted ) );
        out.detail( "overran", overran ? "true" : "false" );
        std::string errs;
        for( const auto &e : errors )
        {
            errs += ( errs.empty() ? "" : ", " ) + json_string( e );
        }
        out.detail( "errors", "[" + errs + "]" );
        out.print( failed == 0 && !overran, attempted, failed );
    };

    /** One rep on its own thread, under the deadline. An overrun rep is
     *  not waited on: report it and end the process with it running. */
    const auto rep = [ & ]( const bool with_trace, const bool keep ) {
        ++attempted;
        std::packaged_task<rep_result()> task(
            [ &wl, with_trace ] { return wl->run( with_trace ); } );
        auto done = task.get_future();
        std::thread worker( std::move( task ) );
        if( done.wait_for( std::chrono::duration<double>( rep_deadline_s ) ) ==
            std::future_status::timeout )
        {
            ++failed;
            errors.push_back(
                "rep overran its " +
                std::to_string( static_cast<int>( rep_deadline_s ) ) +
                " s deadline" );
            emit( true );
            std::_Exit( 1 );
        }
        worker.join();
        try
        {
            auto r = done.get();
            if( !r.correct )
            {
                ++failed;
                errors.push_back( r.error );
            }
            else if( keep )
            {
                ( with_trace ? traced : untraced ).push_back( std::move( r ) );
            }
        }
        catch( const std::exception &e )
        {
            ++failed;
            errors.emplace_back( e.what() );
        }
    };

    /** warm-up: first-touch page faults and lazy set-up, checked but not
     *  sampled **/
    rep( false, false );
    const auto start = now_ns();
    for( int i = 0;; ++i )
    {
        const auto elapsed = static_cast<double>( now_ns() - start ) / 1e9;
        const bool enough =
            untraced.size() >= min_reps &&
            ( !a.trace || traced.size() >= min_reps );
        if( ( elapsed >= a.seconds && enough ) ||
            elapsed >= a.seconds + overtime_limit_s )
        {
            break;
        }
        rep( a.trace && i % 2 == 1, true );
    }
    emit( false );
    return failed == 0 ? 0 : 1;
}
