/**
 * A/B: what the runtime's optional subsystems cost a pipeline that does
 * not need them, and what the elastic controller buys one that does.
 *
 * Every overhead row runs one generate → xor_sink chain (no allocation
 * per element, so a run's memory traffic is the ring alone), arm a
 * without the subsystem and arm b with it:
 *
 *   - supervision: supervised execution with an armed watchdog that never
 *     fires (the supervisor rides the monitor thread);
 *   - injection: the fault-injection harness enabled with a plan that
 *     never matches (each kernel.run site probes the plan registry);
 *   - telemetry_off: two identical telemetry-off arms, the noise floor
 *     of the telemetry rows;
 *   - telemetry_metrics, telemetry_trace: the metrics registry and
 *     per-kernel accounting, then metrics plus the event tracer, on a
 *     one-worker pool (a fixed kernel interleaving);
 *   - telemetry_metrics_threads: the metrics cost on the thread scheduler;
 *   - elastic_control_loop: an attached elastic controller that finds no
 *     replica group, so only its δ-cadence ticks and estimator windows
 *     remain;
 *   - elastic_skewed: a 300 µs-per-item clonable worker, one static
 *     replica against the elastic controller with up to 4 (sleeping
 *     replicas overlap, so this needs no spare cores).
 *
 * Prints one JSON object (bench/ab.hpp); checked in as BENCH_overhead.json.
 * `--quick` is accepted: the A/B is the binary's only mode.
 * `--trace-out PATH` then runs the traced chain once more and exports its
 * Chrome trace to PATH.
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <raft.hpp>

#include "ab.hpp"

namespace {

using i64 = std::int64_t;
using namespace std::chrono_literals;

constexpr std::size_t items = 1'000'000;

class xor_sink : public raft::kernel
{
public:
    xor_sink()
    {
        input.addPort<i64>( "0" );
        set_name( "xor_sink" );
    }
    raft::kstatus run() override
    {
        i64 v = 0;
        input[ "0" ].pop( v );
        acc_ ^= v;
        return raft::proceed;
    }

private:
    i64 acc_{ 0 };
};

void chain( const raft::run_options &o )
{
    raft::map m;
    m.link( raft::kernel::make<raft::generate<i64>>(
                items, []( std::size_t i ) { return i64( i ); } ),
            raft::kernel::make<xor_sink>() );
    m.exe( o );
}

raft::run_options plain()
{
    raft::run_options o;
    o.initial_queue_capacity = 1u << 16; /** never resized **/
    return o;
}

raft::run_options supervised()
{
    auto o                          = plain();
    o.supervision.enabled           = true;
    o.supervision.watchdog_deadline = 5s;
    return o;
}

void chain_injection_armed()
{
    raft::runtime::inject::enable( 1 );
    raft::runtime::inject::plan p;
    p.site  = "kernel.run";
    p.match = "no-such-kernel";
    raft::runtime::inject::arm( p );
    chain( plain() );
    raft::runtime::inject::disable();
}

enum class level
{
    off,
    metrics,
    trace /** metrics and the event tracer **/
};

/** On a one-worker pool, or with `threads` on the thread scheduler. */
raft::run_options telemetry( const level l, const bool threads = false )
{
    auto o = plain();
    /** a 1 ms δ keeps the monitor's wake-ups out of the comparison **/
    o.monitor_delta = 1ms;
    if( !threads )
    {
        o.scheduler    = raft::scheduler_kind::pool;
        o.pool_threads = 1;
    }
    o.telemetry.enabled = l != level::off;
    o.telemetry.trace   = l == level::trace;
    return o;
}

raft::run_options elastic_control_loop( const bool elastic )
{
    auto o            = plain();
    o.monitor_delta   = 10us;
    o.elastic.enabled = elastic;
    return o;
}

/** Slow clonable middle kernel: fixed per-element service time. */
class sleepy_worker : public raft::kernel
{
public:
    sleepy_worker()
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v = input[ "0" ].pop_s<i64>();
        std::this_thread::sleep_for( 300us );
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = *v;
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override { return new sleepy_worker(); }
};

constexpr std::size_t skewed_items = 600;

/** generate → sleepy_worker → xor_sink; returns the peak replica count. */
std::size_t skewed( const bool elastic )
{
    raft::runtime::perf_snapshot rep;
    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::generate<i64>>(
            skewed_items, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<sleepy_worker>() );
    m.link<raft::out>( &( p.dst ), raft::kernel::make<xor_sink>() );
    raft::run_options o;
    o.enable_auto_parallel = true;
    o.replication_width    = elastic ? 0 : 1; /** 0 = the default **/
    if( elastic )
    {
        o.elastic.enabled        = true;
        o.elastic.max_replicas   = 4;
        o.elastic.control_period = 2ms;
        o.elastic.hysteresis     = 2;
        o.stats_out              = &rep;
    }
    m.exe( o );
    return !rep.elastic || rep.elastic->groups.empty()
               ? 1
               : rep.elastic->groups[ 0 ].peak_active;
}

} /** end anonymous namespace **/

int main( int argc, char **argv )
{
    std::string trace_out;
    for( int i = 1; i + 1 < argc; ++i )
    {
        if( std::strcmp( argv[ i ], "--trace-out" ) == 0 )
        {
            trace_out = argv[ i + 1 ];
        }
    }

    const std::string per_item =
        "one i64 through generate -> xor_sink, 1,000,000 per call";
    bench::doc d( "overhead" );
    d.row( "supervision", per_item + ", thread scheduler", items, "plain",
           [] { chain( plain() ); }, "supervised",
           [] { chain( supervised() ); } );
    d.row( "injection", per_item + ", thread scheduler", items, "disabled",
           [] { chain( plain() ); }, "armed_idle", chain_injection_armed );
    const auto pool_off = [] { chain( telemetry( level::off ) ); };
    d.row( "telemetry_off", per_item + ", one-worker pool", items, "off",
           pool_off, "off", pool_off );
    d.row( "telemetry_metrics", per_item + ", one-worker pool", items,
           "off", pool_off, "metrics",
           [] { chain( telemetry( level::metrics ) ); } );
    d.row( "telemetry_trace", per_item + ", one-worker pool", items, "off",
           pool_off, "metrics_trace",
           [] { chain( telemetry( level::trace ) ); } );
    d.row( "telemetry_metrics_threads", per_item + ", thread scheduler",
           items, "off", [] { chain( telemetry( level::off, true ) ); },
           "metrics", [] { chain( telemetry( level::metrics, true ) ); } );
    d.row( "elastic_control_loop",
           per_item + ", thread scheduler, 10 us monitor delta", items,
           "monitor", [] { chain( elastic_control_loop( false ) ); },
           "elastic", [] { chain( elastic_control_loop( true ) ); } );
    std::size_t peak = 0;
    d.row( "elastic_skewed",
           "one i64 through generate -> 300 us worker -> xor_sink, 600 "
           "per call; arm b may run up to 4 worker replicas",
           skewed_items, "static_1", [] { skewed( false ); },
           "elastic_max_4",
           [ &peak ] { peak = std::max( peak, skewed( true ) ); } );
    d.field( "elastic_skewed_peak_replicas", static_cast<double>( peak ) );
    d.print();

    if( !trace_out.empty() )
    {
        auto o                = telemetry( level::trace );
        o.telemetry.trace_out = trace_out;
        chain( o );
    }
    return 0;
}
