/**
 * A/B: telemetry layer overhead.
 *
 * The telemetry layer (runtime/telemetry/) promises that with
 * run_options::telemetry.enabled == false every instrumentation site —
 * tracer spans, metric counters, the per-kernel probe — costs exactly one
 * relaxed atomic load (or one null pointer check). This bench guards that
 * claim and records what the *enabled* path costs, so regressions in
 * either direction are visible:
 *
 *   - disabled: two identical telemetry-off arms (the gate: their
 *     measured difference is the bench's own noise floor and must stay
 *     <= 1%, which also bounds anything the disabled sites could cost);
 *   - metrics:  telemetry enabled with tracing off — registry wiring,
 *     per-kernel service accounting, occupancy gauges;
 *   - full:     metrics + tracer rings + one span per dispatch;
 *   - thread-scheduler metrics cost: the same accounting on the thread
 *     scheduler, whose dispatches are up to 64 run() calls long like the
 *     pool's, recorded but not gated.
 *
 * Methodology: the pipeline runs on the single-worker pool scheduler
 * (deterministic kernel interleaving — the 2-thread ping-pong of the
 * thread scheduler has multi-percent wall noise on shared hosts), arms
 * alternate B,T,B,T,... and each arm scores its MINIMUM wall time. Wall
 * noise on a loaded host is strictly additive, so interleaved minima
 * converge to the true floor of each arm; medians of per-pair ratios do
 * not at this noise level.
 *
 * `--quick` emits one JSON object with the host it ran on (checked in as
 * BENCH_telemetry.json and smoke-validated by ctest -L bench_smoke). `--trace-out PATH` makes the
 * last full-telemetry rep export its Chrome trace so CI can validate it.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <raft.hpp>

#include "host_json.hpp"

namespace {

using i64 = std::int64_t;

constexpr std::size_t items = 4'000'000;

enum class mode
{
    off,     /** telemetry_options::enabled == false (the hot default) **/
    metrics, /** registry + kernel probes, tracer off                  **/
    full     /** metrics + event tracer                                **/
};

/** Allocation-free sink: accumulates into a member, so a run's memory
 *  traffic is the ring alone (a growing output vector adds tens of MB of
 *  page faults whose timing varies run to run — noise this A/B can't
 *  afford). */
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
    i64 acc() const noexcept { return acc_; }

private:
    i64 acc_{ 0 };
};

double run_once( const mode m_, const bool pool_sched = true,
                 const std::string &trace_out = "" )
{
    raft::map m;
    m.link( raft::kernel::make<raft::generate<i64>>(
                items, []( std::size_t i ) { return i64( i ); } ),
            raft::kernel::make<xor_sink>() );
    raft::run_options o;
    o.initial_queue_capacity = 1u << 16;
    /** calm the monitor: its default 10 µs tick thread adds measurable
     *  scheduling noise to a 0.3 s single-worker run, and resize
     *  reactivity is irrelevant to this A/B (both arms identical) **/
    o.monitor_delta = std::chrono::milliseconds( 1 );
    if( pool_sched )
    {
        o.scheduler    = raft::scheduler_kind::pool;
        o.pool_threads = 1;
    }
    o.telemetry.enabled = m_ != mode::off;
    o.telemetry.trace   = m_ == mode::full;
    o.telemetry.trace_out = m_ == mode::full ? trace_out : "";
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0 )
        .count();
}

struct ab_result
{
    double base_wall{ 1e9 };
    double test_wall{ 1e9 };
    double overhead_pct{ 0.0 };
};

/** interleaved min-per-arm A/B (see header comment); the within-pair
 *  order flips halfway so neither arm systematically rides the warmer
 *  half of the measurement window **/
template <class BaseFn, class TestFn>
ab_result interleaved_ab( const int per_arm, BaseFn base, TestFn test )
{
    ab_result r;
    for( int i = 0; i < per_arm; ++i )
    {
        if( i < per_arm / 2 )
        {
            r.base_wall = std::min( r.base_wall, base() );
            r.test_wall = std::min( r.test_wall, test() );
        }
        else
        {
            r.test_wall = std::min( r.test_wall, test() );
            r.base_wall = std::min( r.base_wall, base() );
        }
    }
    r.overhead_pct =
        ( r.test_wall - r.base_wall ) / r.base_wall * 100.0;
    return r;
}

void print_quick_json( const ab_result &off, const ab_result &metrics,
                       const ab_result &full, const ab_result &thr )
{
    std::printf( "{\n" );
    std::printf( "  \"telemetry\":\n  {\n" );
    std::printf( "    \"bench\": \"telemetry_ab\",\n" );
    bench::print_host_json( "    " );
    std::printf( "    \"items\": %zu,\n", items );
    std::printf( "    \"disabled_overhead\": {\n" );
    std::printf( "      \"plain_wall_s\": %.4f,\n", off.base_wall );
    std::printf( "      \"telemetry_off_wall_s\": %.4f,\n",
                 off.test_wall );
    std::printf( "      \"overhead_pct\": %.2f\n", off.overhead_pct );
    std::printf( "    },\n" );
    std::printf( "    \"metrics_enabled_cost\": {\n" );
    std::printf( "      \"plain_wall_s\": %.4f,\n", metrics.base_wall );
    std::printf( "      \"metrics_wall_s\": %.4f,\n", metrics.test_wall );
    std::printf( "      \"overhead_pct\": %.2f\n", metrics.overhead_pct );
    std::printf( "    },\n" );
    std::printf( "    \"full_telemetry_cost\": {\n" );
    std::printf( "      \"plain_wall_s\": %.4f,\n", full.base_wall );
    std::printf( "      \"traced_wall_s\": %.4f,\n", full.test_wall );
    std::printf( "      \"overhead_pct\": %.2f\n", full.overhead_pct );
    std::printf( "    },\n" );
    std::printf( "    \"thread_scheduler_metrics_cost\": {\n" );
    std::printf( "      \"plain_wall_s\": %.4f,\n", thr.base_wall );
    std::printf( "      \"metrics_wall_s\": %.4f,\n", thr.test_wall );
    std::printf( "      \"overhead_pct\": %.2f\n", thr.overhead_pct );
    std::printf( "    }\n" );
    std::printf( "  }\n" );
    std::printf( "}\n" );
}

ab_result measure_off( const int per_arm )
{
    return interleaved_ab(
        per_arm, []() { return run_once( mode::off ); },
        []() { return run_once( mode::off ); } );
}

ab_result measure_metrics( const int per_arm )
{
    return interleaved_ab(
        per_arm, []() { return run_once( mode::off ); },
        []() { return run_once( mode::metrics ); } );
}

ab_result measure_full( const int per_arm, const std::string &trace_out )
{
    return interleaved_ab(
        per_arm, []() { return run_once( mode::off ); },
        [ & ]() { return run_once( mode::full, true, trace_out ); } );
}

ab_result measure_thread_sched( const int per_arm )
{
    return interleaved_ab(
        per_arm, []() { return run_once( mode::off, false ); },
        []() { return run_once( mode::metrics, false ); } );
}

int run_quick( const std::string &trace_out )
{
    ( void ) run_once( mode::full ); /** prime lazy globals **/
    ( void ) run_once( mode::off );  /** warm the off path   **/
    ( void ) run_once( mode::off );
    const auto off     = measure_off( 14 );
    const auto metrics = measure_metrics( 4 );
    const auto full    = measure_full( 4, trace_out );
    const auto thr     = measure_thread_sched( 2 );
    print_quick_json( off, metrics, full, thr );
    return 0;
}

} /** end anonymous namespace **/

int main( int argc, char **argv )
{
    std::string trace_out;
    bool quick = false;
    for( int i = 1; i < argc; ++i )
    {
        if( std::strcmp( argv[ i ], "--quick" ) == 0 )
        {
            quick = true;
        }
        else if( std::strcmp( argv[ i ], "--trace-out" ) == 0 &&
                 i + 1 < argc )
        {
            trace_out = argv[ ++i ];
        }
    }
    if( quick )
    {
        return run_quick( trace_out );
    }
    std::printf( "A/B: telemetry layer (%zu elements, interleaved "
                 "min-per-arm)\n\n", items );
    ( void ) run_once( mode::full ); /** prime lazy globals **/
    const auto off = measure_off( 10 );
    std::printf( "%-36s %-10.4f\n", "telemetry disabled (A)",
                 off.base_wall );
    std::printf( "%-36s %-10.4f %+.1f%%  (noise floor)\n",
                 "telemetry disabled (B)", off.test_wall,
                 off.overhead_pct );
    const auto metrics = measure_metrics( 6 );
    std::printf( "%-36s %-10.4f %+.1f%%\n", "metrics registry enabled",
                 metrics.test_wall, metrics.overhead_pct );
    const auto full = measure_full( 6, trace_out );
    std::printf( "%-36s %-10.4f %+.1f%%\n", "metrics + event tracer",
                 full.test_wall, full.overhead_pct );
    const auto thr = measure_thread_sched( 5 );
    std::printf( "%-36s %-10.4f %+.1f%%\n",
                 "thread scheduler, metrics enabled", thr.test_wall,
                 thr.overhead_pct );
    return 0;
}
