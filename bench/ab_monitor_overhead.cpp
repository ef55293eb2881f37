/**
 * E11 — ablation: monitoring overhead (§4.1: "The data collection process
 * itself is optimized to reduce overhead"). Runs the same pipeline with
 * the monitor off and on (resize rules plus the per-stream sample) across
 * monitor δ values, and reports the wall-time penalty of instrumentation.
 *
 * Extended with the elastic-runtime A/B (runtime/elastic/):
 *   - control-loop overhead: the same pipeline with the elastic controller
 *     riding the monitor thread vs. plain monitoring (target < 2%);
 *   - skewed-pipeline speedup: a slow clonable middle kernel under the
 *     elastic controller (replicas activated online) vs. a static single
 *     replica. Sleeping replicas overlap even on one core, so the speedup
 *     does not need spare cores.
 *
 * `--quick` emits the two A/Bs and the host they ran on as one JSON object
 * (checked in as BENCH_elastic.json and smoke-validated by ctest -L
 * bench_smoke).
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

double run_once( const bool monitor_on,
                 const std::chrono::nanoseconds delta )
{
    const std::size_t items = 400'000;
    std::vector<i64> out;
    out.reserve( items );
    raft::map m;
    auto p = m.link(
        raft::kernel::make<raft::generate<i64>>(
            items, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<raft::write_each<i64>>(
            std::back_inserter( out ) ) );
    (void) p;
    raft::run_options o;
    /** queue big enough that resizing never fires: what remains is the
     *  pure instrumentation cost **/
    o.initial_queue_capacity = 1u << 16;
    o.dynamic_resize = monitor_on; /** no stats_out: nothing else starts it **/
    o.monitor_delta  = delta;
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0 )
        .count();
}

double best_of( const int reps, const bool monitor_on,
                const std::chrono::nanoseconds delta )
{
    double best = 1e9;
    for( int r = 0; r < reps; ++r )
    {
        best = std::min( best, run_once( monitor_on, delta ) );
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* elastic runtime A/B                                                  */
/* ------------------------------------------------------------------ */

/** Same pipeline as run_once, with the elastic controller attached (it
 *  finds no replica group here, so what is measured is the pure cost of
 *  the control loop: δ-cadence monitor ticks + per-period estimate/policy
 *  over the monitor's samples). */
double run_elastic_overhead_once( const bool elastic )
{
    const std::size_t items = 2'000'000;
    std::vector<i64> out;
    out.reserve( items );
    raft::map m;
    auto p = m.link(
        raft::kernel::make<raft::generate<i64>>(
            items, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<raft::write_each<i64>>(
            std::back_inserter( out ) ) );
    (void) p;
    raft::run_options o;
    o.initial_queue_capacity = 1u << 16;
    o.monitor_delta          = std::chrono::microseconds( 10 );
    o.elastic.enabled        = elastic;
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0 )
        .count();
}

/** Slow clonable middle kernel: fixed per-element service time. */
class sleepy_worker : public raft::kernel
{
public:
    explicit sleepy_worker( const std::chrono::microseconds delay )
        : delay_( delay )
    {
        input.addPort<i64>( "0" );
        output.addPort<i64>( "0" );
    }
    raft::kstatus run() override
    {
        auto v = input[ "0" ].pop_s<i64>();
        std::this_thread::sleep_for( delay_ );
        auto out = output[ "0" ].allocate_s<i64>();
        ( *out ) = *v;
        return raft::proceed;
    }
    bool clone_supported() const override { return true; }
    raft::kernel *clone() const override
    {
        return new sleepy_worker( delay_ );
    }

private:
    std::chrono::microseconds delay_;
};

/** Skewed pipeline: fast source → 300 µs/element worker → sink. Elastic
 *  mode pre-provisions 4 lanes and lets the controller activate them;
 *  static mode runs the paper-default single replica. */
double run_skewed_once( const bool elastic, const std::size_t items,
                        std::size_t *peak_active )
{
    std::vector<i64> out;
    out.reserve( items );
    raft::runtime::perf_snapshot rep;
    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::generate<i64>>(
            items, []( std::size_t i ) { return i64( i ); } ),
        raft::kernel::make<sleepy_worker>(
            std::chrono::microseconds( 300 ) ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::write_each<i64>>(
                           std::back_inserter( out ) ) );
    raft::run_options o;
    o.enable_auto_parallel = true;
    if( elastic )
    {
        o.elastic.enabled        = true;
        o.elastic.max_replicas   = 4;
        o.elastic.control_period = std::chrono::milliseconds( 2 );
        o.elastic.hysteresis     = 2;
        o.stats_out              = &rep;
    }
    else
    {
        o.replication_width = 1; /** static single replica **/
    }
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    const auto wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0 )
                          .count();
    if( peak_active != nullptr )
    {
        *peak_active = !rep.elastic || rep.elastic->groups.empty()
                           ? 1
                           : rep.elastic->groups[ 0 ].peak_active;
    }
    return wall;
}

struct elastic_ab_result
{
    double base_wall{ 0.0 };
    double elastic_wall{ 0.0 };
    double overhead_pct{ 0.0 };
    std::size_t skew_items{ 0 };
    double static_wall{ 0.0 };
    double adaptive_wall{ 0.0 };
    double speedup{ 0.0 };
    std::size_t peak_active{ 1 };
};

elastic_ab_result run_elastic_ab( const int reps )
{
    elastic_ab_result r;
    r.base_wall    = 1e9;
    r.elastic_wall = 1e9;
    /** the control-loop cost is below the run-to-run noise, so measure
     *  back-to-back pairs — alternating which config goes first, since
     *  the second run of a pair is cache-warm — and take the median of
     *  the per-pair overheads, robust where best-of is not **/
    std::vector<double> overheads;
    for( int i = 0; i < reps; ++i )
    {
        double b = 0.0, e = 0.0;
        if( ( i & 1 ) == 0 )
        {
            b = run_elastic_overhead_once( false );
            e = run_elastic_overhead_once( true );
        }
        else
        {
            e = run_elastic_overhead_once( true );
            b = run_elastic_overhead_once( false );
        }
        r.base_wall    = std::min( r.base_wall, b );
        r.elastic_wall = std::min( r.elastic_wall, e );
        overheads.push_back( ( e - b ) / b * 100.0 );
    }
    std::sort( overheads.begin(), overheads.end() );
    r.overhead_pct = overheads[ overheads.size() / 2 ];

    r.skew_items    = 600;
    r.static_wall   = 1e9;
    r.adaptive_wall = 1e9;
    for( int i = 0; i < reps; ++i )
    {
        r.static_wall = std::min(
            r.static_wall, run_skewed_once( false, r.skew_items,
                                            nullptr ) );
        std::size_t peak = 1;
        const auto w = run_skewed_once( true, r.skew_items, &peak );
        if( w < r.adaptive_wall )
        {
            r.adaptive_wall = w;
            r.peak_active   = peak;
        }
    }
    r.speedup = r.static_wall / r.adaptive_wall;
    return r;
}

int run_quick()
{
    const auto r = run_elastic_ab( 9 );
    std::printf( "{\n" );
    std::printf( "  \"elastic\":\n  {\n" );
    std::printf( "    \"bench\": \"elastic_ab\",\n" );
    bench::print_host_json( "    " );
    std::printf( "    \"control_loop_overhead\": {\n" );
    std::printf( "      \"items\": 2000000,\n" );
    std::printf( "      \"monitor_wall_s\": %.4f,\n", r.base_wall );
    std::printf( "      \"elastic_wall_s\": %.4f,\n", r.elastic_wall );
    std::printf( "      \"overhead_pct\": %.2f\n", r.overhead_pct );
    std::printf( "    },\n" );
    std::printf( "    \"skewed_pipeline\": {\n" );
    std::printf( "      \"items\": %zu,\n", r.skew_items );
    std::printf( "      \"service_us\": 300,\n" );
    std::printf( "      \"max_replicas\": 4,\n" );
    std::printf( "      \"static_wall_s\": %.4f,\n", r.static_wall );
    std::printf( "      \"elastic_wall_s\": %.4f,\n", r.adaptive_wall );
    std::printf( "      \"peak_active\": %zu,\n", r.peak_active );
    std::printf( "      \"speedup\": %.3f\n", r.speedup );
    std::printf( "    }\n" );
    std::printf( "  }\n" );
    std::printf( "}\n" );
    return 0;
}

} /** end anonymous namespace **/

int main( int argc, char **argv )
{
    if( argc > 1 && std::strcmp( argv[ 1 ], "--quick" ) == 0 )
    {
        return run_quick();
    }
    using namespace std::chrono_literals;
    constexpr int reps = 5;
    std::printf( "Ablation: monitor overhead on a 400k-element "
                 "pipeline (best of %d runs)\n\n", reps );
    std::printf( "%-34s %-10s %-10s\n", "configuration", "wall_s",
                 "overhead" );

    const auto off = best_of( reps, false, 10us );
    std::printf( "%-34s %-10.4f %-10s\n", "monitor off", off, "-" );

    struct row
    {
        const char *name;
        std::chrono::nanoseconds delta;
    };
    const row rows[] = {
        { "monitor on, delta=10us", 10us },
        { "monitor on, delta=100us", 100us },
        { "monitor on, delta=1ms", 1ms },
    };
    for( const auto &r : rows )
    {
        const auto t = best_of( reps, true, r.delta );
        std::printf( "%-34s %-10.4f %+.1f%%\n", r.name, t,
                     ( t - off ) / off * 100.0 );
    }
    std::printf( "\nnote: the monitor ticks every delta only while a "
                 "writer is blocked on a queue that may still grow; "
                 "otherwise it samples about once per ms. What remains "
                 "is the per-stream sample and the thread's wake-ups, "
                 "which compete with the pipeline when cores are "
                 "scarce.\n" );

    std::printf( "\nElastic runtime A/B (best of %d runs)\n\n", reps );
    const auto e = run_elastic_ab( reps );
    std::printf( "%-34s %-10.4f\n", "monitor only", e.base_wall );
    std::printf( "%-34s %-10.4f %+.1f%%\n", "monitor + elastic controller",
                 e.elastic_wall, e.overhead_pct );
    std::printf( "\nskewed pipeline (%zu items, 300us service)\n",
                 e.skew_items );
    std::printf( "%-34s %-10.4f\n", "static 1 replica", e.static_wall );
    std::printf( "%-34s %-10.4f %.2fx (peak %zu replicas)\n",
                 "elastic (max 4)", e.adaptive_wall, e.speedup,
                 e.peak_active );
    return 0;
}
