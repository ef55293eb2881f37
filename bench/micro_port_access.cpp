/**
 * E8 — port access-method overhead (§4.2: "There are multiple calls to
 * perform push and pop style operations, each embodies some type of copy
 * semantic"). Compares raw pop/push against the RAII pop_s/allocate_s
 * accessors of Figure 2, the peek_range sliding window of §3, and the
 * batched allocate_range/pop_s(n) windows.
 *
 * Modes:
 *   (default)  google-benchmark suite
 *   --quick    port-layer scalar-vs-batched A/B, emits one JSON object
 *              on stdout (bench_smoke ctest entry validates it)
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>

#include <core/kernel.hpp>
#include <core/ringbuffer.hpp>

#include "host_json.hpp"

namespace {

struct harness
{
    raft::ring_buffer<std::uint64_t> q{ 256 };
};

void bm_raw_pop( benchmark::State &state )
{
    harness h;
    std::uint64_t i = 0;
    for( auto _ : state )
    {
        h.q.push( i++ );
        std::uint64_t v = 0;
        h.q.pop( v );
        benchmark::DoNotOptimize( v );
    }
    state.SetItemsProcessed( state.iterations() );
}
BENCHMARK( bm_raw_pop );

void bm_pop_s_autorelease( benchmark::State &state )
{
    harness h;
    std::uint64_t i = 0;
    for( auto _ : state )
    {
        h.q.push( i++ );
        {
            auto a = h.q.pop_s();
            benchmark::DoNotOptimize( *a );
        }
    }
    state.SetItemsProcessed( state.iterations() );
}
BENCHMARK( bm_pop_s_autorelease );

void bm_allocate_s_vs_push( benchmark::State &state )
{
    harness h;
    std::uint64_t drain = 0;
    for( auto _ : state )
    {
        {
            auto w = h.q.allocate_s();
            *w     = 42;
        }
        h.q.pop( drain );
        benchmark::DoNotOptimize( drain );
    }
    state.SetItemsProcessed( state.iterations() );
}
BENCHMARK( bm_allocate_s_vs_push );

void bm_peek_range_window( benchmark::State &state )
{
    const auto window = static_cast<std::size_t>( state.range( 0 ) );
    raft::ring_buffer<std::uint64_t> q( 512 );
    for( std::size_t i = 0; i < 256; ++i )
    {
        q.push( i );
    }
    for( auto _ : state )
    {
        auto w            = q.peek_range( window );
        std::uint64_t sum = 0;
        for( std::size_t i = 0; i < window; ++i )
        {
            sum += w[ i ];
        }
        benchmark::DoNotOptimize( sum );
    }
    state.SetItemsProcessed( state.iterations() *
                             static_cast<std::int64_t>( window ) );
}
BENCHMARK( bm_peek_range_window )->Arg( 4 )->Arg( 32 )->Arg( 128 );

/** Writer-side dual of peek_range: claim a window, fill in place,
 *  publish once, then drain through a read window. */
void bm_write_read_window( benchmark::State &state )
{
    const auto window = static_cast<std::size_t>( state.range( 0 ) );
    raft::ring_buffer<std::uint64_t> q( 512 );
    q.set_auto_resize( false );
    std::uint64_t i   = 0;
    std::uint64_t sum = 0;
    for( auto _ : state )
    {
        {
            auto w = q.write_window( window );
            for( std::size_t j = 0; j < w.size(); ++j )
            {
                w[ j ] = i++;
            }
        }
        {
            auto r = q.read_window( window );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
        benchmark::DoNotOptimize( sum );
    }
    state.SetItemsProcessed( state.iterations() *
                             static_cast<std::int64_t>( window ) );
}
BENCHMARK( bm_write_read_window )->Arg( 4 )->Arg( 32 )->Arg( 128 );

class probe : public raft::kernel
{
public:
    probe()
    {
        input.addPort<std::uint64_t>( "0" );
        output.addPort<std::uint64_t>( "0" );
    }
    raft::kstatus run() override { return raft::stop; }
};

void bm_port_typed_access_overhead( benchmark::State &state )
{
    /** cost of going through the named-port runtime type check **/
    probe k;
    raft::ring_buffer<std::uint64_t> qi( 256 ), qo( 256 );
    k.input[ "0" ].bind( &qi );
    k.output[ "0" ].bind( &qo );
    std::uint64_t i = 0;
    for( auto _ : state )
    {
        k.output[ "0" ].push<std::uint64_t>( i++ );
        std::uint64_t v = 0;
        qo.pop( v );
        qi.push( v );
        benchmark::DoNotOptimize( k.input[ "0" ].pop<std::uint64_t>() );
    }
    state.SetItemsProcessed( state.iterations() );
}
BENCHMARK( bm_port_typed_access_overhead );

/** Same loop through allocate_range / bulk pop_s: the type check and
 *  virtual dispatch are paid once per window instead of per element. */
void bm_port_batched_access( benchmark::State &state )
{
    const auto window = static_cast<std::size_t>( state.range( 0 ) );
    probe k;
    raft::ring_buffer<std::uint64_t> q( 256 );
    q.set_auto_resize( false );
    k.input[ "0" ].bind( &q );
    k.output[ "0" ].bind( &q );
    std::uint64_t i   = 0;
    std::uint64_t sum = 0;
    for( auto _ : state )
    {
        {
            auto w =
                k.output[ "0" ].allocate_range<std::uint64_t>( window );
            for( std::size_t j = 0; j < w.size(); ++j )
            {
                w[ j ] = i++;
            }
        }
        {
            auto r = k.input[ "0" ].pop_s<std::uint64_t>( window );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
        benchmark::DoNotOptimize( sum );
    }
    state.SetItemsProcessed( state.iterations() *
                             static_cast<std::int64_t>( window ) );
}
BENCHMARK( bm_port_batched_access )->Arg( 4 )->Arg( 32 )->Arg( 64 );

/* ------------------------------------------------------------------ */
/* --quick A/B mode                                                     */
/* ------------------------------------------------------------------ */

int run_quick_ab()
{
    constexpr int reps          = 3;
    constexpr std::size_t batch = 64;
    constexpr std::size_t items = std::size_t{ 1 } << 21;

    probe k;
    raft::ring_buffer<std::uint64_t> q( 256 );
    q.set_auto_resize( false );
    k.input[ "0" ].bind( &q );
    k.output[ "0" ].bind( &q );

    const auto time_mode = [ & ]( const bool batched ) {
        double best = 0.0;
        for( int r = 0; r < reps; ++r )
        {
            std::uint64_t i   = 0;
            std::uint64_t sum = 0;
            const auto t0     = std::chrono::steady_clock::now();
            while( i < items )
            {
                if( batched )
                {
                    {
                        auto w = k.output[ "0" ]
                                     .allocate_range<std::uint64_t>(
                                         batch );
                        for( std::size_t j = 0; j < w.size(); ++j )
                        {
                            w[ j ] = i++;
                        }
                    }
                    auto rd =
                        k.input[ "0" ].pop_s<std::uint64_t>( batch );
                    for( std::size_t j = 0; j < rd.size(); ++j )
                    {
                        sum += rd[ j ];
                    }
                }
                else
                {
                    for( std::size_t j = 0; j < batch; ++j )
                    {
                        k.output[ "0" ].push<std::uint64_t>( i++ );
                    }
                    for( std::size_t j = 0; j < batch; ++j )
                    {
                        sum +=
                            k.input[ "0" ].pop<std::uint64_t>();
                    }
                }
            }
            const auto t1 = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize( sum );
            const auto ns = std::chrono::duration<double, std::nano>(
                                t1 - t0 )
                                .count() /
                            static_cast<double>( items );
            if( r == 0 || ns < best )
            {
                best = ns;
            }
        }
        return best;
    };

    const auto scalar  = time_mode( false );
    const auto batched = time_mode( true );
    std::printf( "{\n  \"bench\": \"port_bulk_ab\",\n" );
    bench::print_host_json( "  " );
    std::printf( "  \"batch\": %zu,\n"
                 "  \"items\": %zu,\n"
                 "  \"scalar_ns_per_item\": %.3f,\n"
                 "  \"batched_ns_per_item\": %.3f,\n"
                 "  \"speedup\": %.3f\n"
                 "}\n",
                 batch, items, scalar, batched, scalar / batched );
    return 0;
}

} /** end anonymous namespace **/

int main( int argc, char **argv )
{
    for( int i = 1; i < argc; ++i )
    {
        if( std::string_view( argv[ i ] ) == "--quick" )
        {
            return run_quick_ab();
        }
    }
    benchmark::Initialize( &argc, argv );
    if( benchmark::ReportUnrecognizedArguments( argc, argv ) )
    {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
