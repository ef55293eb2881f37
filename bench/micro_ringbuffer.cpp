/**
 * Substrate micro-benchmark: raw SPSC ring-buffer throughput (E13).
 * Measures the per-element cost of the lock-free fast path — push/pop in
 * a single thread (no contention) and across a real producer/consumer
 * pair — plus the cost of a resize, and the batched window primitives
 * against their scalar equivalents.
 *
 * Modes:
 *   (default)  google-benchmark suite
 *   --quick    fast scalar-vs-batched A/B, emits one JSON object on
 *              stdout (consumed by the bench_smoke ctest entry and
 *              checked into BENCH_fifo_bulk.json)
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include <core/ringbuffer.hpp>

#include "host_json.hpp"

namespace {

void bm_push_pop_single_thread( benchmark::State &state )
{
    raft::ring_buffer<std::uint64_t> q(
        static_cast<std::size_t>( state.range( 0 ) ) );
    std::uint64_t i = 0;
    for( auto _ : state )
    {
        q.push( i++ );
        std::uint64_t v = 0;
        q.pop( v );
        benchmark::DoNotOptimize( v );
    }
    state.SetItemsProcessed( state.iterations() );
}
BENCHMARK( bm_push_pop_single_thread )->Arg( 8 )->Arg( 64 )->Arg( 4096 );

void bm_try_push_pop( benchmark::State &state )
{
    raft::ring_buffer<std::uint64_t> q( 64 );
    std::uint64_t i = 0;
    for( auto _ : state )
    {
        benchmark::DoNotOptimize( q.try_push( i++ ) );
        std::uint64_t v = 0;
        benchmark::DoNotOptimize( q.try_pop( v ) );
    }
    state.SetItemsProcessed( state.iterations() );
}
BENCHMARK( bm_try_push_pop );

/** Batched counterpart of bm_try_push_pop: one try_push_n/try_pop_n
 *  handshake moves `batch` elements. Items/sec is the comparable unit. */
void bm_try_push_pop_n( benchmark::State &state )
{
    const auto batch = static_cast<std::size_t>( state.range( 0 ) );
    raft::ring_buffer<std::uint64_t> q( 256 );
    std::vector<std::uint64_t> src( batch ), dst( batch );
    std::uint64_t i = 0;
    for( auto _ : state )
    {
        for( auto &v : src )
        {
            v = i++;
        }
        benchmark::DoNotOptimize( q.try_push_n( src.data(), batch ) );
        benchmark::DoNotOptimize( q.try_pop_n( dst.data(), batch ) );
    }
    state.SetItemsProcessed( state.iterations() *
                             static_cast<std::int64_t>( batch ) );
}
BENCHMARK( bm_try_push_pop_n )->Arg( 4 )->Arg( 16 )->Arg( 64 );

/** Zero-copy windows: claim `batch` slots, write in place, publish once;
 *  then consume through a read window. */
void bm_window_push_pop( benchmark::State &state )
{
    const auto batch = static_cast<std::size_t>( state.range( 0 ) );
    raft::ring_buffer<std::uint64_t> q( 256 );
    q.set_auto_resize( false );
    std::uint64_t i   = 0;
    std::uint64_t sum = 0;
    for( auto _ : state )
    {
        {
            auto w = q.write_window( batch );
            for( std::size_t j = 0; j < w.size(); ++j )
            {
                w[ j ] = i++;
            }
        }
        {
            auto r = q.read_window( batch );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
        benchmark::DoNotOptimize( sum );
    }
    state.SetItemsProcessed( state.iterations() *
                             static_cast<std::int64_t>( batch ) );
}
BENCHMARK( bm_window_push_pop )->Arg( 4 )->Arg( 16 )->Arg( 64 );

void bm_spsc_threaded( benchmark::State &state )
{
    const auto cap = static_cast<std::size_t>( state.range( 0 ) );
    for( auto _ : state )
    {
        state.PauseTiming();
        raft::ring_buffer<std::uint64_t> q( cap );
        constexpr std::uint64_t items = 100'000;
        state.ResumeTiming();
        std::thread producer( [ & ]() {
            for( std::uint64_t i = 0; i < items; ++i )
            {
                q.push( i + 0 );
            }
            q.close_write();
        } );
        std::uint64_t sum = 0;
        try
        {
            for( ;; )
            {
                std::uint64_t v = 0;
                q.pop( v );
                sum += v;
            }
        }
        catch( const raft::closed_port_exception & )
        {
        }
        producer.join();
        benchmark::DoNotOptimize( sum );
        state.SetItemsProcessed( state.items_processed() +
                                 static_cast<std::int64_t>( items ) );
    }
}
BENCHMARK( bm_spsc_threaded )
    ->Arg( 16 )
    ->Arg( 256 )
    ->Arg( 4096 )
    ->Unit( benchmark::kMillisecond );

/** Threaded SPSC moving data through windows on both ends. */
void bm_spsc_threaded_window( benchmark::State &state )
{
    const auto batch = static_cast<std::size_t>( state.range( 0 ) );
    for( auto _ : state )
    {
        state.PauseTiming();
        raft::ring_buffer<std::uint64_t> q( 4096 );
        constexpr std::uint64_t items = 100'000;
        state.ResumeTiming();
        std::thread producer( [ & ]() {
            std::uint64_t i = 0;
            while( i < items )
            {
                auto w = q.write_window( std::min<std::uint64_t>(
                    batch, items - i ) );
                for( std::size_t j = 0; j < w.size(); ++j )
                {
                    w[ j ] = i++;
                }
            }
            q.close_write();
        } );
        std::uint64_t sum = 0;
        try
        {
            for( ;; )
            {
                auto r = q.read_window( batch );
                for( std::size_t j = 0; j < r.size(); ++j )
                {
                    sum += r[ j ];
                }
            }
        }
        catch( const raft::closed_port_exception & )
        {
        }
        producer.join();
        benchmark::DoNotOptimize( sum );
        state.SetItemsProcessed( state.items_processed() +
                                 static_cast<std::int64_t>( items ) );
    }
}
BENCHMARK( bm_spsc_threaded_window )
    ->Arg( 16 )
    ->Arg( 64 )
    ->Unit( benchmark::kMillisecond );

void bm_resize_cost( benchmark::State &state )
{
    const auto occupancy = static_cast<std::size_t>( state.range( 0 ) );
    for( auto _ : state )
    {
        state.PauseTiming();
        raft::ring_buffer<std::uint64_t> q( occupancy * 2 );
        for( std::size_t i = 0; i < occupancy; ++i )
        {
            q.push( i );
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize( q.resize( occupancy * 4 ) );
    }
}
BENCHMARK( bm_resize_cost )->Arg( 64 )->Arg( 1024 )->Arg( 16384 );

/* ------------------------------------------------------------------ */
/* --quick A/B mode                                                     */
/* ------------------------------------------------------------------ */

double ns_per_item_best_of( const int reps, const std::size_t items,
                            void ( *body )( std::size_t ) )
{
    double best = 0.0;
    for( int r = 0; r < reps; ++r )
    {
        const auto t0 = std::chrono::steady_clock::now();
        body( items );
        const auto t1 = std::chrono::steady_clock::now();
        const auto ns =
            std::chrono::duration<double, std::nano>( t1 - t0 ).count() /
            static_cast<double>( items );
        if( r == 0 || ns < best )
        {
            best = ns;
        }
    }
    return best;
}

constexpr std::size_t ab_cap   = 256;
constexpr std::size_t ab_batch = 64;

void ab_scalar_single( const std::size_t items )
{
    raft::ring_buffer<std::uint64_t> q( ab_cap );
    q.set_auto_resize( false );
    std::uint64_t i   = 0;
    std::uint64_t sum = 0;
    while( i < items )
    {
        for( std::size_t j = 0; j < ab_batch; ++j )
        {
            q.push( i++ );
        }
        for( std::size_t j = 0; j < ab_batch; ++j )
        {
            std::uint64_t v = 0;
            q.pop( v );
            sum += v;
        }
    }
    benchmark::DoNotOptimize( sum );
}

void ab_batched_single( const std::size_t items )
{
    raft::ring_buffer<std::uint64_t> q( ab_cap );
    q.set_auto_resize( false );
    std::uint64_t i   = 0;
    std::uint64_t sum = 0;
    while( i < items )
    {
        {
            auto w = q.write_window( ab_batch );
            for( std::size_t j = 0; j < w.size(); ++j )
            {
                w[ j ] = i++;
            }
        }
        {
            auto r = q.read_window( ab_batch );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
    }
    benchmark::DoNotOptimize( sum );
}

void ab_scalar_threaded( const std::size_t items )
{
    raft::ring_buffer<std::uint64_t> q( 1024 );
    q.set_auto_resize( false );
    std::thread producer( [ & ]() {
        for( std::uint64_t i = 0; i < items; ++i )
        {
            q.push( i );
        }
        q.close_write();
    } );
    std::uint64_t sum = 0;
    try
    {
        for( ;; )
        {
            std::uint64_t v = 0;
            q.pop( v );
            sum += v;
        }
    }
    catch( const raft::closed_port_exception & )
    {
    }
    producer.join();
    benchmark::DoNotOptimize( sum );
}

void ab_batched_threaded( const std::size_t items )
{
    raft::ring_buffer<std::uint64_t> q( 1024 );
    q.set_auto_resize( false );
    std::thread producer( [ & ]() {
        std::uint64_t i = 0;
        while( i < items )
        {
            auto w = q.write_window(
                std::min<std::size_t>( ab_batch, items - i ) );
            for( std::size_t j = 0; j < w.size(); ++j )
            {
                w[ j ] = i++;
            }
        }
        q.close_write();
    } );
    std::uint64_t sum = 0;
    try
    {
        for( ;; )
        {
            auto r = q.read_window( ab_batch );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
    }
    catch( const raft::closed_port_exception & )
    {
    }
    producer.join();
    benchmark::DoNotOptimize( sum );
}

int run_quick_ab()
{
    constexpr int reps               = 3;
    constexpr std::size_t st_items   = std::size_t{ 1 } << 22;
    constexpr std::size_t spsc_items = std::size_t{ 1 } << 20;

    const auto st_scalar =
        ns_per_item_best_of( reps, st_items, ab_scalar_single );
    const auto st_batched =
        ns_per_item_best_of( reps, st_items, ab_batched_single );
    const auto th_scalar =
        ns_per_item_best_of( reps, spsc_items, ab_scalar_threaded );
    const auto th_batched =
        ns_per_item_best_of( reps, spsc_items, ab_batched_threaded );

    std::printf( "{\n  \"bench\": \"fifo_bulk_ab\",\n" );
    bench::print_host_json( "  " );
    std::printf(
        "  \"batch\": %zu,\n"
        "  \"single_thread\": {\n"
        "    \"capacity\": %zu,\n"
        "    \"items\": %zu,\n"
        "    \"scalar_ns_per_item\": %.3f,\n"
        "    \"batched_ns_per_item\": %.3f,\n"
        "    \"speedup\": %.3f\n"
        "  },\n"
        "  \"threaded_spsc\": {\n"
        "    \"capacity\": 1024,\n"
        "    \"items\": %zu,\n"
        "    \"scalar_ns_per_item\": %.3f,\n"
        "    \"batched_ns_per_item\": %.3f,\n"
        "    \"speedup\": %.3f\n"
        "  }\n"
        "}\n",
        ab_batch, ab_cap, st_items, st_scalar, st_batched,
        st_scalar / st_batched, spsc_items, th_scalar, th_batched,
        th_scalar / th_batched );
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
