/**
 * Figure 4 — "Queue sizes for a matrix multiply application, shown for an
 * individual queue (all queues sized equally). The dots indicate the mean
 * of each observation... The red and green lines indicate the 95th and 5th
 * percentiles respectively. The execution time increases slowly with
 * buffer sizes >= 8 MB, as well as becoming far more varied."
 *
 * This harness runs the streaming matmul application (algo/matmul.hpp)
 * with every stream statically sized to the swept capacity (dynamic
 * resizing off — the size IS the variable), repeating each configuration
 * and reporting mean / 5th / 95th percentile execution time.
 *
 * Environment knobs: RAFT_FIG4_N (matrix dim), RAFT_FIG4_TRIALS,
 * RAFT_FIG4_WIDTH (multiply-kernel replicas).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <algo/matmul.hpp>
#include <raft.hpp>

namespace {

std::size_t env_or( const char *name, const std::size_t fallback )
{
    const char *v = std::getenv( name );
    return v != nullptr ? static_cast<std::size_t>( std::atoll( v ) )
                        : fallback;
}

double run_once( const raft::algo::matrix &A,
                 const raft::algo::matrix &B,
                 const std::size_t queue_items,
                 const std::size_t width )
{
    raft::algo::matrix C( A.n );
    raft::map m;
    auto p = m.link<raft::out>(
        raft::kernel::make<raft::algo::mm_source>( A.n ),
        raft::kernel::make<raft::algo::mm_multiply>( &A, &B ) );
    m.link<raft::out>( &( p.dst ),
                       raft::kernel::make<raft::algo::mm_sink>( &C ) );
    raft::run_options o;
    o.initial_queue_capacity = queue_items;
    o.dynamic_resize         = false; /** the size is the variable **/
    o.replication_width      = width;
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0 )
        .count();
}

} /** end anonymous namespace **/

int main()
{
    const auto n      = env_or( "RAFT_FIG4_N", 320 );
    const auto trials = env_or( "RAFT_FIG4_TRIALS", 7 );
    const auto width  = env_or( "RAFT_FIG4_WIDTH", 2 );

    const auto A = raft::algo::matrix::random( n, 11 );
    const auto B = raft::algo::matrix::random( n, 22 );

    std::printf( "Figure 4: execution time vs per-queue buffer size "
                 "(matrix multiply, n=%zu, %zu multiply replicas, "
                 "%zu trials/point)\n",
                 n, width, trials );
    std::printf( "element = mm_tile (%zu bytes)\n\n",
                 sizeof( raft::algo::mm_tile ) );
    std::printf( "%-14s %-10s %-12s %-12s %-12s\n", "buffer_bytes",
                 "items", "mean_s", "p5_s", "p95_s" );

    /** sweep 2 items (~4 KiB) up to 8192 items (~16 MiB) **/
    for( std::size_t items = 2; items <= 8192; items *= 4 )
    {
        std::vector<double> times;
        for( std::size_t t = 0; t < trials; ++t )
        {
            times.push_back( run_once( A, B, items, width ) );
        }
        std::sort( times.begin(), times.end() );
        double mean = 0.0;
        for( const auto x : times )
        {
            mean += x;
        }
        mean /= static_cast<double>( times.size() );
        const auto pct = [ & ]( const double q ) {
            const auto idx = static_cast<std::size_t>(
                q * static_cast<double>( times.size() - 1 ) + 0.5 );
            return times[ idx ];
        };
        std::printf( "%-14zu %-10zu %-12.4f %-12.4f %-12.4f\n",
                     items * sizeof( raft::algo::mm_tile ), items,
                     mean, pct( 0.05 ), pct( 0.95 ) );
    }
    std::printf( "\npaper shape: slow at tiny buffers, flat through the "
                 "middle, slowly rising mean and widening percentiles "
                 ">= 8 MB (paging effects need the paper's 30 GB-scale "
                 "footprint; see EXPERIMENTS.md)\n" );
    return 0;
}
