/**
 * Ablation: scheduler substitution (§4.1: "RaftLib, of course, allows the
 * substitution of any scheduler desired"; cache-conscious scheduling of
 * pipelined computations is the anticipated follow-on [3]).
 *
 * The same 4-stage pipeline under the default thread-per-kernel
 * scheduler and the cooperative pool, which runs a ready kernel for a
 * fixed quantum of invocations per dispatch — that keeps a kernel's code
 * and queue segment cache-hot across consecutive elements.
 */
#include <chrono>
#include <cstdio>
#include <iterator>
#include <vector>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;

raft::kernel *make_stage()
{
    return raft::kernel::make<raft::lambdak<i64>>(
        1, 1, []( raft::Port &in, raft::Port &out ) {
            auto v           = in[ "0" ].pop_s<i64>();
            volatile i64 acc = *v;
            for( int i = 0; i < 60; ++i )
            {
                acc = acc + i;
            }
            out[ "0" ].push<i64>( static_cast<i64>( acc ) );
        } );
}

double run_once( const raft::run_options &opts )
{
    const std::size_t items = 150'000;
    std::vector<i64> out;
    out.reserve( items );
    raft::map m;
    auto a = m.link( raft::kernel::make<raft::generate<i64>>(
                         items,
                         []( std::size_t i ) { return i64( i ); } ),
                     make_stage() );
    auto b = m.link( &( a.dst ), make_stage() );
    auto c = m.link( &( b.dst ), make_stage() );
    m.link( &( c.dst ), raft::kernel::make<raft::write_each<i64>>(
                            std::back_inserter( out ) ) );
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( opts );
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0 )
        .count();
}

double best_of( const int reps, const raft::run_options &opts )
{
    double best = 1e9;
    for( int r = 0; r < reps; ++r )
    {
        best = std::min( best, run_once( opts ) );
    }
    return best;
}

} /** end anonymous namespace **/

int main()
{
    std::printf( "Ablation: scheduler substitution on a 5-kernel "
                 "pipeline, 150k elements (best of 3)\n\n" );
    std::printf( "%-38s %-10s %s\n", "scheduler", "wall_s",
                 "vs default" );

    raft::run_options base;
    base.dynamic_resize = true;

    auto thread_opts      = base;
    thread_opts.scheduler = raft::scheduler_kind::thread_per_kernel;
    const auto t_thread   = best_of( 3, thread_opts );
    std::printf( "%-38s %-10.3f %s\n", "thread-per-kernel (default)",
                 t_thread, "-" );

    auto pool_opts         = base;
    pool_opts.scheduler    = raft::scheduler_kind::pool;
    pool_opts.pool_threads = 2;
    const auto t_pool      = best_of( 3, pool_opts );
    std::printf( "%-38s %-10.3f %+.1f%%\n", "pool (2 workers)", t_pool,
                 ( t_pool - t_thread ) / t_thread * 100.0 );
    std::printf( "\nthe pool keeps a ready kernel on its worker for a "
                 "fixed quantum of run() calls, which amortizes the "
                 "readiness scan and keeps each kernel's stream segment "
                 "cache-resident — the direction of cache-conscious "
                 "pipeline scheduling the paper anticipates.\n" );
    return 0;
}
