#include "sim/scaling.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#if defined( __linux__ )
#include <pthread.h>
#include <sched.h>
#endif
#if defined( __unix__ )
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#endif

#include "algo/strmatch.hpp"

namespace raft::sim {

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point &t0 )
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0 )
        .count();
}

/** CPU time of the calling thread, s. Rates timed with it are what the
 *  code achieves while it has a core: time the thread spent preempted or
 *  stolen (other processes, a concurrent test) is not service. */
double thread_cpu_seconds()
{
#if defined( __unix__ )
    timespec ts{};
    clock_gettime( CLOCK_THREAD_CPUTIME_ID, &ts );
    return static_cast<double>( ts.tv_sec ) +
           static_cast<double>( ts.tv_nsec ) * 1e-9;
#else
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch() )
        .count();
#endif
}

/** Time the matchers over the corpus in thread CPU time, one pass each
 *  in turn, until each has had 50 ms; returns each one's best pass in
 *  bytes/s. On a shared host a matcher's speed drifts by up to a third
 *  for tenths of a second at a time (a busy sibling hardware thread, for
 *  one); taking turns exposes every matcher to the same drift, so the
 *  orderings the §5 premise rests on do not hinge on when each was
 *  timed. */
std::vector<double> measure_matchers(
    const std::vector<const algo::matcher *> &ms,
    const std::string &corpus )
{
    volatile std::uint64_t sink = 0;
    for( const auto *m : ms )
    {
        /** warm-up pass **/
        sink = m->count( corpus.data(),
                         std::min<std::size_t>( corpus.size(), 1u << 16 ) );
    }
    std::vector<double> spent( ms.size(), 0.0 ), best( ms.size(), 0.0 );
    while( *std::min_element( spent.begin(), spent.end() ) < 0.05 )
    {
        for( std::size_t i = 0; i < ms.size(); ++i )
        {
            const auto t0 = thread_cpu_seconds();
            sink          = ms[ i ]->count( corpus.data(), corpus.size() );
            const auto dt = thread_cpu_seconds() - t0;
            spent[ i ] += dt;
            if( dt > 0.0 )
            {
                best[ i ] = std::max(
                    best[ i ], static_cast<double>( corpus.size() ) / dt );
            }
        }
    }
    (void) sink;
    return best;
}

/** Pin the calling thread to the i-th core (wrapping around) of those
 *  it may run on; where that cannot be done, leave it to the OS. */
void pin_to_core( const unsigned i )
{
#if defined( __linux__ )
    cpu_set_t allowed;
    if( sched_getaffinity( 0, sizeof( allowed ), &allowed ) != 0 ||
        CPU_COUNT( &allowed ) == 0 )
    {
        return;
    }
    auto nth = static_cast<int>( i % CPU_COUNT( &allowed ) );
    for( int cpu = 0; cpu < CPU_SETSIZE; ++cpu )
    {
        if( CPU_ISSET( cpu, &allowed ) && nth-- == 0 )
        {
            cpu_set_t one;
            CPU_ZERO( &one );
            CPU_SET( cpu, &one );
            (void) pthread_setaffinity_np( pthread_self(), sizeof( one ),
                                           &one );
            return;
        }
    }
#else
    (void) i;
#endif
}

/** Aggregate streaming rate of k concurrent scans for k = 1 … K, K =
 *  min(hardware threads, 16), as a running maximum over k. Thread i
 *  runs on core i and first-touches and sums its own 32 MiB buffer; for
 *  each k, k threads start together and each scans at least one whole
 *  buffer and until one shared 0.1 s deadline, checking the clock once
 *  per MiB. The aggregate
 *  is the bytes all k scanned over the wall-clock window from the common
 *  start until the last one stops, so it counts only what the scans
 *  achieve together: threads that take turns on a core read as one.
 *  Single k-thread figures are noisy where the buffers share a last-level
 *  cache, hence the running maximum. */
std::vector<double> measure_mem_bw_k()
{
    using clock                 = std::chrono::steady_clock;
    constexpr std::size_t words = ( 32u << 20 ) / sizeof( std::uint64_t );
    constexpr std::size_t chunk = ( 1u << 20 ) / sizeof( std::uint64_t );
    const unsigned max_k =
        std::clamp( std::thread::hardware_concurrency(), 1u, 16u );
    std::vector<std::vector<std::uint64_t>> bufs( max_k );
    std::vector<double> out;
    out.reserve( max_k );
    for( unsigned k = 1; k <= max_k; ++k )
    {
        std::atomic<unsigned> ready{ 0 };
        std::atomic<bool> go{ false };
        clock::time_point start, deadline;
        std::vector<std::size_t> scanned( k, 0 );
        std::vector<clock::time_point> stop( k );
        std::vector<std::thread> threads;
        threads.reserve( k );
        for( unsigned i = 0; i < k; ++i )
        {
            threads.emplace_back( [ &, i ]() {
                /** one core each: left to the OS, fresh threads can
                 *  share one core for the whole window **/
                pin_to_core( i );
                auto &buf = bufs[ i ];
                if( buf.empty() )
                {
                    buf.assign( words, 1 ); /** first touch **/
                }
                volatile std::uint64_t sink = std::accumulate(
                    buf.begin(), buf.end(), std::uint64_t{ 0 } );
                ready.fetch_add( 1, std::memory_order_release );
                while( !go.load( std::memory_order_acquire ) )
                {
                    std::this_thread::yield();
                }
                std::size_t at    = 0;
                std::size_t total = 0;
                do
                {
                    const auto *p = buf.data() + at;
                    sink = sink + std::accumulate( p, p + chunk,
                                                   std::uint64_t{ 0 } );
                    at = ( at + chunk ) % words;
                    total += chunk;
                } while( total < words || clock::now() < deadline );
                stop[ i ]    = clock::now();
                scanned[ i ] = total * sizeof( std::uint64_t );
            } );
        }
        while( ready.load( std::memory_order_acquire ) < k )
        {
            std::this_thread::yield();
        }
        start    = clock::now();
        deadline = start + std::chrono::milliseconds( 100 );
        go.store( true, std::memory_order_release );
        for( auto &t : threads )
        {
            t.join();
        }
        const auto bytes = std::accumulate( scanned.begin(), scanned.end(),
                                            std::size_t{ 0 } );
        const std::chrono::duration<double> window =
            *std::max_element( stop.begin(), stop.end() ) - start;
        out.push_back( std::max( static_cast<double>( bytes ) /
                                     window.count(),
                                 out.empty() ? 0.0 : out.back() ) );
    }
    return out;
}

double measure_thread_spawn()
{
    constexpr int reps = 64;
    const auto t0      = std::chrono::steady_clock::now();
    for( int i = 0; i < reps; ++i )
    {
        std::thread t( []() {} );
        t.join();
    }
    return seconds_since( t0 ) / reps;
}

double measure_process_spawn()
{
#if defined( __unix__ )
    constexpr int reps = 16;
    const auto t0      = std::chrono::steady_clock::now();
    for( int i = 0; i < reps; ++i )
    {
        const pid_t pid = fork();
        if( pid == 0 )
        {
            _exit( 0 );
        }
        if( pid > 0 )
        {
            int status = 0;
            waitpid( pid, &status, 0 );
        }
    }
    return seconds_since( t0 ) / reps;
#else
    return 0.002;
#endif
}

double measure_pipe_bw()
{
#if defined( __unix__ )
    int fds[ 2 ];
    if( pipe( fds ) != 0 )
    {
        return 1e9;
    }
    constexpr std::size_t total = 32u << 20;
    constexpr std::size_t chunk = 64u << 10;
    std::vector<char> wbuf( chunk, 'x' ), rbuf( chunk );
    const auto t0 = std::chrono::steady_clock::now();
    std::thread writer( [ & ]() {
        std::size_t sent = 0;
        while( sent < total )
        {
            const auto k = write( fds[ 1 ], wbuf.data(), chunk );
            if( k <= 0 )
            {
                break;
            }
            sent += static_cast<std::size_t>( k );
        }
        close( fds[ 1 ] );
    } );
    std::size_t got = 0;
    for( ;; )
    {
        const auto k = read( fds[ 0 ], rbuf.data(), chunk );
        if( k <= 0 )
        {
            break;
        }
        got += static_cast<std::size_t>( k );
    }
    writer.join();
    close( fds[ 0 ] );
    const auto dt = seconds_since( t0 );
    /** the distributor both reads stdin and writes the pipe: halve **/
    return dt > 0.0 ? static_cast<double>( got ) / dt / 2.0 : 1e9;
#else
    return 1e9;
#endif
}

} /** end anonymous namespace **/

calibration calibrate( const std::string &corpus,
                       const std::string &pattern )
{
    calibration c;
    const algo::memchr_matcher by_memchr( pattern );
    const algo::aho_corasick_matcher by_ac( pattern );
    const algo::bmh_matcher by_bmh( pattern );
    const algo::bm_matcher by_bm( pattern );
    const auto rates =
        measure_matchers( { &by_memchr, &by_ac, &by_bmh, &by_bm }, corpus );
    c.memchr_bps      = rates[ 0 ];
    c.ac_bps          = rates[ 1 ];
    c.bmh_bps         = rates[ 2 ];
    c.bm_bps          = rates[ 3 ];
    c.mem_bw_k        = measure_mem_bw_k();
    c.mem_bw_bps      = c.mem_bw_k.back();
    c.thread_spawn_s  = measure_thread_spawn();
    c.process_spawn_s = measure_process_spawn();
    c.pipe_bw_bps     = measure_pipe_bw();
    return c;
}

double memory_wall_bps( const calibration &c, const unsigned n )
{
    const auto k = std::clamp<std::size_t>( n, 1, c.mem_bw_k.size() );
    return std::min( c.mem_bw_k[ k - 1 ],
                     c.paper_wall_bmh_cores * c.bmh_bps );
}

std::vector<scaling_point> model_pgrep( const calibration &c,
                                        const double file_bytes,
                                        const unsigned max_cores )
{
    std::vector<scaling_point> out;
    const auto block = c.parallel_block_bytes;
    const auto items =
        static_cast<std::uint64_t>( std::max( 1.0, file_bytes / block ) );
    for( unsigned n = 1; n <= max_cores; ++n )
    {
        pipeline_desc d;
        /** stage 0: the GNU Parallel parent — reads stdin, chops blocks,
         *  writes each down a worker pipe. Single-threaded. */
        const double distribute_bps =
            std::min( c.pipe_bw_bps, c.parallel_split_bps );
        d.stages.push_back( stage_desc{
            "distribute", distribute_bps / block, 1, 4,
            service_dist::deterministic, false } );
        /** stage 1: per-block grep job — fresh process each block.
         *  Equal-size blocks of exact search take near-deterministic
         *  time. **/
        const double job_s =
            c.process_spawn_s + block / c.memchr_bps;
        d.stages.push_back( stage_desc{ "grep", 1.0 / job_s, n, 2 * n,
                                        service_dist::deterministic,
                                        true } );
        d.items                 = items;
        d.shared_bandwidth_rate = memory_wall_bps( c, n ) / block;
        const auto r            = simulate_pipeline( d );
        out.push_back( scaling_point{
            n, r.throughput_items_per_s * block / 1e9 } );
    }
    return out;
}

std::vector<scaling_point> model_spark( const calibration &c,
                                        const double file_bytes,
                                        const unsigned max_cores )
{
    std::vector<scaling_point> out;
    const auto part = c.spark_partition_bytes;
    const auto items =
        static_cast<std::uint64_t>( std::max( 1.0, file_bytes / part ) );
    for( unsigned n = 1; n <= max_cores; ++n )
    {
        pipeline_desc d;
        /** stage 0: driver task dispatch (fast relative to task time) **/
        d.stages.push_back( stage_desc{
            "driver", 1.0 / c.spark_task_overhead_s, 1, 8,
            service_dist::deterministic, false } );
        /** stage 1: executor — JVM Boyer–Moore over one partition **/
        const double task_s =
            part / ( c.bm_bps * c.jvm_matcher_factor ) +
            c.spark_task_overhead_s;
        d.stages.push_back( stage_desc{ "executor", 1.0 / task_s, n,
                                        2 * n,
                                        service_dist::deterministic,
                                        true } );
        d.items                 = items;
        d.shared_bandwidth_rate = memory_wall_bps( c, n ) / part;
        const auto r            = simulate_pipeline( d );
        out.push_back( scaling_point{
            n, r.throughput_items_per_s * part / 1e9 } );
    }
    return out;
}

std::vector<scaling_point> model_raft( const calibration &c,
                                       const double algo_bps,
                                       const double file_bytes,
                                       const unsigned max_cores )
{
    std::vector<scaling_point> out;
    const auto seg = c.raft_segment_bytes;
    const auto items =
        static_cast<std::uint64_t>( std::max( 1.0, file_bytes / seg ) );
    for( unsigned n = 1; n <= max_cores; ++n )
    {
        pipeline_desc d;
        /** stage 0: filereader — mints zero-copy descriptors, cheap **/
        d.stages.push_back( stage_desc{ "filereader", 2e6, 1, 8,
                                        service_dist::deterministic,
                                        false } );
        /** stage 1: n replicated match kernels; they stream the corpus
         *  bytes, so the memory wall of n concurrent scans caps their
         *  aggregate **/
        d.stages.push_back( stage_desc{ "match", algo_bps / seg, n,
                                        64,
                                        service_dist::deterministic,
                                        true } );
        /** stage 2: reduce — descriptor merge, cheap **/
        d.stages.push_back( stage_desc{ "reduce", 5e6, 1, 64,
                                        service_dist::deterministic,
                                        false } );
        d.items                 = items;
        d.shared_bandwidth_rate = memory_wall_bps( c, n ) / seg;
        const auto r            = simulate_pipeline( d );
        out.push_back( scaling_point{
            n, r.throughput_items_per_s * seg / 1e9 } );
    }
    return out;
}

double plain_grep_gbps( const calibration &c )
{
    return c.memchr_bps / 1e9;
}

} /** end namespace raft::sim **/
