/**
 * Figure 10 — "performance of each string matching application in GB/s by
 * utilized cores", 1..16 cores, four systems: GNU-Parallel grep (green
 * diamonds), Apache Spark Boyer-Moore (red triangles), RaftLib
 * Aho-Corasick (blue circles), RaftLib Boyer-Moore-Horspool (gold
 * squares). Also §5's headline numbers (plain grep ~1.2 GB/s single
 * threaded; AC tops ~1.5, Spark ~2.8, BMH ~8 GB/s).
 *
 * Two parts (DESIGN.md §3 substitution):
 *  1. REAL execution on this host: every framework runs its actual code
 *     over the synthetic corpus at every core count from 1 to the
 *     hardware's, printed beside the model's point for the same count;
 *     every count is validated against the naive oracle.
 *  2. SIMULATED 1..16-core series from the calibrated queueing-network
 *     models (sim/scaling.hpp) — live-measured service rates, the memory
 *     wall of k concurrent scans, spawn and pipe costs plugged into each
 *     framework's execution structure.
 *
 * Environment knobs: RAFT_FIG10_MB (corpus MiB, default 24),
 * RAFT_FIG10_FILE_GB (simulated file size, default 8).
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include <algo/corpus.hpp>
#include <baselines/minispark.hpp>
#include <baselines/pgrep.hpp>
#include <raft.hpp>
#include <sim/scaling.hpp>

namespace {

double env_or( const char *name, const double fallback )
{
    const char *v = std::getenv( name );
    return v != nullptr ? std::atof( v ) : fallback;
}

struct timer
{
    std::chrono::steady_clock::time_point t0{
        std::chrono::steady_clock::now() };
    double s() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0 )
            .count();
    }
};

template <class Algo>
std::uint64_t raft_run( const std::shared_ptr<const std::string> &corpus,
                        const std::string &pattern,
                        const std::size_t width )
{
    std::vector<raft::match_t> hits;
    raft::map map;
    auto kern_start = map.link<raft::out>(
        raft::kernel::make<raft::filereader>( corpus,
                                              pattern.size() - 1 ),
        raft::kernel::make<raft::search<Algo>>( pattern ) );
    map.link<raft::out>(
        &( kern_start.dst ),
        raft::kernel::make<raft::write_each<raft::match_t>>(
            std::back_inserter( hits ) ) );
    raft::run_options o;
    o.replication_width = width;
    map.exe( o );
    return hits.size();
}

void print_series( const char *name,
                   const std::vector<raft::sim::scaling_point> &s )
{
    std::printf( "%-22s", name );
    for( const auto &p : s )
    {
        std::printf( " %6.2f", p.gbps );
    }
    std::printf( "\n" );
}

} /** end anonymous namespace **/

int main()
{
    const auto corpus_mb = env_or( "RAFT_FIG10_MB", 24.0 );
    const auto file_gb   = env_or( "RAFT_FIG10_FILE_GB", 8.0 );
    const std::string pattern = "volatile memory";

    raft::algo::corpus_options copt;
    copt.size_bytes = static_cast<std::size_t>( corpus_mb * 1024 * 1024 );
    copt.seed       = 0xF16;
    copt.pattern    = pattern;
    copt.implant_per_mib = 4.0;
    auto corpus = std::make_shared<const std::string>(
        raft::algo::make_corpus( copt ) );
    const auto oracle = raft::algo::oracle_count( *corpus, pattern );
    const auto gb =
        static_cast<double>( corpus->size() ) / 1e9;

    std::printf( "Figure 10: string-search throughput (GB/s) by "
                 "utilized cores\n" );
    std::printf( "corpus: %.0f MiB synthetic (paper: 30 GB Stack "
                 "Exchange dump), pattern '%s', %llu matches\n\n",
                 corpus_mb, pattern.c_str(),
                 static_cast<unsigned long long>( oracle ) );

    /* ---- calibration: the constants every model point below uses ---- */
    std::printf( "[calibrating live constants...]\n" );
    const auto cal = raft::sim::calibrate( *corpus, pattern );
    std::printf( "  memchr(grep-like) %.2f GB/s | AC %.2f | BMH %.2f | "
                 "BM %.2f\n",
                 cal.memchr_bps / 1e9, cal.ac_bps / 1e9,
                 cal.bmh_bps / 1e9, cal.bm_bps / 1e9 );
    std::printf( "  mem wall of k concurrent scans, k = 1..%zu (GB/s):",
                 cal.mem_bw_k.size() );
    for( const auto bw : cal.mem_bw_k )
    {
        std::printf( " %.2f", bw / 1e9 );
    }
    std::printf( "\n  pipe %.2f GB/s | spawn %.1f us(thread) %.1f "
                 "us(process)\n\n",
                 cal.pipe_bw_bps / 1e9, cal.thread_spawn_s * 1e6,
                 cal.process_spawn_s * 1e6 );

    /* ---- part 1: real execution on this host, beside the model ---- */
    const auto hw = std::max( 1u, std::thread::hardware_concurrency() );
    const auto fbytes    = file_gb * 1e9;
    const auto max_cores = std::max( 16u, hw );
    const auto pg = raft::sim::model_pgrep( cal, fbytes, max_cores );
    const auto sp = raft::sim::model_spark( cal, fbytes, max_cores );
    const auto ac =
        raft::sim::model_raft( cal, cal.ac_bps, fbytes, max_cores );
    const auto bmh =
        raft::sim::model_raft( cal, cal.bmh_bps, fbytes, max_cores );
    std::printf( "[real execution on this host, %u core(s); model = the "
                 "simulated point at the same core count]\n",
                 hw );
    std::printf( "%-22s %-7s %-9s %-9s %-8s\n", "system", "cores",
                 "GB/s", "model", "correct" );
    const auto row = [ & ]( const char *name, const unsigned n,
                            const double s, const std::uint64_t c,
                            const std::vector<raft::sim::scaling_point>
                                &model ) {
        std::printf( "%-22s %-7u %-9.3f %-9.3f %-8s\n", name, n, gb / s,
                     model[ n - 1 ].gbps, c == oracle ? "yes" : "NO" );
    };
    for( unsigned n = 1; n <= hw; ++n )
    {
        {
            timer t;
            const auto c = raft_run<raft::ahocorasick>( corpus, pattern,
                                                        n );
            row( "raftlib-AC", n, t.s(), c, ac );
        }
        {
            timer t;
            const auto c = raft_run<raft::boyermoorehorspool>(
                corpus, pattern, n );
            row( "raftlib-BMH", n, t.s(), c, bmh );
        }
        {
            raft::baselines::pgrep_options o;
            o.jobs = n;
            timer t;
            const auto c =
                raft::baselines::pgrep_count( *corpus, pattern, o );
            row( "pgrep(parallel)", n, t.s(), c, pg );
        }
        {
            raft::baselines::minispark_context ctx( n );
            raft::baselines::spark_job_options o;
            o.partition_bytes = 4u << 20;
            timer t;
            const auto c = raft::baselines::spark_search( ctx, *corpus,
                                                          pattern, o );
            row( "minispark-BM", n, t.s(), c, sp );
        }
    }

    /* ---- part 2: calibrated 1..16-core simulation ---- */
    std::printf( "\n[simulated %u-core machine, %.1f GB file] "
                 "columns = cores 1..%u\n",
                 max_cores, file_gb, max_cores );
    std::printf( "%-22s", "cores" );
    for( unsigned i = 1; i <= max_cores; ++i )
    {
        std::printf( " %6u", i );
    }
    std::printf( "\n" );
    print_series( "gnu-parallel-grep", pg );
    print_series( "spark-BM", sp );
    print_series( "raftlib-AC", ac );
    print_series( "raftlib-BMH", bmh );

    /* ---- §5 headline comparison ---- */
    std::printf( "\n[§5 headline numbers: paper vs this reproduction]\n" );
    std::printf( "%-38s %-10s %-10s\n", "quantity", "paper",
                 "measured" );
    std::printf( "%-38s %-10s %-10.2f\n",
                 "plain grep single-core GB/s", "~1.2",
                 raft::sim::plain_grep_gbps( cal ) );
    std::printf( "%-38s %-10s %-10.2f\n", "raftlib-AC peak GB/s",
                 "~1.5", ac.back().gbps );
    std::printf( "%-38s %-10s %-10.2f\n", "spark peak GB/s", "~2.8",
                 sp.back().gbps );
    std::printf( "%-38s %-10s %-10.2f\n", "raftlib-BMH peak GB/s",
                 "~8", bmh.back().gbps );
    std::printf( "%-38s %-10s %-10.2f\n",
                 "BMH/AC peak ratio", "~5.3",
                 bmh.back().gbps / ac.back().gbps );
    std::printf( "%-38s %-10s %-10.2f\n",
                 "BMH/spark peak ratio", "~2.9",
                 bmh.back().gbps / sp.back().gbps );
    std::printf( "\nshape checks: BMH linear until the memory wall then "
                 "flat; spark near-linear; AC near-linear at lower "
                 "slope; parallel grep saturates at its single-threaded "
                 "distributor.\n" );
    return 0;
}
