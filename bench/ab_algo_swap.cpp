/**
 * E14 — ablation: runtime algorithm swapping via synonymous kernel
 * groupings (§4.2 / §5).
 *
 * §5 observes that manually replacing Aho–Corasick with
 * Boyer–Moore–Horspool "improved [performance] drastically", and notes
 * the runtime can do that swap automatically ("RaftLib has the ability to
 * quickly swap out algorithms during execution, this was disabled for
 * this benchmark"). This harness enables it: the same search pipeline run
 * with (a) AC pinned, (b) BMH pinned, (c) a synonym group holding both,
 * probed and committed by the runtime. The adaptive run should land near
 * the better algorithm's time, paying only the probe window.
 */
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include <algo/corpus.hpp>
#include <raft.hpp>

namespace {

struct outcome
{
    double wall_s;
    std::uint64_t matches;
    std::string committed;
};

template <class KernelMaker>
outcome run_pipeline( const std::shared_ptr<const std::string> &corpus,
                      const std::string &pattern, KernelMaker make_k )
{
    std::vector<raft::match_t> hits;
    raft::map m;
    raft::kernel *k = make_k();
    auto p          = m.link(
        raft::kernel::make<raft::filereader>( corpus,
                                              pattern.size() - 1 ),
        k );
    m.link( &( p.dst ),
            raft::kernel::make<raft::write_each<raft::match_t>>(
                std::back_inserter( hits ) ) );
    raft::run_options o;
    const auto t0 = std::chrono::steady_clock::now();
    m.exe( o );
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0 )
                        .count();
    std::string committed;
    if( auto *g = dynamic_cast<raft::synonym_kernel *>( k ) )
    {
        committed = g->active_name();
    }
    return outcome{ dt, hits.size(), committed };
}

} /** end anonymous namespace **/

int main()
{
    const std::string pattern = "pipeline parallel";
    raft::algo::corpus_options copt;
    copt.size_bytes      = 24u << 20;
    copt.pattern         = pattern;
    copt.implant_per_mib = 4.0;
    auto corpus = std::make_shared<const std::string>(
        raft::algo::make_corpus( copt ) );
    const auto oracle = raft::algo::oracle_count( *corpus, pattern );

    std::printf( "Ablation: runtime algorithm swap (synonym kernels, "
                 "§4.2) on a %zu MiB corpus\n\n",
                 corpus->size() >> 20 );
    std::printf( "%-26s %-10s %-10s %-9s %s\n", "configuration",
                 "wall_s", "GB/s", "correct", "committed-to" );
    const auto gb = static_cast<double>( corpus->size() ) / 1e9;

    const auto ac = run_pipeline( corpus, pattern, [ & ]() {
        return raft::kernel::make<raft::search<raft::ahocorasick>>(
            pattern );
    } );
    std::printf( "%-26s %-10.3f %-10.2f %-9s %s\n", "aho-corasick only",
                 ac.wall_s, gb / ac.wall_s,
                 ac.matches == oracle ? "yes" : "NO", "-" );

    const auto bmh = run_pipeline( corpus, pattern, [ & ]() {
        return raft::kernel::make<
            raft::search<raft::boyermoorehorspool>>( pattern );
    } );
    std::printf( "%-26s %-10.3f %-10.2f %-9s %s\n",
                 "boyer-moore-horspool only", bmh.wall_s,
                 gb / bmh.wall_s,
                 bmh.matches == oracle ? "yes" : "NO", "-" );

    const auto adaptive = run_pipeline( corpus, pattern, [ & ]() {
        std::vector<std::unique_ptr<raft::kernel>> alts;
        alts.push_back(
            std::make_unique<raft::search<raft::ahocorasick>>(
                pattern ) );
        alts.push_back( std::make_unique<
                        raft::search<raft::boyermoorehorspool>>(
            pattern ) );
        raft::swap_policy policy;
        policy.probe_window     = 16;
        policy.recheck_interval = 0;
        return raft::kernel::make<raft::synonym_kernel>(
            std::move( alts ), policy );
    } );
    std::printf( "%-26s %-10.3f %-10.2f %-9s %s\n",
                 "adaptive synonym group", adaptive.wall_s,
                 gb / adaptive.wall_s,
                 adaptive.matches == oracle ? "yes" : "NO",
                 adaptive.committed.c_str() );

    std::printf( "\nadaptive vs pinned-best overhead: %.1f%% "
                 "(the probe window); vs pinned-worst speedup: "
                 "%.2fx — the §5 algorithm-swap result, automated.\n",
                 ( adaptive.wall_s - bmh.wall_s ) / bmh.wall_s * 100.0,
                 ac.wall_s / adaptive.wall_s );
    return 0;
}
