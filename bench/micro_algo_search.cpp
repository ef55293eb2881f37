/**
 * Single-core service rates of the string-matching algorithms over the
 * synthetic corpus — the calibration quantities behind Figure 10 and the
 * §5 observation that swapping Aho–Corasick for Boyer–Moore–Horspool
 * "improved performance drastically" (the algorithm, not the framework,
 * was the bottleneck).
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <algo/corpus.hpp>
#include <algo/strmatch.hpp>

namespace {

const std::string &corpus()
{
    static const std::string c = []() {
        raft::algo::corpus_options o;
        o.size_bytes      = 4 * 1024 * 1024;
        o.seed            = 77;
        o.pattern         = "volatile memory";
        o.implant_per_mib = 4.0;
        return raft::algo::make_corpus( o );
    }();
    return c;
}

template <class M> void run_matcher( benchmark::State &state )
{
    const M m( "volatile memory" );
    const auto &text = corpus();
    for( auto _ : state )
    {
        benchmark::DoNotOptimize(
            m.count( text.data(), text.size() ) );
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>( text.size() ) );
}

void bm_aho_corasick( benchmark::State &state )
{
    run_matcher<raft::algo::aho_corasick_matcher>( state );
}
void bm_boyer_moore_horspool( benchmark::State &state )
{
    run_matcher<raft::algo::bmh_matcher>( state );
}
void bm_boyer_moore( benchmark::State &state )
{
    run_matcher<raft::algo::bm_matcher>( state );
}
void bm_memchr_grep_like( benchmark::State &state )
{
    run_matcher<raft::algo::memchr_matcher>( state );
}
void bm_naive( benchmark::State &state )
{
    run_matcher<raft::algo::naive_matcher>( state );
}

BENCHMARK( bm_aho_corasick )->Unit( benchmark::kMillisecond );
BENCHMARK( bm_boyer_moore_horspool )->Unit( benchmark::kMillisecond );
BENCHMARK( bm_boyer_moore )->Unit( benchmark::kMillisecond );
BENCHMARK( bm_memchr_grep_like )->Unit( benchmark::kMillisecond );
BENCHMARK( bm_naive )->Unit( benchmark::kMillisecond );

void bm_pattern_length_sweep( benchmark::State &state )
{
    /** BMH skip distance grows with pattern length **/
    const auto len = static_cast<std::size_t>( state.range( 0 ) );
    const std::string pattern( len, 'q' );
    const raft::algo::bmh_matcher m( pattern );
    const auto &text = corpus();
    for( auto _ : state )
    {
        benchmark::DoNotOptimize(
            m.count( text.data(), text.size() ) );
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>( text.size() ) );
}
BENCHMARK( bm_pattern_length_sweep )
    ->Arg( 2 )
    ->Arg( 8 )
    ->Arg( 32 )
    ->Unit( benchmark::kMillisecond );

void bm_ac_multi_pattern( benchmark::State &state )
{
    /** AC's selling point: simultaneous multi-pattern search **/
    const auto n = static_cast<std::size_t>( state.range( 0 ) );
    std::vector<std::string> patterns;
    for( std::size_t i = 0; i < n; ++i )
    {
        patterns.push_back( "pattern" + std::to_string( i ) + "xyz" );
    }
    const raft::algo::aho_corasick_matcher m( patterns );
    const auto &text = corpus();
    for( auto _ : state )
    {
        benchmark::DoNotOptimize(
            m.count( text.data(), text.size() ) );
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>( text.size() ) );
}
BENCHMARK( bm_ac_multi_pattern )
    ->Arg( 1 )
    ->Arg( 8 )
    ->Arg( 64 )
    ->Unit( benchmark::kMillisecond );

void run_ac_find( benchmark::State &state,
                  const std::vector<std::string> &patterns )
{
    /** find() with a per-match callback, as search<> calls it **/
    const raft::algo::aho_corasick_matcher m( patterns );
    const auto &text    = corpus();
    std::uint64_t found = 0;
    const raft::algo::match_cb on_match =
        [ &found ]( std::size_t, std::uint32_t ) { ++found; };
    for( auto _ : state )
    {
        m.find( text.data(), text.size(), on_match );
    }
    benchmark::DoNotOptimize( found );
    const auto kib = static_cast<double>( state.iterations() ) *
                     static_cast<double>( text.size() ) / 1024.0;
    state.counters[ "matches_per_kib" ] =
        benchmark::Counter( static_cast<double>( found ) / kib );
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>( text.size() ) );
}

void bm_ac_find_sparse( benchmark::State &state )
{
    run_ac_find( state, { "volatile memory" } );
}
void bm_ac_find_dense( benchmark::State &state )
{
    /** common syllables of the corpus: a match every few bytes **/
    run_ac_find( state, { "ter", "con", "tion", "ing", "pro", "men", "re",
                          "de", "an", "e" } );
}
BENCHMARK( bm_ac_find_sparse )->Unit( benchmark::kMillisecond );
BENCHMARK( bm_ac_find_dense )->Unit( benchmark::kMillisecond );

} /** end anonymous namespace **/
