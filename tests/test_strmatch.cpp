/**
 * String-matching substrate: every matcher validated against the naive
 * oracle over randomized corpora (property tests), plus the classic edge
 * cases — overlapping matches, boundary positions, periodic patterns,
 * single-byte patterns, multi-pattern Aho–Corasick.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include <algo/strmatch.hpp>

using namespace raft::algo;

namespace {

std::vector<std::size_t> positions_of( const matcher &m,
                                       const std::string &text )
{
    std::vector<std::size_t> out;
    m.find( text.data(), text.size(),
            [ & ]( std::size_t p, std::uint32_t ) {
                out.push_back( p );
            } );
    return out;
}

enum class algo_kind
{
    naive,
    memchr_k,
    bmh,
    bm,
    ac
};

std::unique_ptr<matcher> build( const algo_kind k,
                                const std::string &pattern )
{
    switch( k )
    {
        case algo_kind::naive:
            return std::make_unique<naive_matcher>( pattern );
        case algo_kind::memchr_k:
            return std::make_unique<memchr_matcher>( pattern );
        case algo_kind::bmh:
            return std::make_unique<bmh_matcher>( pattern );
        case algo_kind::bm:
            return std::make_unique<bm_matcher>( pattern );
        case algo_kind::ac:
        default:
            return std::make_unique<aho_corasick_matcher>( pattern );
    }
}

} /** end anonymous namespace **/

class matcher_oracle : public ::testing::TestWithParam<algo_kind>
{
};

TEST_P( matcher_oracle, overlapping_matches )
{
    auto m = build( GetParam(), "aaa" );
    EXPECT_EQ( positions_of( *m, "aaaaa" ),
               ( std::vector<std::size_t>{ 0, 1, 2 } ) );
}

TEST_P( matcher_oracle, boundary_positions )
{
    auto m = build( GetParam(), "ab" );
    EXPECT_EQ( positions_of( *m, "abxxab" ),
               ( std::vector<std::size_t>{ 0, 4 } ) );
}

TEST_P( matcher_oracle, pattern_equals_text )
{
    auto m = build( GetParam(), "exact" );
    EXPECT_EQ( positions_of( *m, "exact" ),
               ( std::vector<std::size_t>{ 0 } ) );
}

TEST_P( matcher_oracle, pattern_longer_than_text )
{
    auto m = build( GetParam(), "longpattern" );
    EXPECT_TRUE( positions_of( *m, "short" ).empty() );
    EXPECT_EQ( m->count( "short", 5 ), 0u );
}

TEST_P( matcher_oracle, empty_text )
{
    auto m = build( GetParam(), "x" );
    EXPECT_EQ( m->count( "", 0 ), 0u );
}

TEST_P( matcher_oracle, single_byte_pattern )
{
    auto m = build( GetParam(), "z" );
    EXPECT_EQ( positions_of( *m, "zazbz" ),
               ( std::vector<std::size_t>{ 0, 2, 4 } ) );
}

TEST_P( matcher_oracle, periodic_pattern )
{
    auto m = build( GetParam(), "abab" );
    EXPECT_EQ( positions_of( *m, "abababab" ),
               ( std::vector<std::size_t>{ 0, 2, 4 } ) );
}

TEST_P( matcher_oracle, no_match_in_similar_text )
{
    auto m = build( GetParam(), "needle" );
    EXPECT_EQ( m->count( "needla needls neadle", 20 ), 0u );
}

TEST_P( matcher_oracle, count_equals_find_cardinality )
{
    auto m = build( GetParam(), "th" );
    const std::string text =
        "the quick brown fox thought the thermals throbbed";
    EXPECT_EQ( m->count( text.data(), text.size() ),
               positions_of( *m, text ).size() );
}

TEST_P( matcher_oracle, randomized_small_alphabet_vs_naive )
{
    /** small alphabet maximizes overlap/periodicity corner cases **/
    std::mt19937_64 eng( 0xC0FFEE );
    std::uniform_int_distribution<int> ch( 0, 2 );
    std::uniform_int_distribution<std::size_t> plen( 1, 6 );
    /** the long texts span several of Aho–Corasick's lock-step blocks
     *  and end in a ragged tail **/
    for( const std::size_t len : { 400, 20011 } )
    {
        for( int trial = 0; trial < 60; ++trial )
        {
            std::string text( len, 'a' );
            for( auto &c : text )
            {
                c = static_cast<char>( 'a' + ch( eng ) );
            }
            std::string pattern( plen( eng ), 'a' );
            for( auto &c : pattern )
            {
                c = static_cast<char>( 'a' + ch( eng ) );
            }
            const naive_matcher oracle( pattern );
            auto m = build( GetParam(), pattern );
            EXPECT_EQ( positions_of( *m, text ),
                       positions_of( oracle, text ) )
                << "len " << len << " trial " << trial << " pattern '"
                << pattern << "'";
        }
    }
}

TEST_P( matcher_oracle, randomized_binary_bytes_vs_naive )
{
    std::mt19937_64 eng( 0xFACADE );
    std::uniform_int_distribution<int> ch( 0, 255 );
    for( const std::size_t len : { 600, 20011 } )
    {
        for( int trial = 0; trial < 30; ++trial )
        {
            std::string text( len, '\0' );
            for( auto &c : text )
            {
                c = static_cast<char>( ch( eng ) );
            }
            /** pattern sampled from the text so matches exist **/
            const std::string pattern = text.substr( 17, 4 );
            const naive_matcher oracle( pattern );
            auto m = build( GetParam(), pattern );
            EXPECT_EQ( m->count( text.data(), text.size() ),
                       oracle.count( text.data(), text.size() ) );
        }
    }
}

TEST_P( matcher_oracle, empty_pattern_rejected )
{
    EXPECT_THROW( build( GetParam(), "" ), std::invalid_argument );
}

INSTANTIATE_TEST_SUITE_P( algorithms, matcher_oracle,
                          ::testing::Values( algo_kind::naive,
                                             algo_kind::memchr_k,
                                             algo_kind::bmh,
                                             algo_kind::bm,
                                             algo_kind::ac ) );

TEST( aho_corasick, multi_pattern_rules_reported )
{
    aho_corasick_matcher m(
        std::vector<std::string>{ "he", "she", "his", "hers" } );
    std::vector<std::pair<std::size_t, std::uint32_t>> hits;
    const std::string text = "ushers";
    m.find( text.data(), text.size(),
            [ & ]( std::size_t p, std::uint32_t r ) {
                hits.emplace_back( p, r );
            } );
    /** "she"@1, "he"@2, "hers"@2 **/
    ASSERT_EQ( hits.size(), 3u );
    EXPECT_EQ( m.count( text.data(), text.size() ), 3u );
    bool saw_she = false, saw_he = false, saw_hers = false;
    for( const auto &[ p, r ] : hits )
    {
        if( p == 1 && r == 1 )
        {
            saw_she = true;
        }
        if( p == 2 && r == 0 )
        {
            saw_he = true;
        }
        if( p == 2 && r == 3 )
        {
            saw_hers = true;
        }
    }
    EXPECT_TRUE( saw_she && saw_he && saw_hers );
}

TEST( aho_corasick, nested_patterns )
{
    aho_corasick_matcher m(
        std::vector<std::string>{ "a", "aa", "aaa" } );
    EXPECT_EQ( m.count( "aaaa", 4 ), 4u + 3u + 2u );
}

namespace {

using hit_list = std::vector<std::pair<std::size_t, std::uint32_t>>;

hit_list hits_of( const matcher &m, const std::string &text )
{
    hit_list out;
    m.find( text.data(), text.size(),
            [ & ]( std::size_t p, std::uint32_t r ) {
                out.emplace_back( p, r );
            } );
    return out;
}

/** The serial walk's order, by brute force: ends ascending; at one end,
 *  longer patterns first, then by pattern index. */
hit_list serial_reference( const std::vector<std::string> &patterns,
                           const std::string &text )
{
    hit_list out;
    for( std::size_t end = 1; end <= text.size(); ++end )
    {
        std::vector<std::pair<std::size_t, std::uint32_t>> at_end;
        for( std::uint32_t r = 0; r < patterns.size(); ++r )
        {
            const auto &p = patterns[ r ];
            if( p.size() <= end &&
                text.compare( end - p.size(), p.size(), p ) == 0 )
            {
                at_end.emplace_back( p.size(), r );
            }
        }
        std::sort( at_end.begin(), at_end.end(),
                   []( const auto &a, const auto &b ) {
                       return a.first > b.first ||
                              ( a.first == b.first && a.second < b.second );
                   } );
        for( const auto &[ len, r ] : at_end )
        {
            out.emplace_back( end - len, r );
        }
    }
    return out;
}

} /** end anonymous namespace **/

TEST( aho_corasick, lanes_report_serial_order )
{
    constexpr auto slice = aho_corasick_matcher::slice;
    constexpr auto block = aho_corasick_matcher::lanes * slice;
    /** three blocks and a ragged tail **/
    const std::size_t len = 3 * block + 700;
    const struct
    {
        std::vector<std::string> patterns;
        std::string plant;
    } sets[] = {
        /** "she" and "he" end together, as do "hers" and "rs" **/
        { { "he", "she", "his", "hers", "rs" }, "ushishers" },
        { { "a", "aa", "aaa" }, "aaaa" },
    };
    for( const auto &set : sets )
    {
        const aho_corasick_matcher m( set.patterns );
        const auto reach = static_cast<std::ptrdiff_t>(
            m.max_pattern_len() + set.plant.size() );
        /** one text per offset: the plant at every slice boundary, from
         *  wholly before it to wholly after it **/
        for( auto d = -reach; d <= reach; ++d )
        {
            std::string text( len, 'x' );
            for( std::size_t b = 0; b <= len; b += slice )
            {
                const auto at = static_cast<std::ptrdiff_t>( b ) + d;
                if( at >= 0 && static_cast<std::size_t>( at ) +
                                       set.plant.size() <=
                                   len )
                {
                    text.replace( static_cast<std::size_t>( at ),
                                  set.plant.size(), set.plant );
                }
            }
            const auto want = serial_reference( set.patterns, text );
            ASSERT_EQ( hits_of( m, text ), want )
                << set.plant << " at boundary " << d;
            EXPECT_EQ( m.count( text.data(), text.size() ), want.size() );
        }
    }
    /** match-dense: every byte ends a match, in every lane **/
    const std::string run( len, 'a' );
    for( const auto &patterns : { std::vector<std::string>{ "aa" },
                                  std::vector<std::string>{ "a", "aa",
                                                            "aaa" } } )
    {
        const aho_corasick_matcher m( patterns );
        const auto want = serial_reference( patterns, run );
        EXPECT_EQ( hits_of( m, run ), want );
        EXPECT_EQ( m.count( run.data(), run.size() ), want.size() );
    }
    /** the longest pattern the lanes take (lane 1's warm-up then starts
     *  at its block's first byte), and one byte longer: walked serially
     *  throughout **/
    std::string text = run;
    for( std::size_t b = 0; b < len; b += 1500 )
    {
        text[ b ] = 'b';
    }
    for( const auto n : { slice, slice + 1 } )
    {
        const std::vector<std::string> longer{ "ab",
                                               std::string( n, 'a' ) + "b" };
        const aho_corasick_matcher m( longer );
        const auto want = serial_reference( longer, text );
        EXPECT_EQ( hits_of( m, text ), want ) << "pattern length " << n + 1;
        EXPECT_EQ( m.count( text.data(), text.size() ), want.size() );
    }
}

TEST( aho_corasick, state_count_reflects_trie )
{
    aho_corasick_matcher m( std::vector<std::string>{ "ab", "ac" } );
    /** root + a + b + c **/
    EXPECT_EQ( m.state_count(), 4u );
}

TEST( matchers, max_pattern_len_drives_overlap )
{
    bmh_matcher m( "hello" );
    EXPECT_EQ( m.max_pattern_len(), 5u );
    aho_corasick_matcher ac(
        std::vector<std::string>{ "ab", "abcdef" } );
    EXPECT_EQ( ac.max_pattern_len(), 6u );
}

TEST( matchers, factory_dispatches_tags )
{
    auto ac = make_matcher<ahocorasick>( "xyz" );
    EXPECT_STREQ( ac->name(), "aho-corasick" );
    auto bm = make_matcher<boyermoore>( "xyz" );
    EXPECT_STREQ( bm->name(), "boyer-moore" );
    auto bmh = make_matcher<boyermoorehorspool>( "xyz" );
    EXPECT_STREQ( bmh->name(), "boyer-moore-horspool" );
}
