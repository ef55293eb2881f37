#include "algo/strmatch.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>

namespace raft::algo {

namespace {

void require_pattern( const std::string &p )
{
    if( p.empty() )
    {
        throw std::invalid_argument( "empty search pattern" );
    }
}

} /** end anonymous namespace **/

/* ------------------------------------------------------------------ */
/* naive                                                                */
/* ------------------------------------------------------------------ */

naive_matcher::naive_matcher( std::string pattern )
    : pattern_( std::move( pattern ) )
{
    require_pattern( pattern_ );
}

void naive_matcher::find( const char *data, const std::size_t len,
                          const match_cb &on_match ) const
{
    const auto m = pattern_.size();
    if( len < m )
    {
        return;
    }
    for( std::size_t i = 0; i + m <= len; ++i )
    {
        bool hit = true;
        for( std::size_t j = 0; j < m; ++j )
        {
            if( data[ i + j ] != pattern_[ j ] )
            {
                hit = false;
                break;
            }
        }
        if( hit )
        {
            on_match( i, 0 );
        }
    }
}

std::uint64_t naive_matcher::count( const char *data,
                                    const std::size_t len ) const
{
    std::uint64_t n = 0;
    find( data, len, [ &n ]( std::size_t, std::uint32_t ) { ++n; } );
    return n;
}

/* ------------------------------------------------------------------ */
/* memchr                                                               */
/* ------------------------------------------------------------------ */

memchr_matcher::memchr_matcher( std::string pattern )
    : pattern_( std::move( pattern ) )
{
    require_pattern( pattern_ );
}

void memchr_matcher::find( const char *data, const std::size_t len,
                           const match_cb &on_match ) const
{
    const auto m = pattern_.size();
    if( len < m )
    {
        return;
    }
    const char first  = pattern_[ 0 ];
    const char *cur   = data;
    const char *limit = data + ( len - m ) + 1;
    while( cur < limit )
    {
        const auto *hit = static_cast<const char *>( std::memchr(
            cur, first, static_cast<std::size_t>( limit - cur ) ) );
        if( hit == nullptr )
        {
            return;
        }
        if( m == 1 ||
            std::memcmp( hit + 1, pattern_.data() + 1, m - 1 ) == 0 )
        {
            on_match( static_cast<std::size_t>( hit - data ), 0 );
        }
        cur = hit + 1;
    }
}

std::uint64_t memchr_matcher::count( const char *data,
                                     const std::size_t len ) const
{
    const auto m = pattern_.size();
    if( len < m )
    {
        return 0;
    }
    std::uint64_t n   = 0;
    const char first  = pattern_[ 0 ];
    const char *cur   = data;
    const char *limit = data + ( len - m ) + 1;
    while( cur < limit )
    {
        const auto *hit = static_cast<const char *>( std::memchr(
            cur, first, static_cast<std::size_t>( limit - cur ) ) );
        if( hit == nullptr )
        {
            break;
        }
        if( m == 1 ||
            std::memcmp( hit + 1, pattern_.data() + 1, m - 1 ) == 0 )
        {
            ++n;
        }
        cur = hit + 1;
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* Boyer–Moore–Horspool                                                 */
/* ------------------------------------------------------------------ */

bmh_matcher::bmh_matcher( std::string pattern )
    : pattern_( std::move( pattern ) )
{
    require_pattern( pattern_ );
    const auto m = pattern_.size();
    for( auto &s : skip_ )
    {
        s = m;
    }
    for( std::size_t i = 0; i + 1 < m; ++i )
    {
        skip_[ static_cast<unsigned char>( pattern_[ i ] ) ] = m - 1 - i;
    }
}

void bmh_matcher::find( const char *data, const std::size_t len,
                        const match_cb &on_match ) const
{
    const auto m = pattern_.size();
    if( len < m )
    {
        return;
    }
    std::size_t i = 0;
    while( i + m <= len )
    {
        const unsigned char last =
            static_cast<unsigned char>( data[ i + m - 1 ] );
        if( static_cast<char>( last ) == pattern_[ m - 1 ] &&
            std::memcmp( data + i, pattern_.data(), m - 1 ) == 0 )
        {
            on_match( i, 0 );
        }
        i += skip_[ last ];
    }
}

std::uint64_t bmh_matcher::count( const char *data,
                                  const std::size_t len ) const
{
    const auto m = pattern_.size();
    if( len < m )
    {
        return 0;
    }
    std::uint64_t n = 0;
    std::size_t i   = 0;
    while( i + m <= len )
    {
        const unsigned char last =
            static_cast<unsigned char>( data[ i + m - 1 ] );
        if( static_cast<char>( last ) == pattern_[ m - 1 ] &&
            std::memcmp( data + i, pattern_.data(), m - 1 ) == 0 )
        {
            ++n;
        }
        i += skip_[ last ];
    }
    return n;
}

/* ------------------------------------------------------------------ */
/* Boyer–Moore (bad character + good suffix)                            */
/* ------------------------------------------------------------------ */

bm_matcher::bm_matcher( std::string pattern )
    : pattern_( std::move( pattern ) )
{
    require_pattern( pattern_ );
    const auto m = static_cast<std::ptrdiff_t>( pattern_.size() );

    bad_char_.assign( 256, -1 );
    for( std::ptrdiff_t i = 0; i < m; ++i )
    {
        bad_char_[ static_cast<unsigned char>( pattern_[ i ] ) ] = i;
    }

    /** good-suffix preprocessing (standard strong-suffix construction) **/
    const auto mu = pattern_.size();
    std::vector<std::size_t> border( mu + 1, 0 );
    good_suffix_.assign( mu + 1, 0 );
    std::size_t i = mu, j = mu + 1;
    border[ i ]   = j;
    while( i > 0 )
    {
        while( j <= mu &&
               pattern_[ i - 1 ] != pattern_[ j - 1 ] )
        {
            if( good_suffix_[ j ] == 0 )
            {
                good_suffix_[ j ] = j - i;
            }
            j = border[ j ];
        }
        --i;
        --j;
        border[ i ] = j;
    }
    j = border[ 0 ];
    for( std::size_t k = 0; k <= mu; ++k )
    {
        if( good_suffix_[ k ] == 0 )
        {
            good_suffix_[ k ] = j;
        }
        if( k == j )
        {
            j = border[ j ];
        }
    }
}

void bm_matcher::find( const char *data, const std::size_t len,
                       const match_cb &on_match ) const
{
    const auto m = static_cast<std::ptrdiff_t>( pattern_.size() );
    if( static_cast<std::ptrdiff_t>( len ) < m )
    {
        return;
    }
    std::ptrdiff_t s = 0;
    const auto n     = static_cast<std::ptrdiff_t>( len );
    while( s <= n - m )
    {
        std::ptrdiff_t j = m - 1;
        while( j >= 0 && pattern_[ j ] == data[ s + j ] )
        {
            --j;
        }
        if( j < 0 )
        {
            on_match( static_cast<std::size_t>( s ), 0 );
            s += static_cast<std::ptrdiff_t>( good_suffix_[ 0 ] );
        }
        else
        {
            const auto bc =
                j - bad_char_[ static_cast<unsigned char>( data[ s + j ] ) ];
            const auto gs = static_cast<std::ptrdiff_t>(
                good_suffix_[ static_cast<std::size_t>( j ) + 1 ] );
            s += std::max<std::ptrdiff_t>( 1, std::max( bc, gs ) );
        }
    }
}

std::uint64_t bm_matcher::count( const char *data,
                                 const std::size_t len ) const
{
    std::uint64_t n = 0;
    find( data, len, [ &n ]( std::size_t, std::uint32_t ) { ++n; } );
    return n;
}

/* ------------------------------------------------------------------ */
/* Aho–Corasick                                                         */
/* ------------------------------------------------------------------ */

aho_corasick_matcher::aho_corasick_matcher(
    std::vector<std::string> patterns )
    : patterns_( std::move( patterns ) )
{
    if( patterns_.empty() )
    {
        throw std::invalid_argument( "aho-corasick needs >= 1 pattern" );
    }
    for( const auto &p : patterns_ )
    {
        require_pattern( p );
        max_len_ = std::max( max_len_, p.size() );
    }

    /** trie construction with sparse children first **/
    struct node
    {
        std::uint32_t child[ 256 ];
        std::uint32_t fail{ 0 };
        node() { std::fill( std::begin( child ), std::end( child ), 0u ); }
    };
    std::vector<node> trie( 1 );
    std::vector<std::vector<output>> node_out( 1 );
    for( std::uint32_t r = 0; r < patterns_.size(); ++r )
    {
        std::uint32_t cur = 0;
        for( const char ch : patterns_[ r ] )
        {
            const auto b = static_cast<unsigned char>( ch );
            if( trie[ cur ].child[ b ] == 0 )
            {
                trie.emplace_back();
                node_out.emplace_back();
                trie[ cur ].child[ b ] =
                    static_cast<std::uint32_t>( trie.size() - 1 );
            }
            cur = trie[ cur ].child[ b ];
        }
        node_out[ cur ].push_back( output{
            r, static_cast<std::uint32_t>( patterns_[ r ].size() ) } );
    }

    /** BFS: failure links + goto-automaton completion **/
    std::deque<std::uint32_t> q;
    for( unsigned b = 0; b < 256; ++b )
    {
        const auto c = trie[ 0 ].child[ b ];
        if( c != 0 )
        {
            trie[ c ].fail = 0;
            q.push_back( c );
        }
    }
    while( !q.empty() )
    {
        const auto u = q.front();
        q.pop_front();
        /** inherit outputs along failure chain (flattened) **/
        const auto f = trie[ u ].fail;
        for( const auto &o : node_out[ f ] )
        {
            node_out[ u ].push_back( o );
        }
        for( unsigned b = 0; b < 256; ++b )
        {
            const auto c = trie[ u ].child[ b ];
            if( c != 0 )
            {
                trie[ c ].fail = trie[ f ].child[ b ];
                q.push_back( c );
            }
            else
            {
                trie[ u ].child[ b ] = trie[ f ].child[ b ];
            }
        }
    }

    node_count_ = trie.size();
    if( node_count_ - 1 >
        ( std::numeric_limits<std::uint32_t>::max() >> 8 ) )
    {
        throw std::length_error( "aho-corasick automaton too large" );
    }
    if( max_len_ - 1 <= slice )
    {
        block_ = lanes * slice;
    }
    next_.resize( node_count_ * 256 );
    for( std::size_t s = 0; s < node_count_; ++s )
    {
        for( unsigned b = 0; b < 256; ++b )
        {
            next_[ s * 256 + b ] = trie[ s ].child[ b ] << 8;
        }
    }
    outputs_ = std::move( node_out );
    out_count_.resize( node_count_ );
    for( std::size_t s = 0; s < node_count_; ++s )
    {
        out_count_[ s ] =
            static_cast<std::uint32_t>( outputs_[ s ].size() );
    }
}

template <class Step>
std::uint32_t aho_corasick_matcher::scan_block( const unsigned char *block,
                                                const std::uint32_t state,
                                                Step &&step ) const
{
    const auto *next = next_.data();
    const auto warm  = max_len_ - 1;
    std::size_t s[ lanes ] = {};
    s[ 0 ]                 = state;
    /** lanes 1.. warm up from the root: no match ending before their
     *  slice is theirs to report **/
    const auto *lane1 = block + slice;
    for( const auto *p = lane1 - warm; p < lane1; ++p )
    {
#pragma GCC unroll lanes
        for( std::size_t k = 1; k < lanes; ++k )
        {
            s[ k ] = next[ s[ k ] + p[ ( k - 1 ) * slice ] ];
        }
    }
    for( std::uint32_t j = 0; j < slice; ++j )
    {
#pragma GCC unroll lanes
        for( std::size_t k = 0; k < lanes; ++k )
        {
            s[ k ] = next[ s[ k ] + block[ k * slice + j ] ];
            step( k, j, static_cast<std::uint32_t>( s[ k ] ) );
        }
    }
    return static_cast<std::uint32_t>( s[ lanes - 1 ] );
}

void aho_corasick_matcher::report( const std::size_t i,
                                   const std::uint32_t state,
                                   const match_cb &on_match ) const
{
    for( const auto &o : outputs_[ state >> 8 ] )
    {
        on_match( i + 1 - o.len, o.rule );
    }
}

void aho_corasick_matcher::find( const char *data, const std::size_t len,
                                 const match_cb &on_match ) const
{
    const auto *text    = reinterpret_cast<const unsigned char *>( data );
    const auto *next    = next_.data();
    const auto *oc      = out_count_.data();
    std::uint32_t state = 0;
    std::size_t pos     = 0;
    for( ; len - pos >= block_; pos += block_ )
    {
        lane_hits hits[ lanes ];
        std::uint32_t n[ lanes ] = {};
        state = scan_block(
            text + pos, state,
            [ &hits, &n, oc ]( const std::size_t k, const std::uint32_t j,
                               const std::uint32_t s ) {
                if( oc[ s >> 8 ] != 0 ) [[unlikely]]
                {
                    hits[ k ].end[ n[ k ] ]   = j;
                    hits[ k ].state[ n[ k ] ] = s;
                    ++n[ k ];
                }
            } );
        /** lane order, then slice order: the serial walk's order **/
        for( std::size_t k = 0; k < lanes; ++k )
        {
            for( std::uint32_t h = 0; h < n[ k ]; ++h )
            {
                report( pos + k * slice + hits[ k ].end[ h ],
                        hits[ k ].state[ h ], on_match );
            }
        }
    }
    for( ; pos < len; ++pos )
    {
        state = next[ state + text[ pos ] ];
        if( oc[ state >> 8 ] != 0 )
        {
            report( pos, state, on_match );
        }
    }
}

std::uint64_t aho_corasick_matcher::count( const char *data,
                                           const std::size_t len ) const
{
    const auto *text    = reinterpret_cast<const unsigned char *>( data );
    const auto *next    = next_.data();
    const auto *oc      = out_count_.data();
    std::uint64_t n     = 0;
    std::uint32_t state = 0;
    std::size_t pos     = 0;
    for( ; len - pos >= block_; pos += block_ )
    {
        /** branch-free: a count needs no match positions **/
        state = scan_block(
            text + pos, state,
            [ &n, oc ]( std::size_t, std::uint32_t,
                        const std::uint32_t s ) { n += oc[ s >> 8 ]; } );
    }
    for( ; pos < len; ++pos )
    {
        state = next[ state + text[ pos ] ];
        n += oc[ state >> 8 ];
    }
    return n;
}

} /** end namespace raft::algo **/
