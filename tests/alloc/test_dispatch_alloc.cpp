/**
 * Dispatch allocation regression: with fault injection and telemetry off,
 * running a kernel must not allocate. Each scheduler runs the same
 * generate → transform → sink chain over N and over 4N elements with
 * dynamic resizing off, and the number of operator new calls made during
 * exe() may differ by less than N/64 — set-up costs cancel, any
 * per-element (or per-dispatch) allocation does not.
 *
 * The Aho–Corasick matcher's find() and count() must not allocate either:
 * they run once per segment inside search<>::run().
 *
 * This binary replaces the global operator new to count calls, so it is
 * kept apart from raft_tests.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <algo/strmatch.hpp>
#include <raft.hpp>

namespace {

std::atomic<bool> counting{ false };
std::atomic<std::uint64_t> allocations{ 0 };

void *counted_alloc( const std::size_t n, const std::size_t align )
{
    if( counting.load( std::memory_order_relaxed ) )
    {
        allocations.fetch_add( 1, std::memory_order_relaxed );
    }
    const auto size = n == 0 ? align : ( n + align - 1 ) / align * align;
    void *p         = align <= alignof( std::max_align_t )
                          ? std::malloc( size )
                          : std::aligned_alloc( align, size );
    if( p == nullptr )
    {
        throw std::bad_alloc();
    }
    return p;
}

} /** end anonymous namespace **/

void *operator new( std::size_t n )
{
    return counted_alloc( n, alignof( std::max_align_t ) );
}

void *operator new[]( std::size_t n )
{
    return counted_alloc( n, alignof( std::max_align_t ) );
}

void *operator new( std::size_t n, std::align_val_t a )
{
    return counted_alloc( n, static_cast<std::size_t>( a ) );
}

void *operator new[]( std::size_t n, std::align_val_t a )
{
    return counted_alloc( n, static_cast<std::size_t>( a ) );
}

void operator delete( void *p ) noexcept { std::free( p ); }
void operator delete[]( void *p ) noexcept { std::free( p ); }
void operator delete( void *p, std::size_t ) noexcept { std::free( p ); }
void operator delete[]( void *p, std::size_t ) noexcept { std::free( p ); }
void operator delete( void *p, std::align_val_t ) noexcept { std::free( p ); }
void operator delete[]( void *p, std::align_val_t ) noexcept
{
    std::free( p );
}
void operator delete( void *p, std::size_t, std::align_val_t ) noexcept
{
    std::free( p );
}
void operator delete[]( void *p, std::size_t, std::align_val_t ) noexcept
{
    std::free( p );
}

namespace {

using u64 = std::uint64_t;

/** Sums its input through a port resolved once. */
class sum_sink : public raft::kernel
{
public:
    sum_sink() : in_( input.addPort<u64>( "0" ) ) {}

    raft::kstatus run() override
    {
        total += in_.pop<u64>();
        return raft::proceed;
    }

    u64 total{ 0 };

private:
    raft::port &in_;
};

/** operator new calls during exe() of an n-element chain. */
std::uint64_t allocations_during_exe( const raft::scheduler_kind kind,
                                      const std::size_t n )
{
    raft::map m;
    auto *src = raft::kernel::make<raft::generate<u64>>(
        n, []( const std::size_t i ) { return static_cast<u64>( i ); } );
    auto *mid = raft::kernel::make<raft::transform<u64>>(
        []( const u64 &v ) { return v + 1; } );
    auto *dst = raft::kernel::make<sum_sink>();
    auto p    = m.link( src, mid );
    m.link( &( p.dst ), dst );

    raft::run_options o;
    o.dynamic_resize = false;
    o.scheduler      = kind;
    o.pool_threads   = 2;
    allocations.store( 0, std::memory_order_relaxed );
    counting.store( true, std::memory_order_relaxed );
    m.exe( o );
    counting.store( false, std::memory_order_relaxed );

    /** sum of 1..n **/
    EXPECT_EQ( dst->total, static_cast<u64>( n ) * ( n + 1 ) / 2 );
    return allocations.load( std::memory_order_relaxed );
}

void expect_no_per_element_allocation( const raft::scheduler_kind kind )
{
    ASSERT_FALSE( raft::runtime::inject::enabled() );
    constexpr std::size_t n = 1U << 14;
    const auto small        = allocations_during_exe( kind, n );
    const auto large        = allocations_during_exe( kind, 4 * n );
    const auto extra        = large > small ? large - small : 0;
    EXPECT_LT( extra, n / 64 ) << "allocations during exe(): " << small
                               << " for " << n << " elements, " << large
                               << " for " << 4 * n;
}

} /** end anonymous namespace **/

TEST( dispatch_alloc, thread_scheduler_run_does_not_allocate )
{
    expect_no_per_element_allocation( raft::scheduler_kind::thread_per_kernel );
}

TEST( dispatch_alloc, pool_scheduler_run_does_not_allocate )
{
    expect_no_per_element_allocation( raft::scheduler_kind::pool );
}

TEST( matcher_alloc, aho_corasick_scan_does_not_allocate )
{
    const raft::algo::aho_corasick_matcher m(
        std::vector<std::string>{ "he", "she", "his", "hers" } );
    /** matches in most slices, so every lane records some **/
    std::string text( 1U << 16, 'x' );
    for( std::size_t at = 0; at + 6 <= text.size(); at += 700 )
    {
        text.replace( at, 6, "ushers" );
    }
    std::uint64_t found = 0;
    const raft::algo::match_cb on_match =
        [ &found ]( std::size_t, std::uint32_t ) { ++found; };
    allocations.store( 0, std::memory_order_relaxed );
    counting.store( true, std::memory_order_relaxed );
    m.find( text.data(), text.size(), on_match );
    const auto counted = m.count( text.data(), text.size() );
    counting.store( false, std::memory_order_relaxed );
    EXPECT_EQ( allocations.load( std::memory_order_relaxed ), 0u );
    EXPECT_EQ( counted, found );
    EXPECT_GT( found, 0u );
}
