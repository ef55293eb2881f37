/**
 * One dispatch path for both schedulers (core/scheduler.cpp): raft::term
 * and cancellation are checked once per dispatch, before its first run(),
 * and a dispatch runs at most detail::dispatch_budget run() calls. A
 * kernel that raises raft::term therefore stops within one budget of
 * run() calls, on the thread scheduler and on the pool alike.
 */
#include <gtest/gtest.h>

#include <cstdint>

#include <raft.hpp>

namespace {

using i64 = std::int64_t;

/** Endless source that raises raft::term on its own bus at its
 *  `raise_at`-th run() and keeps producing until the scheduler stops
 *  calling it. */
class term_raiser final : public raft::kernel
{
public:
    explicit term_raiser( const std::uint64_t raise_at )
        : raise_at_( raise_at )
    {
        output.addPort<i64>( "0" );
    }

    raft::kstatus run() override
    {
        if( ++calls == raise_at_ )
        {
            bus()->raise( raft::term );
        }
        output[ "0" ].push<i64>( static_cast<i64>( calls ) );
        return raft::proceed;
    }

    std::uint64_t calls{ 0 };

private:
    const std::uint64_t raise_at_;
};

class swallow final : public raft::kernel
{
public:
    swallow() { input.addPort<i64>( "0" ); }

    raft::kstatus run() override
    {
        (void) input[ "0" ].pop<i64>();
        return raft::proceed;
    }
};

void expect_stops_within_one_budget( const raft::scheduler_kind kind )
{
    /** mid-dispatch on the thread scheduler, whose dispatches are
     *  exactly one budget long **/
    const std::uint64_t raise_at = raft::detail::dispatch_budget * 3 / 2;
    raft::map m;
    auto *src = raft::kernel::make<term_raiser>( raise_at );
    m.link( src, raft::kernel::make<swallow>() );
    raft::run_options o;
    o.scheduler    = kind;
    o.pool_threads = 2;
    m.exe( o );
    ASSERT_GE( src->calls, raise_at );
    EXPECT_LT( src->calls - raise_at, raft::detail::dispatch_budget )
        << src->calls << " run() calls, term raised at " << raise_at;
}

} /** end anonymous namespace **/

TEST( dispatch, raised_term_stops_within_one_budget_thread_scheduler )
{
    expect_stops_within_one_budget( raft::scheduler_kind::thread_per_kernel );
}

TEST( dispatch, raised_term_stops_within_one_budget_pool_scheduler )
{
    expect_stops_within_one_budget( raft::scheduler_kind::pool );
}
