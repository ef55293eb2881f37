/**
 * Protocol model checker (src/analysis/mc/): the exhaustive-interleaving
 * explorer itself (it must find a textbook load/store race and prove the
 * RMW fix), then the re-instantiated ring-buffer protocol: SPSC transfer
 * with shadow-index caching under sequential consistency and under bounded
 * store reordering, the cooperative resize handshake (the shipped
 * asymmetric pair proved exhaustively under store reordering for each
 * queue end, and all three parties at once under sequential consistency;
 * the symmetric fallback proved too), abort semantics on blocked ends,
 * abort-beats-EOS ordering, the park/notify handshake of blocked ends
 * (proved for each end under store reordering) — and the four
 * deliberately broken variants (weakened fallback fence, asymmetric pair
 * without the heavy barrier, swapped abort/EOS checks, parker without its
 * barrier) that the checker must catch.
 */
#include <gtest/gtest.h>

#include <vector>

#include "analysis/mc/mc.hpp"
#include "analysis/mc/ring_model.hpp"

namespace {

using raft::mc::model_ring;
using pop_status = raft::mc::model_ring::pop_status;

raft::mc::options quick( const int store_buffer = 0 )
{
    raft::mc::options o;
    o.store_buffer = store_buffer;
    return o;
}

} /** end anonymous namespace **/

TEST( model_checker, finds_textbook_increment_race )
{
    raft::mc::atomic<int> x( 0, "x" );
    auto body = [ & ]()
    {
        const int v = x.load( std::memory_order_relaxed );
        x.store( v + 1, std::memory_order_relaxed );
    };
    const auto r = raft::mc::explore(
        quick(), [ & ] { x.raw_reset( 0 ); }, { body, body },
        [ & ]( const auto &fail )
        {
            if( x.raw_get() != 2 )
            {
                fail( "increments lost: x == " +
                      std::to_string( x.raw_get() ) );
            }
        } );
    ASSERT_FALSE( r.ok() );
    EXPECT_NE( r.violations.front().message.find( "increments lost" ),
               std::string::npos );
    /** the trace names the interleaving that lost the update **/
    EXPECT_FALSE( r.violations.front().trace.empty() );
}

TEST( model_checker, rmw_increment_passes_exhaustively )
{
    raft::mc::atomic<int> x( 0, "x" );
    auto body = [ & ]() { x.fetch_add( 1, std::memory_order_relaxed ); };
    const auto r = raft::mc::explore(
        quick(), [ & ] { x.raw_reset( 0 ); }, { body, body },
        [ & ]( const auto &fail )
        {
            if( x.raw_get() != 2 )
            {
                fail( "increments lost" );
            }
        } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
    EXPECT_GT( r.executions, 1 );
}

TEST( model_checker, detects_deadlock )
{
    model_ring ring;
    const auto r = raft::mc::explore(
        quick(), [ & ] { ring.reset( 2 ); },
        { [ & ]()
          {
              int v = 0;
              /** nobody ever pushes, closes or aborts: this must block
               *  forever, and the checker must say so */
              (void) ring.pop( v );
          } } );
    ASSERT_FALSE( r.ok() );
    EXPECT_NE( r.violations.front().message.find( "deadlock" ),
               std::string::npos );
}

TEST( model_checker, spsc_transfer_correct_under_sc )
{
    /** n = 2 with capacity 2 still exercises wrap-around, the shadow-cache
     *  refresh on both ends and the EOS path, while keeping the (pruned)
     *  tree small enough to exhaust in seconds */
    constexpr int n = 2;
    model_ring ring( raft::mc::ring_opts{ .abstract_blocking = true } );
    std::vector<int> popped;
    const auto r = raft::mc::explore(
        quick(),
        [ & ]
        {
            ring.reset( 2 );
            popped.clear();
        },
        { [ & ]()
          {
              for( int i = 1; i <= n; ++i )
              {
                  raft::mc::check( ring.push( i ), "push aborted" );
              }
              ring.close_write();
          },
          [ & ]()
          {
              for( ;; )
              {
                  int v        = 0;
                  const auto s = ring.pop( v );
                  if( s == pop_status::eos )
                  {
                      return;
                  }
                  raft::mc::check( s == pop_status::got,
                                   "unexpected pop status" );
                  popped.push_back( v );
              }
          } },
        [ & ]( const auto &fail )
        {
            if( popped.size() != static_cast<std::size_t>( n ) )
            {
                fail( "lost or duplicated elements: popped " +
                      std::to_string( popped.size() ) );
                return;
            }
            for( int i = 0; i < n; ++i )
            {
                if( popped[ static_cast<std::size_t>( i ) ] != i + 1 )
                {
                    fail( "elements reordered" );
                    return;
                }
            }
        } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
    EXPECT_GT( r.executions, 1 );
}

TEST( model_checker, spsc_transfer_correct_under_store_reordering )
{
    /** store buffering explodes the tree (every buffered store adds a
     *  flush action, and every commit re-enables the blocked end), so the
     *  weak-memory variant is a bounded sweep: 10k executions of the
     *  smallest transfer that crosses the buffer. The companion
     *  broken-variant tests show the same bound finds seeded ordering
     *  bugs in well under 5k executions. */
    constexpr int n = 1;
    model_ring ring;
    std::vector<int> popped;
    auto opt           = quick( /*store_buffer=*/1 );
    opt.max_executions = 10000;
    const auto r       = raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            popped.clear();
        },
        { [ & ]()
          {
              for( int i = 1; i <= n; ++i )
              {
                  raft::mc::check( ring.push( i ), "push aborted" );
              }
              ring.close_write();
          },
          [ & ]()
          {
              for( ;; )
              {
                  int v        = 0;
                  const auto s = ring.pop( v );
                  if( s == pop_status::eos )
                  {
                      return;
                  }
                  raft::mc::check( s == pop_status::got,
                                   "unexpected pop status" );
                  popped.push_back( v );
              }
          } },
        [ & ]( const auto &fail )
        {
            if( popped.size() != static_cast<std::size_t>( n ) )
            {
                fail( "lost or duplicated elements" );
            }
            else if( popped[ 0 ] != 1 )
            {
                fail( "element corrupted" );
            }
        } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_EQ( r.executions, 10000 ) << r.summary();
}

TEST( model_checker, resize_handshake_correct_under_sc )
{
    /** exhaustive under sequential consistency: producer pushes into a
     *  wrapped ring while the monitor relocates it — every interleaving
     *  of the Dekker handshake, the shadow-cache reseed and the
     *  relocation is explored to completion */
    model_ring ring;
    const auto r = raft::mc::explore(
        quick(),
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, { 10 } );
        },
        { [ & ]()
          { raft::mc::check( ring.push( 20 ), "push aborted" ); },
          [ & ]() { (void) ring.try_resize( 4 ); } },
        [ & ]( const auto &fail )
        {
            if( ring.raw_size() != 2U )
            {
                fail( "element lost or duplicated across resize: size " +
                      std::to_string( ring.raw_size() ) );
                return;
            }
            if( ring.raw_at( 0 ) != 10 || ring.raw_at( 1 ) != 20 )
            {
                fail( "FIFO order broken across resize" );
            }
        } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, resize_handshake_correct_under_store_reordering )
{
    /** bounded sweep under TSO (see the SPSC weak-memory test for why);
     *  the broken-Dekker twin below proves this bound is more than enough
     *  to expose a weakened handshake */
    model_ring ring;
    auto opt           = quick( /*store_buffer=*/1 );
    opt.max_executions = 10000;
    const auto r       = raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, { 10 } );
        },
        { /** producer pushes one element while... */
          [ & ]()
          { raft::mc::check( ring.push( 20 ), "push aborted" ); },
          /** ...the monitor grows the (wrapped) ring */
          [ & ]() { (void) ring.try_resize( 4 ); } },
        [ & ]( const auto &fail )
        {
            if( ring.raw_size() != 2U )
            {
                fail( "element lost or duplicated across resize: size " +
                      std::to_string( ring.raw_size() ) );
                return;
            }
            if( ring.raw_at( 0 ) != 10 || ring.raw_at( 1 ) != 20 )
            {
                fail( "FIFO order broken across resize" );
            }
        } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_EQ( r.executions, 10000 ) << r.summary();
}

TEST( model_checker, broken_dekker_caught_under_store_reordering )
{
    model_ring ring( raft::mc::ring_opts{ /*broken_dekker=*/true,
                                          /*broken_abort_order=*/false } );
    auto opt = quick( /*store_buffer=*/1 );
    const auto r = raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, { 10 } );
        },
        { [ & ]()
          { raft::mc::check( ring.push( 20 ), "push aborted" ); },
          [ & ]() { (void) ring.try_resize( 4 ); } },
        [ & ]( const auto &fail )
        {
            if( ring.raw_size() != 2U )
            {
                fail( "element lost or duplicated across resize" );
            }
            else if( ring.raw_at( 0 ) != 10 || ring.raw_at( 1 ) != 20 )
            {
                fail( "FIFO order broken across resize" );
            }
        } );
    /** weakening the handshake's seq_cst pair to release/acquire lets the
     *  producer's announcement hide in its store buffer while the monitor
     *  relocates — the checker must exhibit a corrupting interleaving **/
    ASSERT_FALSE( r.ok() ) << r.summary();
    EXPECT_FALSE( r.violations.front().trace.empty() );
}

TEST( model_checker, abort_wakes_blocked_consumer )
{
    model_ring ring;
    const auto r = raft::mc::explore(
        quick(), [ & ] { ring.reset( 2 ); },
        { [ & ]()
          {
              raft::mc::check( ring.push( 1 ), "push aborted" );
              ring.abort();
          },
          [ & ]()
          {
              int v = 0;
              for( ;; )
              {
                  const auto s = ring.pop( v );
                  if( s == pop_status::aborted )
                  {
                      return; /** cancellation observed **/
                  }
                  raft::mc::check( s == pop_status::got,
                                   "EOS on a stream that never closed" );
              }
          } } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, abort_beats_eos_when_both_visible )
{
    /** the guarantee the blocked path makes: once cancellation is visible,
     *  a drained stream reports aborted, never a clean EOS. (When abort
     *  and close land *between* the consumer's two flag loads the race is
     *  inherent — so the discriminating state has both flags committed
     *  before the pop.) */
    model_ring ring;
    const auto r = raft::mc::explore(
        quick(),
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_set_flags( /*aborted=*/true, /*write_closed=*/true );
        },
        { [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::aborted,
                               "consumer observed EOS despite abort" );
          } } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();

    /** and without an abort, drained really is a clean EOS **/
    model_ring ring2;
    const auto r2 = raft::mc::explore(
        quick(),
        [ & ]
        {
            ring2.reset( 2 );
            ring2.raw_set_flags( /*aborted=*/false, /*write_closed=*/true );
        },
        { [ & ]()
          {
              int v = 0;
              raft::mc::check( ring2.pop( v ) == pop_status::eos,
                               "drained stream did not report EOS" );
          } } );
    EXPECT_TRUE( r2.ok() ) << r2.summary();
}

TEST( model_checker, broken_abort_order_caught )
{
    model_ring ring( raft::mc::ring_opts{ /*broken_dekker=*/false,
                                          /*broken_abort_order=*/true } );
    const auto r = raft::mc::explore(
        quick(),
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_set_flags( /*aborted=*/true, /*write_closed=*/true );
        },
        { [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::aborted,
                               "consumer observed EOS despite abort" );
          } } );
    ASSERT_FALSE( r.ok() ) << r.summary();
    EXPECT_NE( r.violations.front().message.find( "EOS despite abort" ),
               std::string::npos );
}

namespace {

/** Final-state check of a wrapped ring that must hold exactly `want`,
 *  oldest first. */
auto holds( const model_ring &ring, const std::vector<int> want )
{
    return [ &ring, want ]( const auto &fail )
    {
        if( ring.raw_size() != want.size() )
        {
            fail( "element lost or duplicated across resize: size " +
                  std::to_string( ring.raw_size() ) );
            return;
        }
        for( unsigned i = 0U; i < want.size(); ++i )
        {
            if( ring.raw_at( i ) != want[ i ] )
            {
                fail( "FIFO order broken across resize" );
                return;
            }
        }
    };
}

/** The producer pushes 20 into an empty ring wrapped at index 1 while the
 *  monitor grows it. */
raft::mc::result producer_vs_resize( model_ring &ring,
                                     const raft::mc::options &opt )
{
    return raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, {} );
        },
        { [ & ]() { raft::mc::check( ring.push( 20 ), "push aborted" ); },
          [ & ]() { (void) ring.try_resize( 4 ); } },
        holds( ring, { 20 } ) );
}

/** The consumer pops the one element of a ring wrapped at index 1 while
 *  the monitor grows it. */
raft::mc::result consumer_vs_resize( model_ring &ring,
                                     const raft::mc::options &opt )
{
    return raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, { 10 } );
        },
        { [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::got,
                               "unexpected pop status" );
              raft::mc::check( v == 10, "popped the wrong element" );
          },
          [ & ]() { (void) ring.try_resize( 4 ); } },
        holds( ring, {} ) );
}

} /** end anonymous namespace **/

/** The shipped handshake — relaxed store + light barrier on the ends, gate
 *  store + heavy barrier on the monitor — proved exhaustively with one
 *  buffered store per thread, once per queue end (each end's handshake is
 *  independent of the other's). */
TEST( model_checker, asymmetric_handshake_proved_producer_vs_resize )
{
    model_ring ring( raft::mc::ring_opts{ .abstract_blocking = true } );
    const auto r = producer_vs_resize( ring, quick( /*store_buffer=*/1 ) );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, asymmetric_handshake_proved_consumer_vs_resize )
{
    model_ring ring( raft::mc::ring_opts{ .abstract_blocking = true } );
    const auto r = consumer_vs_resize( ring, quick( /*store_buffer=*/1 ) );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, spsc_with_resize_proved_under_sc )
{
    /** all three parties at once: producer, consumer and monitor race on
     *  an empty wrapped ring */
    model_ring ring( raft::mc::ring_opts{ .abstract_blocking = true } );
    int got      = 0;
    const auto r = raft::mc::explore(
        quick(),
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, {} );
            got = 0;
        },
        { [ & ]() { raft::mc::check( ring.push( 7 ), "push aborted" ); },
          [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::got,
                               "unexpected pop status" );
              got = v;
          },
          [ & ]() { (void) ring.try_resize( 4 ); } },
        [ & ]( const auto &fail )
        {
            if( got != 7 || ring.raw_size() != 0U )
            {
                fail( "element lost, corrupted or duplicated" );
            }
        } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, symmetric_fallback_proved_under_store_reordering )
{
    /** the platform fallback (seq_cst pair) on the wrapped-ring race of
     *  resize_handshake_correct_under_store_reordering, exhaustively */
    model_ring ring( raft::mc::ring_opts{ .symmetric         = true,
                                          .abstract_blocking = true } );
    const auto r = raft::mc::explore(
        quick( /*store_buffer=*/1 ),
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, { 10 } );
        },
        { [ & ]() { raft::mc::check( ring.push( 20 ), "push aborted" ); },
          [ & ]() { (void) ring.try_resize( 4 ); } },
        holds( ring, { 10, 20 } ) );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, missing_heavy_barrier_caught_under_store_reordering )
{
    /** the asymmetric ends without the monitor's heavy barrier: an end's
     *  relaxed announcement can hide in its store buffer past the
     *  monitor's seq_cst gate store, and both enter the critical section */
    model_ring ring( raft::mc::ring_opts{ false, false,
                                          /*no_heavy_barrier=*/true } );
    const auto r = producer_vs_resize( ring, quick( /*store_buffer=*/1 ) );
    ASSERT_FALSE( r.ok() ) << r.summary();
    EXPECT_FALSE( r.violations.front().trace.empty() );
}

namespace {

/** The producer pushes 30 into a full ring wrapped at index 1 (it
 *  parks) while the consumer pops the oldest element, whose publication
 *  must wake it. */
raft::mc::result producer_parks( model_ring &ring,
                                 const raft::mc::options &opt )
{
    return raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, { 10, 20 } );
        },
        { [ & ]() { raft::mc::check( ring.push( 30 ), "push aborted" ); },
          [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::got,
                               "unexpected pop status" );
              raft::mc::check( v == 10, "popped the wrong element" );
          } },
        holds( ring, { 20, 30 } ) );
}

/** The consumer pops from an empty ring wrapped at index 1 (it parks)
 *  while the producer pushes 7, whose publication must wake it. */
raft::mc::result consumer_parks( model_ring &ring,
                                 const raft::mc::options &opt )
{
    return raft::mc::explore(
        opt,
        [ & ]
        {
            ring.reset( 2 );
            ring.raw_seed( 1U, {} );
        },
        { [ & ]() { raft::mc::check( ring.push( 7 ), "push aborted" ); },
          [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::got,
                               "unexpected pop status" );
              raft::mc::check( v == 7, "popped the wrong element" );
          } },
        holds( ring, {} ) );
}

} /** end anonymous namespace **/

/** The shipped park/notify — load seq, raise the bit, heavy barrier,
 *  re-check, wait on seq; the waker's light barrier and relaxed load of
 *  the bits — loses no wake-up: a lost one leaves the parked end waiting
 *  forever, which the checker reports as a deadlock. Exhaustive with one
 *  buffered store per thread, once per parking end. */
TEST( model_checker, park_notify_proved_producer_under_store_reordering )
{
    model_ring ring( raft::mc::ring_opts{ .static_stream = true } );
    const auto r = producer_parks( ring, quick( /*store_buffer=*/1 ) );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, park_notify_proved_consumer_under_store_reordering )
{
    model_ring ring( raft::mc::ring_opts{ .static_stream = true } );
    const auto r = consumer_parks( ring, quick( /*store_buffer=*/1 ) );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, park_notify_symmetric_fallback_proved )
{
    /** the seq_cst-fence fallback, same two races */
    model_ring ring( raft::mc::ring_opts{ .symmetric     = true,
                                          .static_stream = true } );
    const auto p = producer_parks( ring, quick( /*store_buffer=*/1 ) );
    EXPECT_TRUE( p.ok() ) << p.summary();
    EXPECT_TRUE( p.complete ) << p.summary();
    const auto c = consumer_parks( ring, quick( /*store_buffer=*/1 ) );
    EXPECT_TRUE( c.ok() ) << c.summary();
    EXPECT_TRUE( c.complete ) << c.summary();
}

TEST( model_checker, park_notify_close_write_wakes_consumer )
{
    /** EOS is a forced wake-up: close_write() bumps the consumer's
     *  sequence word whether or not its bit is up yet */
    model_ring ring( raft::mc::ring_opts{ .static_stream = true } );
    const auto r = raft::mc::explore(
        quick( /*store_buffer=*/1 ), [ & ] { ring.reset( 2 ); },
        { [ & ]() { ring.close_write(); },
          [ & ]()
          {
              int v = 0;
              raft::mc::check( ring.pop( v ) == pop_status::eos,
                               "unexpected pop status" );
          } } );
    EXPECT_TRUE( r.ok() ) << r.summary();
    EXPECT_TRUE( r.complete ) << r.summary();
}

TEST( model_checker, missing_park_barrier_caught_under_store_reordering )
{
    /** without the parker's heavy barrier the producer's tail store can
     *  hide in its buffer past the consumer's re-check while the producer
     *  reads no waiter bit: nobody bumps the sequence word */
    model_ring ring( raft::mc::ring_opts{ .no_park_barrier = true,
                                          .static_stream   = true } );
    const auto r = consumer_parks( ring, quick( /*store_buffer=*/1 ) );
    ASSERT_FALSE( r.ok() ) << r.summary();
    EXPECT_NE( r.violations.front().message.find( "deadlock" ),
               std::string::npos )
        << r.summary();
}
