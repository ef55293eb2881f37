/**
 * Blocking ends that spin for a batch, then park (ring_buffer,
 * "Blocking: spin for a batch, then park"): a bursty SPSC stress whose
 * idle gaps outlast the spin phase, the forced wake-ups (abort,
 * close_write, close_read) of a parked end, a woken writer's cleared
 * stall stamp, an idle monitor that grows a ring for a parked writer or
 * for a reader's overflow demand with nothing but its doorbell to wake
 * it, the park census, and the ends that a batch never comes for: one
 * freed slot, a lone element, a short batch before the close.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include <core/monitor.hpp>
#include <core/ringbuffer.hpp>
#include <runtime/stats.hpp>

using namespace std::chrono_literals;
using raft::ring_buffer;

namespace {

/** Long enough past the spin phase (64 pauses) that the end has parked. */
constexpr auto park_settle = 20ms;

/** Run `body` on a thread and wait for it up to `bound`; on a timeout
 *  abort `q` so the thread can be joined, and report false. */
template <class Body>
bool finishes_within( ring_buffer<std::uint64_t> &q,
                      const std::chrono::milliseconds bound, Body body )
{
    auto done = std::async( std::launch::async, body );
    if( done.wait_for( bound ) == std::future_status::ready )
    {
        done.get();
        return true;
    }
    q.abort();
    done.wait();
    return false;
}

/** True when the parked end running as `blocked` returns within 100 ms
 *  of `t0`; otherwise `unblock()` (another forced wake-up) lets the test
 *  join it instead of hanging. */
template <class Unblock>
bool woke_within( std::future<void> &blocked,
                  const std::chrono::steady_clock::time_point t0,
                  Unblock unblock )
{
    const auto ok = blocked.wait_until( t0 + 100ms ) ==
                    std::future_status::ready;
    if( !ok )
    {
        unblock();
    }
    blocked.get();
    return ok;
}

/** Wait until the end has noted its stall, then until it has parked. */
template <class Since> void until_parked( Since blocked_since )
{
    while( blocked_since() == 0 )
    {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for( park_settle );
}

} /** end anonymous namespace **/

TEST( ringbuffer_park, bursty_spsc_delivers_in_order )
{
    /** bursts of up to 16 elements through a 4-slot ring, separated by
     *  random sleeps that outlast the spin phase: both ends park and are
     *  woken over and over, through every blocking entry point **/
    constexpr std::uint64_t n = 4000;
    ring_buffer<std::uint64_t> q( 4 );
    std::uint64_t received = 0;
    bool in_order          = true;
    const bool finished = finishes_within( q, 5s, [ & ]() {
        std::thread producer( [ & ]() {
            std::mt19937 rng( 7 );
            try
            {
                for( std::uint64_t i = 0; i < n; ++i )
                {
                    if( i % 3 == 1 )
                    {
                        *q.claim_tail() = i;
                        q.publish_tail( raft::none );
                    }
                    else
                    {
                        q.push( i );
                    }
                    if( rng() % 16 == 0 )
                    {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds( rng() % 300 ) );
                    }
                }
                q.close_write();
            }
            catch( const raft::stream_aborted_exception & )
            {
            }
        } );
        std::mt19937 rng( 11 );
        try
        {
            for( ;; )
            {
                std::uint64_t v = 0;
                if( received % 3 == 2 )
                {
                    raft::signal sig = raft::none;
                    v                = q.claim_head( sig );
                    q.consume_head();
                }
                else
                {
                    q.pop( v );
                }
                in_order = in_order && v == received;
                ++received;
                if( rng() % 16 == 0 )
                {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds( rng() % 300 ) );
                }
            }
        }
        catch( const raft::closed_port_exception & )
        {
        }
        catch( const raft::stream_aborted_exception & )
        {
        }
        producer.join();
    } );
    EXPECT_TRUE( finished ) << "lost wake-up: " << received << " of " << n
                            << " delivered after 5 s";
    EXPECT_TRUE( in_order );
    EXPECT_EQ( received, n );
}

TEST( ringbuffer_park, abort_wakes_parked_pop_and_push )
{
    ring_buffer<int> empty( 2 );
    ring_buffer<int> full( 2 );
    full.push( 1 );
    full.push( 2 );
    auto reader = std::async( std::launch::async, [ & ]() {
        int v = 0;
        EXPECT_THROW( empty.pop( v ), raft::stream_aborted_exception );
    } );
    auto writer = std::async( std::launch::async, [ & ]() {
        EXPECT_THROW( full.push( 3 ), raft::stream_aborted_exception );
    } );
    until_parked( [ & ]() { return empty.read_blocked_since(); } );
    until_parked( [ & ]() { return full.write_blocked_since(); } );
    const auto t0 = std::chrono::steady_clock::now();
    empty.abort();
    full.abort();
    EXPECT_TRUE(
        woke_within( reader, t0, [ & ]() { empty.close_write(); } ) );
    EXPECT_TRUE( woke_within( writer, t0, [ & ]() { full.close_read(); } ) );
}

TEST( ringbuffer_park, close_write_wakes_parked_pop )
{
    ring_buffer<int> q( 2 );
    auto reader = std::async( std::launch::async, [ & ]() {
        int v = 0;
        EXPECT_THROW( q.pop( v ), raft::closed_port_exception );
    } );
    until_parked( [ & ]() { return q.read_blocked_since(); } );
    const auto t0 = std::chrono::steady_clock::now();
    q.close_write();
    EXPECT_TRUE( woke_within( reader, t0, [ & ]() { q.abort(); } ) );
}

TEST( ringbuffer_park, close_read_wakes_parked_push )
{
    ring_buffer<int> q( 2 );
    q.push( 1 );
    q.push( 2 );
    auto writer = std::async( std::launch::async, [ & ]() {
        EXPECT_THROW( q.push( 3 ), raft::closed_port_exception );
    } );
    until_parked( [ & ]() { return q.write_blocked_since(); } );
    const auto t0 = std::chrono::steady_clock::now();
    q.close_read();
    EXPECT_TRUE( woke_within( writer, t0, [ & ]() { q.abort(); } ) );
}

TEST( ringbuffer_park, close_read_clears_writer_stall_stamp )
{
    /** a writer that parked and was then woken by close_read() throws;
     *  its stall stamp must go with it, or the monitor keeps ticking at δ
     *  cadence for a stream nobody writes to any more **/
    raft::run_options opts;
    opts.dynamic_resize = true;
    raft::monitor mon( opts );
    ring_buffer<int> q( 2 );
    mon.register_stream( &q, raft::monitor::stream_info{
                                 "a", "b", "0", "0", "int" } );
    q.push( 1 );
    q.push( 2 );
    auto writer = std::async( std::launch::async, [ & ]() {
        EXPECT_THROW( q.push( 3 ), raft::closed_port_exception );
    } );
    until_parked( [ & ]() { return q.write_blocked_since(); } );
    const auto t0 = std::chrono::steady_clock::now();
    q.close_read();
    ASSERT_TRUE( woke_within( writer, t0, [ & ]() { q.abort(); } ) );
    EXPECT_EQ( q.write_blocked_since(), 0 );
    EXPECT_FALSE( mon.tick() );
}

TEST( ringbuffer_park, idle_monitor_grows_ring_for_parked_writer )
{
    /** the monitor sleeps on its doorbell while nothing is blocked (no
     *  sample reader: only the 100 ms backstop besides); the writer's
     *  stall rings it, the 3δ rule grows the ring, and the completed
     *  resize wakes the parked writer **/
    raft::run_options opts;
    opts.dynamic_resize = true;
    raft::monitor mon( opts );
    ring_buffer<std::uint64_t> q( 2 );
    mon.register_stream( &q, raft::monitor::stream_info{
                                 "a", "b", "0", "0", "u64" } );
    q.push( 1 );
    q.push( 2 );
    mon.start();
    std::this_thread::sleep_for( 5ms ); /** monitor goes idle **/
    const bool finished = finishes_within( q, 50ms, [ & ]() {
        try
        {
            q.push( 3 );
        }
        catch( const raft::stream_aborted_exception & )
        {
        }
    } );
    mon.stop();
    EXPECT_TRUE( finished ) << "writer still blocked after 50 ms";
    EXPECT_GE( q.resize_count(), 1u );
    EXPECT_EQ( q.size(), 3u );
}

TEST( ringbuffer_park, idle_monitor_honours_overflow_demand )
{
    /** the read rule through the doorbell alone: an idle monitor with no
     *  sample reader, a reader's peek_range(8) on a 4-slot ring, and a
     *  writer that never blocks (it pushes only once the ring has grown),
     *  so the reader's request is the only ring. 50 ms is well below the
     *  100 ms backstop, so a lost ring fails here **/
    raft::run_options opts;
    opts.dynamic_resize = true;
    raft::monitor mon( opts );
    ring_buffer<std::uint64_t> q( 4 );
    mon.register_stream( &q, raft::monitor::stream_info{
                                 "a", "b", "0", "0", "u64" } );
    for( std::uint64_t i = 0; i < 4; ++i )
    {
        q.push( i );
    }
    mon.start();
    std::this_thread::sleep_for( 5ms ); /** monitor goes idle **/
    std::uint64_t last  = 0;
    const bool finished = finishes_within( q, 50ms, [ & ]() {
        std::thread reader( [ & ]() {
            try
            {
                auto w = q.peek_range( 8 );
                last   = w[ 7 ];
            }
            catch( const raft::stream_aborted_exception & )
            {
            }
        } );
        while( q.capacity() < 8 && !q.aborted() )
        {
            std::this_thread::yield();
        }
        try
        {
            for( std::uint64_t i = 4; i < 8; ++i )
            {
                q.push( i );
            }
        }
        catch( const raft::stream_aborted_exception & )
        {
        }
        reader.join();
    } );
    const auto grown = q.capacity(); /** before stop()'s final tick **/
    mon.stop();
    EXPECT_TRUE( finished ) << "reader still waiting after 50 ms";
    EXPECT_GE( grown, 8u );
    EXPECT_EQ( last, 7u );
}

TEST( ringbuffer_park, census_counts_consumer_parks )
{
    /** n pushes 2 ms apart, far longer than the spin phase: the reader
     *  parks before most of them. Each pop enters at most one wait (a
     *  publication wakes it with the element there), and every wait
     *  follows a barrier. The monitor's report carries the same counts **/
    constexpr std::uint64_t n = 10;
    ring_buffer<std::uint64_t> q( 64 );
    raft::run_options opts;
    opts.dynamic_resize = false;
    raft::monitor mon( opts );
    mon.register_stream( &q, raft::monitor::stream_info{
                                 "a", "b", "0", "0", "u64" } );
    std::uint64_t got   = 0;
    const bool finished = finishes_within( q, 5s, [ & ]() {
        std::thread writer( [ & ]() {
            try
            {
                for( std::uint64_t i = 0; i < n; ++i )
                {
                    std::this_thread::sleep_for( 2ms );
                    q.push( i );
                }
            }
            catch( const raft::stream_aborted_exception & )
            {
            }
        } );
        try
        {
            for( std::uint64_t i = 0; i < n; ++i )
            {
                std::uint64_t v = 0;
                q.pop( v );
                got += v == i ? 1 : 0;
            }
        }
        catch( const raft::stream_aborted_exception & )
        {
        }
        writer.join();
    } );
    ASSERT_TRUE( finished ) << "reader still waiting after 5 s";
    EXPECT_EQ( got, n );
    const auto parks = q.read_parks();
    EXPECT_GE( parks.waits, 1u );
    EXPECT_LE( parks.waits, n );
    EXPECT_LE( parks.waits, parks.barriers );
    EXPECT_EQ( q.write_parks().waits, 0u ); /** 64 slots: never full **/

    raft::runtime::perf_snapshot snap;
    mon.collect( snap, 0.0 );
    ASSERT_EQ( snap.streams.size(), 1u );
    const auto &s = snap.streams.front();
    EXPECT_EQ( s.read_park_waits, parks.waits );
    EXPECT_EQ( s.read_park_barriers, parks.barriers );
    EXPECT_EQ( s.write_park_waits, 0u );
    EXPECT_NE( snap.to_json().find( "\"read_park_waits\": " +
                                    std::to_string( parks.waits ) ),
               std::string::npos );
}

TEST( ringbuffer_slip, one_freed_slot_releases_a_blocked_writer )
{
    /** the reader frees one slot of a full ring, then waits on a second
     *  ring that the writer fills only after its push into the first
     *  returns: a writer that kept waiting for a batch of free slots
     *  would never get there **/
    ring_buffer<std::uint64_t> first( 64 );
    ring_buffer<std::uint64_t> second( 64 );
    for( std::uint64_t i = 0; i < first.capacity(); ++i )
    {
        first.push( i );
    }
    std::uint64_t got   = 0;
    const bool finished = finishes_within( first, 5s, [ & ]() {
        std::thread writer( [ & ]() {
            try
            {
                first.push( 64 );
                second.push( 7 );
            }
            catch( const raft::stream_aborted_exception & )
            {
                second.abort();
            }
        } );
        while( first.write_blocked_since() == 0 )
        {
            std::this_thread::yield();
        }
        try
        {
            std::uint64_t v = 0;
            first.pop( v );
            second.pop( got );
        }
        catch( const raft::stream_aborted_exception & )
        {
        }
        writer.join();
    } );
    EXPECT_TRUE( finished ) << "writer still waiting after 5 s";
    EXPECT_EQ( got, 7u );
    EXPECT_EQ( first.size(), first.capacity() );
}

TEST( ringbuffer_slip, lone_element_reaches_a_blocked_reader )
{
    /** one element, pushed while the reader spins and again once it has
     *  parked: either way the reader takes it without a second one **/
    for( const auto settle : { 0ms, park_settle } )
    {
        ring_buffer<std::uint64_t> q( 64 );
        std::uint64_t got   = 0;
        const bool finished = finishes_within( q, 5s, [ & ]() {
            std::thread writer( [ & ]() {
                while( q.read_blocked_since() == 0 )
                {
                    std::this_thread::yield();
                }
                std::this_thread::sleep_for( settle );
                q.push( 42 );
            } );
            try
            {
                q.pop( got );
            }
            catch( const raft::stream_aborted_exception & )
            {
            }
            writer.join();
        } );
        EXPECT_TRUE( finished ) << "reader still waiting after 5 s";
        EXPECT_EQ( got, 42u );
    }
}

TEST( ringbuffer_slip, reader_drains_a_short_batch_then_sees_the_close )
{
    /** the writer closes with 3 elements queued, fewer than the 16 a
     *  spinning reader of a 64-slot ring waits for: the reader takes all
     *  3 in order, then gets the close **/
    ring_buffer<std::uint64_t> q( 64 );
    std::vector<std::uint64_t> got;
    bool closed         = false;
    const bool finished = finishes_within( q, 5s, [ & ]() {
        std::thread writer( [ & ]() {
            while( q.read_blocked_since() == 0 )
            {
                std::this_thread::yield();
            }
            for( std::uint64_t i = 0; i < 3; ++i )
            {
                q.push( i );
            }
            q.close_write();
        } );
        try
        {
            for( ;; )
            {
                std::uint64_t v = 0;
                q.pop( v );
                got.push_back( v );
            }
        }
        catch( const raft::closed_port_exception & )
        {
            closed = true;
        }
        catch( const raft::stream_aborted_exception & )
        {
        }
        writer.join();
    } );
    EXPECT_TRUE( finished ) << "reader still waiting after 5 s";
    EXPECT_TRUE( closed );
    EXPECT_EQ( got, ( std::vector<std::uint64_t>{ 0, 1, 2 } ) );
}
