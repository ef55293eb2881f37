/**
 * A/B: batched against scalar stream transfers (E13, E8), and the cost of
 * two stream operations that the design leans on.
 *
 *   - ring_one_thread, ring_two_threads, port: 64 scalar push() and pop()
 *     calls against one 64-element write window and read window, on a raw
 *     ring in one thread, across a producer and a consumer thread, and
 *     through a kernel's named ports (allocate_range / bulk pop_s);
 *   - pop_vs_pop_s: raw pop() against the Figure 2 RAII accessor pop_s(),
 *     one element at a time (the accessor should cost nothing);
 *   - resize: filling a 16,384-element ring against filling it and then
 *     resizing it (b_minus_a is one resize; the monitor reacts on a δ of
 *     microseconds, so a resize must cost about that).
 *
 * Prints one JSON object (bench/ab.hpp); checked in as BENCH_fifo_bulk.json.
 * `--quick` is accepted: the A/B is the binary's only mode.
 */
#include <algorithm>
#include <cstdint>
#include <thread>

#include <core/kernel.hpp>
#include <core/ringbuffer.hpp>

#include "ab.hpp"

namespace {

using u64 = std::uint64_t;

constexpr std::size_t batch = 64;

/** Each arm stores its checksum here, so the transfers cannot be elided. */
volatile u64 sink;

template <bool batched> void ring_one_thread( const std::size_t items )
{
    raft::ring_buffer<u64> q( 256 );
    q.set_auto_resize( false );
    u64 i   = 0;
    u64 sum = 0;
    while( i < items )
    {
        if constexpr( batched )
        {
            {
                auto w = q.write_window( batch );
                for( std::size_t j = 0; j < w.size(); ++j )
                {
                    w[ j ] = i++;
                }
            }
            auto r = q.read_window( batch );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
        else
        {
            for( std::size_t j = 0; j < batch; ++j )
            {
                q.push( i++ );
            }
            for( std::size_t j = 0; j < batch; ++j )
            {
                u64 v = 0;
                q.pop( v );
                sum += v;
            }
        }
    }
    sink = sum;
}

template <bool batched> void ring_two_threads( const std::size_t items )
{
    raft::ring_buffer<u64> q( 1024 );
    q.set_auto_resize( false );
    std::thread producer( [ & ]() {
        u64 i = 0;
        while( i < items )
        {
            if constexpr( batched )
            {
                auto w = q.write_window(
                    std::min<std::size_t>( batch, items - i ) );
                for( std::size_t j = 0; j < w.size(); ++j )
                {
                    w[ j ] = i++;
                }
            }
            else
            {
                q.push( i++ );
            }
        }
        q.close_write();
    } );
    u64 sum = 0;
    try
    {
        for( ;; )
        {
            if constexpr( batched )
            {
                auto r = q.read_window( batch );
                for( std::size_t j = 0; j < r.size(); ++j )
                {
                    sum += r[ j ];
                }
            }
            else
            {
                u64 v = 0;
                q.pop( v );
                sum += v;
            }
        }
    }
    catch( const raft::closed_port_exception & )
    {
    }
    producer.join();
    sink = sum;
}

/** A kernel whose output port feeds its own input port through one ring. */
class loopback : public raft::kernel
{
public:
    loopback()
    {
        input.addPort<u64>( "0" );
        output.addPort<u64>( "0" );
        q_.set_auto_resize( false );
        input[ "0" ].bind( &q_ );
        output[ "0" ].bind( &q_ );
    }
    raft::kstatus run() override { return raft::stop; }

private:
    raft::ring_buffer<u64> q_{ 256 };
};

template <bool batched> void port( const std::size_t items )
{
    loopback k;
    u64 i   = 0;
    u64 sum = 0;
    while( i < items )
    {
        if constexpr( batched )
        {
            {
                auto w = k.output[ "0" ].allocate_range<u64>( batch );
                for( std::size_t j = 0; j < w.size(); ++j )
                {
                    w[ j ] = i++;
                }
            }
            auto r = k.input[ "0" ].pop_s<u64>( batch );
            for( std::size_t j = 0; j < r.size(); ++j )
            {
                sum += r[ j ];
            }
        }
        else
        {
            for( std::size_t j = 0; j < batch; ++j )
            {
                k.output[ "0" ].push<u64>( i++ );
            }
            for( std::size_t j = 0; j < batch; ++j )
            {
                sum += k.input[ "0" ].pop<u64>();
            }
        }
    }
    sink = sum;
}

template <bool raii> void pop_one( const std::size_t items )
{
    raft::ring_buffer<u64> q( 256 );
    u64 sum = 0;
    for( u64 i = 0; i < items; ++i )
    {
        q.push( i );
        if constexpr( raii )
        {
            auto a = q.pop_s();
            sum += *a;
        }
        else
        {
            u64 v = 0;
            q.pop( v );
            sum += v;
        }
    }
    sink = sum;
}

constexpr std::size_t resize_occupancy = 16384;

template <bool then_resize> void fill( const std::size_t rings )
{
    for( std::size_t r = 0; r < rings; ++r )
    {
        raft::ring_buffer<u64> q( 2 * resize_occupancy );
        for( std::size_t i = 0; i < resize_occupancy; ++i )
        {
            q.push( i );
        }
        if constexpr( then_resize )
        {
            sink = q.resize( 4 * resize_occupancy ) ? 1 : 0;
        }
    }
}

} /** end anonymous namespace **/

int main()
{
    constexpr std::size_t st = std::size_t{ 1 } << 22;
    constexpr std::size_t mt = std::size_t{ 1 } << 20;
    constexpr std::size_t pt = std::size_t{ 1 } << 21;
    constexpr std::size_t rings = 64;

    bench::doc d( "fifo_bulk" );
    d.row( "ring_one_thread",
           "one u64 through a 256-slot ring in one thread, 4,194,304 "
           "per call",
           st, "scalar", [] { ring_one_thread<false>( st ); }, "batch64",
           [] { ring_one_thread<true>( st ); } );
    d.row( "ring_two_threads",
           "one u64 from a producer thread to the consumer through a "
           "1,024-slot ring, 1,048,576 per call, thread start included",
           mt, "scalar", [] { ring_two_threads<false>( mt ); }, "batch64",
           [] { ring_two_threads<true>( mt ); } );
    d.row( "port",
           "one u64 out of and back into a kernel's named ports over a "
           "256-slot ring, 2,097,152 per call",
           pt, "scalar", [] { port<false>( pt ); }, "batch64",
           [] { port<true>( pt ); } );
    d.row( "pop_vs_pop_s",
           "one push and one pop of a u64 on a 256-slot ring, 2,097,152 "
           "per call",
           pt, "pop", [] { pop_one<false>( pt ); }, "pop_s",
           [] { pop_one<true>( pt ); } );
    d.row( "resize",
           "one 32,768-slot ring built and filled with 16,384 u64, then "
           "(arm b) resized to 65,536 slots; 64 rings per call",
           rings, "fill", [] { fill<false>( rings ); }, "fill_resize",
           [] { fill<true>( rings ); } );
    d.print();
    return 0;
}
