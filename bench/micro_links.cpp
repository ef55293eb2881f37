/**
 * Link allocation types (§4.2: "Before a link allocation type is selected
 * (POSIX shared memory, heap allocated memory or TCP link)"): throughput
 * of the same typed stream over each transport, plus the compressed TCP
 * variant (§4.2 future work), for small and cache-line-sized elements.
 * The TCP rows run the shipped tcp_sink/tcp_source kernels in two maps.
 */
#include <benchmark/benchmark.h>

#include <thread>

#include <core/ringbuffer.hpp>
#include <net/shm.hpp>
#include <net/socket.hpp>
#include <net/tcp_kernels.hpp>
#include <raft.hpp>
#include <unistd.h>

namespace {

struct big_pod
{
    std::uint64_t v[ 8 ]; /** one cache line **/
};

template <class T> T make_value( std::uint64_t i );
template <> std::uint64_t make_value<std::uint64_t>( std::uint64_t i )
{
    return i;
}
template <> big_pod make_value<big_pod>( std::uint64_t i )
{
    big_pod p{};
    p.v[ 0 ] = i;
    return p;
}

template <class T> void bm_heap_link( benchmark::State &state )
{
    constexpr std::uint64_t items = 50'000;
    for( auto _ : state )
    {
        raft::ring_buffer<T> q( 1024 );
        std::thread producer( [ & ]() {
            for( std::uint64_t i = 0; i < items; ++i )
            {
                q.push( make_value<T>( i ) );
            }
            q.close_write();
        } );
        std::uint64_t n = 0;
        try
        {
            for( ;; )
            {
                T v{};
                q.pop( v );
                ++n;
            }
        }
        catch( const raft::closed_port_exception & )
        {
        }
        producer.join();
        benchmark::DoNotOptimize( n );
    }
    state.SetBytesProcessed( state.iterations() *
                             static_cast<std::int64_t>( items ) *
                             static_cast<std::int64_t>( sizeof( T ) ) );
}

template <class T> void bm_shm_link( benchmark::State &state )
{
    constexpr std::uint64_t items = 50'000;
    int round = 0;
    for( auto _ : state )
    {
        const auto name = "/raft_bench_" + std::to_string( getpid() ) +
                          "_" + std::to_string( round++ );
        raft::net::shm_ring<T> writer(
            name, 1024, raft::net::shm_ring<T>::role::create );
        raft::net::shm_ring<T> reader(
            name, 1024, raft::net::shm_ring<T>::role::attach );
        std::thread producer( [ & ]() {
            for( std::uint64_t i = 0; i < items; ++i )
            {
                writer.push( make_value<T>( i ) );
            }
            writer.close_write();
        } );
        std::uint64_t n = 0;
        try
        {
            for( ;; )
            {
                T v{};
                reader.pop( v );
                ++n;
            }
        }
        catch( const raft::closed_port_exception & )
        {
        }
        producer.join();
        benchmark::DoNotOptimize( n );
    }
    state.SetBytesProcessed( state.iterations() *
                             static_cast<std::int64_t>( items ) *
                             static_cast<std::int64_t>( sizeof( T ) ) );
}

/** Terminal kernel: counts what arrives, one read window per run(). */
class count_sink : public raft::kernel
{
public:
    explicit count_sink( std::uint64_t &n )
        : in_( input.addPort<std::uint64_t>( "0" ) ), n_( n )
    {
    }

    raft::kstatus run() override
    {
        n_ += in_.pop_s<std::uint64_t>( 64 ).size();
        return raft::proceed;
    }

private:
    raft::port &in_;
    std::uint64_t &n_;
};

/** generate → tcp_sink in one map, tcp_source → count_sink in another:
 *  the kernels that ship, over a real loopback socket. */
template <bool compressed> void bm_tcp_link( benchmark::State &state )
{
    using u64                     = std::uint64_t;
    constexpr std::uint64_t items = 20'000;
    for( auto _ : state )
    {
        raft::net::tcp_listener listener( 0 );
        std::uint64_t n = 0;
        std::thread consumer( [ & ]() {
            auto conn = listener.accept();
            raft::map m;
            m.link( raft::kernel::make<raft::net::tcp_source<u64>>(
                        std::move( conn ) ),
                    raft::kernel::make<count_sink>( n ) );
            m.exe();
        } );
        {
            auto conn = raft::net::tcp_connection::connect(
                "127.0.0.1", listener.port() );
            raft::map m;
            m.link( raft::kernel::make<raft::generate<u64>>(
                        items, []( std::size_t i ) { return u64( i ); } ),
                    raft::kernel::make<raft::net::tcp_sink<u64>>(
                        std::move( conn ), compressed ) );
            m.exe();
        }
        consumer.join();
        benchmark::DoNotOptimize( n );
        if( n != items )
        {
            state.SkipWithError( "TCP link lost elements" );
            break;
        }
    }
    state.SetBytesProcessed( state.iterations() *
                             static_cast<std::int64_t>( items ) *
                             static_cast<std::int64_t>(
                                 sizeof( std::uint64_t ) ) );
}

void bm_heap_u64( benchmark::State &s ) { bm_heap_link<std::uint64_t>( s ); }
void bm_heap_cacheline( benchmark::State &s ) { bm_heap_link<big_pod>( s ); }
void bm_shm_u64( benchmark::State &s ) { bm_shm_link<std::uint64_t>( s ); }
void bm_shm_cacheline( benchmark::State &s ) { bm_shm_link<big_pod>( s ); }
void bm_tcp_u64( benchmark::State &s ) { bm_tcp_link<false>( s ); }
void bm_tcp_u64_compressed( benchmark::State &s )
{
    bm_tcp_link<true>( s );
}

/** wall clock throughout: the producer (heap, shm) and the maps (TCP)
 *  run on threads other than the caller's, whose CPU time would leave
 *  them out **/
BENCHMARK( bm_heap_u64 )->Unit( benchmark::kMillisecond )->UseRealTime();
BENCHMARK( bm_heap_cacheline )
    ->Unit( benchmark::kMillisecond )
    ->UseRealTime();
BENCHMARK( bm_shm_u64 )->Unit( benchmark::kMillisecond )->UseRealTime();
BENCHMARK( bm_shm_cacheline )
    ->Unit( benchmark::kMillisecond )
    ->UseRealTime();
BENCHMARK( bm_tcp_u64 )->Unit( benchmark::kMillisecond )->UseRealTime();
BENCHMARK( bm_tcp_u64_compressed )
    ->Unit( benchmark::kMillisecond )
    ->UseRealTime();

} /** end anonymous namespace **/
