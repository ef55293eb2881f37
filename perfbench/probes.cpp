#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include <raft.hpp>

namespace perfbench {

std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch() )
        .count();
}

double clock_read_ns()
{
    static const double cost = [] {
        constexpr int reads = 100000;
        std::vector<double> per_read;
        for( int r = 0; r < 5; ++r )
        {
            const auto t0 = now_ns();
            std::int64_t last = t0;
            for( int i = 0; i < reads; ++i )
            {
                last = now_ns();
            }
            per_read.push_back( static_cast<double>( last - t0 ) / reads );
        }
        return median( per_read );
    }();
    return cost;
}

double quantile( std::vector<double> v, const double q )
{
    if( v.empty() )
    {
        return 0.0;
    }
    std::sort( v.begin(), v.end() );
    const double pos = q * static_cast<double>( v.size() - 1 );
    const auto lo    = static_cast<std::size_t>( std::floor( pos ) );
    const auto hi    = std::min( lo + 1, v.size() - 1 );
    return v[ lo ] + ( v[ hi ] - v[ lo ] ) * ( pos - static_cast<double>( lo ) );
}

double process_cpu_s()
{
    rusage ru{};
    getrusage( RUSAGE_SELF, &ru );
    const auto tv = []( const timeval &t ) {
        return static_cast<double>( t.tv_sec ) +
               static_cast<double>( t.tv_usec ) * 1e-6;
    };
    return tv( ru.ru_utime ) + tv( ru.ru_stime );
}

double peak_rss_mib()
{
    rusage ru{};
    getrusage( RUSAGE_SELF, &ru );
    return static_cast<double>( ru.ru_maxrss ) / 1024.0; /** KiB on Linux **/
}

kernel_summary kernel_probe::summarize() const
{
    const std::lock_guard<std::mutex> lock( mu_ );
    kernel_summary s;
    double run_ns = 0, pop_ns = 0, push_ns = 0;
    std::vector<double> gaps, pops, pushes;
    for( const auto &sl : slots_ )
    {
        s.run_calls += static_cast<double>( sl.runs );
        run_ns += sl.run_ns;
        pop_ns += sl.pop_ns;
        push_ns += sl.push_ns;
        gaps.insert( gaps.end(), sl.gap_samples.begin(),
                     sl.gap_samples.end() );
        pops.insert( pops.end(), sl.pop_samples.begin(),
                     sl.pop_samples.end() );
        pushes.insert( pushes.end(), sl.push_samples.begin(),
                       sl.push_samples.end() );
    }
    if( run_ns > 0 )
    {
        s.pop_frac  = pop_ns / run_ns;
        s.push_frac = push_ns / run_ns;
        s.busy_frac = std::max( 0.0, 1.0 - s.pop_frac - s.push_frac );
    }
    s.gap_ns_p50  = median( std::move( gaps ) );
    s.pop_ns_p50  = median( std::move( pops ) );
    s.push_ns_p50 = median( std::move( pushes ) );
    return s;
}

std::int64_t kernel_probe::first_contact() const
{
    const std::lock_guard<std::mutex> lock( mu_ );
    std::int64_t first = 0;
    for( const auto &sl : slots_ )
    {
        if( sl.first_contact != 0 &&
            ( first == 0 || sl.first_contact < first ) )
        {
            first = sl.first_contact;
        }
    }
    return first;
}

stamp_log kernel_probe::stamps() const
{
    const std::lock_guard<std::mutex> lock( mu_ );
    stamp_log all;
    for( const auto &sl : slots_ )
    {
        all.insert( all.end(), sl.stamps.begin(), sl.stamps.end() );
    }
    return all;
}

std::vector<double> join_waits_us( const stamp_log &from,
                                   const stamp_log &to )
{
    std::unordered_map<std::uint64_t, std::int64_t> at;
    at.reserve( from.size() );
    for( const auto &[ id, t ] : from )
    {
        at.emplace( id, t );
    }
    std::vector<double> waits;
    waits.reserve( to.size() );
    for( const auto &[ id, t ] : to )
    {
        const auto it = at.find( id );
        if( it != at.end() )
        {
            waits.push_back( static_cast<double>( t - it->second ) / 1e3 );
        }
    }
    return waits;
}

namespace {

using u64 = std::uint64_t;

constexpr u64 ladder_ops = 1u << 21;
constexpr int ladder_reps = 5;

/** Median over reps of ns per push+pop through `step`. */
template <class Step> double ladder( Step &&step )
{
    std::vector<double> per_op;
    u64 sink = 0;
    for( int r = 0; r < ladder_reps; ++r )
    {
        const auto t0 = now_ns();
        for( u64 i = 0; i < ladder_ops; ++i )
        {
            sink += step( i );
        }
        per_op.push_back( static_cast<double>( now_ns() - t0 ) /
                          static_cast<double>( ladder_ops ) );
    }
    /** a checksum the optimizer cannot drop **/
    if( sink != ladder_reps * ( ladder_ops * ( ladder_ops - 1 ) / 2 ) )
    {
        throw std::runtime_error( "layer probe lost elements" );
    }
    return median( per_op );
}

/** A kernel with one u64 port per side, bound straight to a ring. */
struct probe_kernel : raft::kernel
{
    probe_kernel()
    {
        input.addPort<u64>( "0" );
        output.addPort<u64>( "0" );
    }
    raft::kstatus run() override { return raft::stop; }
};

} /** end anonymous namespace **/

double probe_ring_ns()
{
    raft::ring_buffer<u64> q( 256 );
    return ladder( [ &q ]( const u64 i ) {
        u64 v = 0;
        q.push( i );
        q.pop( v );
        return v;
    } );
}

double probe_fifo_ns()
{
    raft::ring_buffer<u64> ring( 256 );
    raft::fifo<u64> &q = ring;
    return ladder( [ &q ]( const u64 i ) {
        u64 v = 0;
        q.push( i );
        q.pop( v );
        return v;
    } );
}

double probe_port_cached_ns()
{
    raft::ring_buffer<u64> ring( 256 );
    probe_kernel k;
    raft::port &out = k.output[ "0" ];
    raft::port &in  = k.input[ "0" ];
    out.bind( &ring );
    in.bind( &ring );
    return ladder( [ &in, &out ]( const u64 i ) {
        u64 v = 0;
        out.push<u64>( i );
        in.pop<u64>( v );
        return v;
    } );
}

double probe_port_named_ns()
{
    raft::ring_buffer<u64> ring( 256 );
    probe_kernel k;
    k.output[ "0" ].bind( &ring );
    k.input[ "0" ].bind( &ring );
    return ladder( [ &k ]( const u64 i ) {
        u64 v = 0;
        k.output[ "0" ].push<u64>( i );
        k.input[ "0" ].pop<u64>( v );
        return v;
    } );
}

double probe_monitor_tick_ns_per_stream()
{
    constexpr std::size_t streams = 64;
    constexpr int ticks           = 20000;
    raft::run_options opts;
    std::vector<std::unique_ptr<raft::ring_buffer<u64>>> rings;
    raft::monitor mon( opts );
    for( std::size_t i = 0; i < streams; ++i )
    {
        rings.push_back( std::make_unique<raft::ring_buffer<u64>>( 64 ) );
        for( u64 j = 0; j < i % 64; ++j )
        {
            rings.back()->push( j );
        }
        mon.register_stream( rings.back().get(),
                             raft::monitor::stream_info{
                                 "src", "dst", "0", "0", "u64" } );
    }
    std::vector<double> per_stream;
    for( int r = 0; r < ladder_reps; ++r )
    {
        const auto t0 = now_ns();
        for( int t = 0; t < ticks; ++t )
        {
            mon.tick();
        }
        per_stream.push_back( static_cast<double>( now_ns() - t0 ) /
                              ( static_cast<double>( ticks ) * streams ) );
    }
    return median( per_stream );
}

double probe_ac_mib_per_s( const std::string &text,
                           const std::string &pattern )
{
    const auto m = raft::algo::make_matcher<raft::ahocorasick>( pattern );
    std::vector<double> rates;
    for( int r = 0; r < 3; ++r )
    {
        std::uint64_t hits = 0;
        const auto t0      = now_ns();
        m->find( text.data(), text.size(),
                 [ &hits ]( std::size_t, std::uint32_t ) { ++hits; } );
        const auto s = static_cast<double>( now_ns() - t0 ) / 1e9;
        if( hits == 0 )
        {
            throw std::runtime_error( "AC probe found no matches" );
        }
        rates.push_back( static_cast<double>( text.size() ) /
                         ( 1024.0 * 1024.0 ) / s );
    }
    return median( rates );
}

} /** end namespace perfbench **/
