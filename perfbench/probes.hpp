/**
 * probes.hpp — the benchmark's own measurement code: clocks, quantiles,
 * sampled per-kernel timings and the single-thread layer probes.
 *
 * Everything here lives outside the library. Kernels the benchmark owns
 * call a kernel_slot around their port operations; untraced runs use
 * no_trace instead, whose hooks compile to nothing, so the untraced graph
 * runs exactly the code a user's kernel would.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

std::int64_t now_ns() noexcept;

/** Cost of one now_ns() read, measured once per process. A timed interval
 *  contains about one read's cost per pair of reads bracketing it. */
double clock_read_ns();

/** q-quantile (q in [0,1], linear interpolation); 0 for an empty input. */
double quantile( std::vector<double> v, double q );
inline double median( std::vector<double> v )
{
    return quantile( std::move( v ), 0.5 );
}

/** Process CPU seconds (user + sys) and peak resident set in MiB. */
double process_cpu_s();
double peak_rss_mib();

/** Traced kernels time 1 in this many run() calls (a power of two),
 *  chosen at random so the sample does not alias with the ring's own
 *  periodic work. */
inline constexpr std::uint64_t sample_every = 16;

/** Whether element `id` is stamped at every kernel boundary: a hash, so
 *  the stamped elements do not sit at one ring position either.
 *  `every` is a power of two. */
inline bool stamped_id( const std::uint64_t id, const std::uint64_t every )
{
    return ( ( id * 0x9e3779b97f4a7c15ull ) >> 40 & ( every - 1 ) ) == 0;
}

/** (element id, steady-clock ns) pairs: when a sampled element passed a
 *  kernel boundary. */
using stamp_log = std::vector<std::pair<std::uint64_t, std::int64_t>>;

/** Untraced kernels: every hook is empty. */
struct no_trace
{
    static constexpr bool on = false;
    void contact() noexcept {}
    std::int64_t run_begin() noexcept { return 0; }
    void run_end( std::int64_t ) noexcept {}
    template <class F> void pop( F &&f ) { f(); }
    template <class F> void push( F &&f ) { f(); }
    void stamp( std::uint64_t ) {}
    static no_trace &instance()
    {
        static no_trace t;
        return t;
    }
};

/**
 * Sampled timings of one kernel instance (one replica). The scheduler
 * never runs a kernel on two threads at once, so a slot needs no locking.
 * One run() in `every` is timed, together with every pop and push inside
 * it, so compute time is that run's duration less its port time. Each
 * interval is net of the clock reads it contains.
 */
struct kernel_slot
{
    static constexpr bool on = true;

    std::uint64_t every{ sample_every };
    std::uint64_t rng{ 0x2545f4914f6cdd1dull };
    double clock_ns{ 0 };

    std::uint64_t runs{ 0 };
    double run_ns{ 0 }, pop_ns{ 0 }, push_ns{ 0 };
    std::vector<double> gap_samples, pop_samples, push_samples;
    stamp_log stamps;
    std::int64_t first_contact{ 0 };
    std::int64_t last_end{ 0 };
    bool timing{ false };
    int reads{ 0 }; /**< clock reads inside the current timed run */

    /** First scheduler contact (a ready() poll or a run() call). */
    void contact() noexcept
    {
        if( first_contact == 0 )
        {
            first_contact = now_ns();
        }
    }

    /** Start of run(); returns the start time when this call is timed. */
    std::int64_t run_begin()
    {
        ++runs;
        timing = sampled();
        reads  = 0;
        if( !timing && last_end == 0 )
        {
            return 0;
        }
        const auto t = now_ns();
        if( first_contact == 0 )
        {
            first_contact = t;
        }
        if( last_end != 0 )
        {
            gap_samples.push_back( static_cast<double>( t - last_end ) );
            last_end = 0;
        }
        return timing ? t : 0;
    }

    void run_end( const std::int64_t t0 )
    {
        if( t0 == 0 )
        {
            return;
        }
        const auto t = now_ns();
        run_ns += net( t - t0, 1 + reads );
        last_end = t;
        timing   = false;
    }

    template <class F> void pop( F &&f ) { timed( pop_ns, pop_samples, f ); }

    template <class F> void push( F &&f )
    {
        timed( push_ns, push_samples, f );
    }

    void stamp( const std::uint64_t id )
    {
        stamps.emplace_back( id, now_ns() );
        reads += timing ? 1 : 0;
    }

private:
    double net( const std::int64_t dt, const int clock_reads ) const noexcept
    {
        const double v = static_cast<double>( dt ) - clock_reads * clock_ns;
        return v > 0 ? v : 0.0;
    }

    /** xorshift64: true on 1 in `every` calls */
    bool sampled() noexcept
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return ( rng & ( every - 1 ) ) == 0;
    }

    template <class F>
    void timed( double &sum, std::vector<double> &samples, F &f )
    {
        if( !timing )
        {
            f();
            return;
        }
        const auto t0 = now_ns();
        f();
        const auto dt = net( now_ns() - t0, 1 );
        reads += 2;
        sum += dt;
        samples.push_back( dt );
    }
};

/** Per-role view over every replica's slot, for one traced rep. */
struct kernel_summary
{
    double run_calls{ 0 };
    double gap_ns_p50{ 0 };
    double busy_frac{ 0 };
    double pop_frac{ 0 };
    double push_frac{ 0 };
    double pop_ns_p50{ 0 };
    double push_ns_p50{ 0 };
};

/** The slots of one kernel role (stage or sink); replicas each add one. */
class kernel_probe
{
public:
    /** `every`: a power of two; 1 for kernels whose run() handles a whole
     *  segment, so a rep still yields enough timed runs. */
    explicit kernel_probe( const std::uint64_t every = sample_every )
        : every_( every )
    {
    }

    kernel_slot &add_slot()
    {
        const std::lock_guard<std::mutex> lock( mu_ );
        auto &s    = slots_.emplace_back();
        s.every    = every_;
        s.clock_ns = clock_read_ns();
        s.rng += slots_.size();
        return s;
    }

    std::size_t slot_count() const
    {
        const std::lock_guard<std::mutex> lock( mu_ );
        return slots_.size();
    }

    /** Shares of the timed run() time spent computing, popping and
     *  pushing. Shares within the same timed calls, not totals scaled up
     *  from them: a clock read costs more than an uncontended pop, so
     *  scaled totals come out biased high. */
    kernel_summary summarize() const;
    std::int64_t first_contact() const;
    stamp_log stamps() const;

private:
    std::uint64_t every_;
    mutable std::mutex mu_;
    std::deque<kernel_slot> slots_;
};

/** Waits (µs) from `from` to `to` for every id stamped on both sides. */
std::vector<double> join_waits_us( const stamp_log &from,
                                   const stamp_log &to );

/** @name single-thread layer probes (ns per push+pop of one u64) */
///@{
double probe_ring_ns();
double probe_fifo_ns();
double probe_port_cached_ns();
double probe_port_named_ns();
///@}

/** monitor::tick() cost per registered stream (ns). */
double probe_monitor_tick_ns_per_stream();

/** Single-thread Aho–Corasick find() throughput over `text` (MiB/s). */
double probe_ac_mib_per_s( const std::string &text,
                           const std::string &pattern );

} /** end namespace perfbench **/
