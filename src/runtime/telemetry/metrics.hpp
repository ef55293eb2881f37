/**
 * metrics.hpp - live metrics registry (runtime/telemetry/).
 *
 * Counters, gauges and fixed-bucket histograms with wait-free hot-path
 * updates (a single relaxed RMW on x86 — no CAS loops: histograms store
 * integer observations and scale only at export time).  Handles returned
 * by the registry are stable for the lifetime of their owner scope, so
 * instrumented code holds plain pointers and never re-locks.
 *
 * Two ownership classes:
 *   - process-global metrics (owner 0): monotonic across runs, e.g.
 *     raft_net_bytes_sent_total — the Prometheus-correct shape for
 *     counters that a scraper rates over time;
 *   - session-scoped metrics: registered by a telemetry::session (or the
 *     elastic controller) under an owner token and removed when that
 *     owner is released, so per-kernel / per-stream series don't leak
 *     across independent map::exe() runs.
 *
 * `registry::render_prometheus()` emits text exposition format 0.0.4;
 * the HTTP endpoint around it lives in exporters.hpp.
 **/
#ifndef RAFT_RUNTIME_TELEMETRY_METRICS_HPP
#define RAFT_RUNTIME_TELEMETRY_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace raft
{
namespace telemetry
{

namespace detail
{
/** master switch for metric updates outside session-registered
 *  callbacks — every disabled site is exactly this relaxed load **/
inline std::atomic<bool> metrics_active{ false };
} /** end namespace detail **/

/** true while at least one telemetry session has metrics enabled **/
inline bool metrics_on() noexcept
{
    return detail::metrics_active.load( std::memory_order_relaxed );
}

/** refcounted enable/disable (sessions compose like trace_enable) **/
void metrics_enable();
void metrics_disable();

/** monotonic counter — wait-free add **/
class counter
{
public:
    void add( const std::uint64_t n = 1 ) noexcept
    {
        v_.fetch_add( n, std::memory_order_relaxed );
    }

    std::uint64_t value() const noexcept
    {
        return v_.load( std::memory_order_relaxed );
    }

private:
    std::atomic<std::uint64_t> v_{ 0 };
};

/** last-write-wins gauge **/
class gauge
{
public:
    void set( const double v ) noexcept
    {
        v_.store( v, std::memory_order_relaxed );
    }

    double value() const noexcept
    {
        return v_.load( std::memory_order_relaxed );
    }

private:
    std::atomic<double> v_{ 0.0 };
};

/** fixed-bucket histogram over integer observations (e.g. nanoseconds,
 *  bytes).  observe() is wait-free: a short bounds scan plus two relaxed
 *  fetch_adds.  A per-histogram `scale` converts raw units to the
 *  exported unit (1e-9 turns ns into Prometheus seconds) so the hot path
 *  never touches floating point. **/
class histogram
{
public:
    static constexpr std::size_t max_buckets = 16;

    void observe( const std::uint64_t raw ) noexcept
    {
        std::size_t i = 0;
        while( i < nbounds_ && raw > bounds_[ i ] )
        {
            ++i;
        }
        buckets_[ i ].fetch_add( 1, std::memory_order_relaxed );
        sum_.fetch_add( raw, std::memory_order_relaxed );
    }

    std::size_t   bound_count() const noexcept { return nbounds_; }
    std::uint64_t bound( const std::size_t i ) const noexcept
    {
        return bounds_[ i ];
    }
    std::uint64_t bucket( const std::size_t i ) const noexcept
    {
        return buckets_[ i ].load( std::memory_order_relaxed );
    }
    std::uint64_t sum_raw() const noexcept
    {
        return sum_.load( std::memory_order_relaxed );
    }
    std::uint64_t count() const noexcept
    {
        std::uint64_t total = 0;
        for( std::size_t i = 0; i <= nbounds_; ++i )
        {
            total += bucket( i );
        }
        return total;
    }
    double scale() const noexcept { return scale_; }

private:
    friend class registry;

    void configure( const std::vector<std::uint64_t> &bounds,
                    const double scale ) noexcept
    {
        nbounds_ = bounds.size() < max_buckets ? bounds.size() : max_buckets;
        for( std::size_t i = 0; i < nbounds_; ++i )
        {
            bounds_[ i ] = bounds[ i ];
        }
        scale_ = scale;
    }

    std::array<std::uint64_t, max_buckets>                bounds_{};
    std::size_t                                           nbounds_{ 0 };
    double                                                scale_{ 1.0 };
    std::array<std::atomic<std::uint64_t>, max_buckets + 1> buckets_{};
    std::atomic<std::uint64_t>                            sum_{ 0 };
};

using labels_t = std::vector<std::pair<std::string, std::string>>;

/** probe handed to a kernel by a telemetry session (core/kernel.hpp only
 *  forward-declares it; the scheduler null-checks the pointer). **/
struct kernel_probe
{
    counter      *runs{ nullptr };     /** run() invocations            **/
    counter      *busy_ns{ nullptr };  /** time spent inside run()      **/
    histogram    *run_hist{ nullptr }; /** per-invocation service time  **/
    std::uint32_t trace_name{ 0 };     /** interned id for the lifespan **/
};

/** process-wide metric registry (singleton).  Registration and render
 *  take a mutex; returned handles are updated lock-free. **/
class registry
{
public:
    using owner_t = std::uint64_t; /** 0 = process-global, never removed **/

    static registry &instance();

    owner_t make_owner();
    /** drop every metric registered under `owner`; its handles dangle
     *  afterwards, so instrumented code must be quiesced first **/
    void release( owner_t owner );

    /** get-or-create by (name, labels); `scale` multiplies the stored
     *  integer at export time **/
    counter &get_counter( const std::string &name, labels_t labels = {},
                          const std::string &help = "", owner_t owner = 0,
                          double scale = 1.0 );
    gauge &get_gauge( const std::string &name, labels_t labels = {},
                      const std::string &help = "", owner_t owner = 0 );
    histogram &get_histogram( const std::string &name,
                              const std::vector<std::uint64_t> &bounds,
                              double scale = 1.0, labels_t labels = {},
                              const std::string &help = "",
                              owner_t owner = 0 );

    /** register a pull metric evaluated at scrape time (live FIFO
     *  occupancy, monitor ticks...).  The callback must stay valid until
     *  the owner is released. **/
    void add_callback_gauge( const std::string &name, labels_t labels,
                             std::function<double()> fn,
                             const std::string &help = "",
                             owner_t owner = 0 );
    void add_callback_counter( const std::string &name, labels_t labels,
                               std::function<double()> fn,
                               const std::string &help = "",
                               owner_t owner = 0 );

    /** Prometheus text exposition format 0.0.4 **/
    std::string render_prometheus() const;

    std::size_t size() const;

private:
    registry() = default;
    struct impl;
    impl &self() const;
};

/** ------- process-global counters (owner 0, lazily registered) ------- *
 * accessors so call sites don't repeat name/help strings; each returns a
 * stable reference valid for the process lifetime. **/
counter &net_bytes_sent_total();
counter &net_bytes_received_total();
counter &fifo_resizes_total();
counter &predictive_resizes_total();
counter &elastic_grows_total();
counter &elastic_shrinks_total();
counter &supervisor_restarts_total();
counter &watchdog_stalls_total();
counter &graph_cancellations_total();
counter &inject_faults_total();

} /** end namespace telemetry **/
} /** end namespace raft **/

#endif /** RAFT_RUNTIME_TELEMETRY_METRICS_HPP **/
