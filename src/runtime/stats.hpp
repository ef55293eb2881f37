/**
 * stats.hpp — performance-monitoring data model (§4.1: "the user has access
 * to monitor useful things such as queue size, current kernel configuration
 * ... mean queue occupancy, service rate, throughput, queue occupancy
 * histograms").
 *
 * The monitor thread (core/monitor.hpp) is the only sampler: every tick it
 * adds one probe (a size() and a capacity() load) to each stream's
 * stream_sample. The run report and the elastic controller read that one
 * sample; map::exe() returns the report as a perf_snapshot through
 * run_options::stats_out, the run's only report: the elastic controller,
 * the supervisor and the telemetry session each add an optional section
 * to it. Collection is deliberately cheap: per probe, a
 * few counter increments and one histogram bucket increment per stream
 * (the low-impact design the TimeTrial line of work argues for).
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace raft::runtime {

/** Fixed-bucket histogram over queue occupancy as a fraction of capacity. */
class occupancy_histogram
{
public:
    static constexpr std::size_t bucket_count = 10;

    void add( const double fraction ) noexcept
    {
        /** A racing resize can make the occupancy load momentarily exceed
         *  the capacity load (or undershoot it), yielding fractions outside
         *  [0,1]; clamp both sides (the !(>) form also catches NaN) before
         *  the cast, which is UB for negative values. */
        const double f = !( fraction > 0.0 )
                             ? 0.0
                             : ( fraction > 1.0 ? 1.0 : fraction );
        auto b = static_cast<std::size_t>( f * bucket_count );
        if( b >= bucket_count )
        {
            b = bucket_count - 1;
        }
        ++buckets_[ b ];
        ++total_;
    }

    std::uint64_t bucket( const std::size_t i ) const noexcept
    {
        return buckets_[ i ];
    }

    std::uint64_t total() const noexcept { return total_; }

    /** Fraction of samples in bucket i (0 if empty histogram). */
    double fraction( const std::size_t i ) const noexcept
    {
        return total_ == 0
                   ? 0.0
                   : static_cast<double>( buckets_[ i ] ) /
                         static_cast<double>( total_ );
    }

    void merge( const occupancy_histogram &o ) noexcept
    {
        for( std::size_t i = 0; i < bucket_count; ++i )
        {
            buckets_[ i ] += o.buckets_[ i ];
        }
        total_ += o.total_;
    }

    /**
     * q-quantile of the occupancy fraction (q in [0,1]): upper edge of the
     * first bucket at which the CDF reaches q. Resolution is one bucket
     * (0.1); an empty histogram reports 0.
     */
    double quantile( const double q ) const noexcept
    {
        if( total_ == 0 )
        {
            return 0.0;
        }
        const auto need = q * static_cast<double>( total_ );
        std::uint64_t cum = 0;
        for( std::size_t i = 0; i < bucket_count; ++i )
        {
            cum += buckets_[ i ];
            if( static_cast<double>( cum ) >= need )
            {
                return ( static_cast<double>( i ) + 1.0 ) /
                       static_cast<double>( bucket_count );
            }
        }
        return 1.0;
    }

    /** Median occupancy fraction (bucket-resolution, see quantile()). */
    double p50() const noexcept { return quantile( 0.50 ); }

    /** 95th-percentile occupancy fraction. */
    double p95() const noexcept { return quantile( 0.95 ); }

    /** 99th-percentile occupancy fraction. */
    double p99() const noexcept { return quantile( 0.99 ); }

private:
    std::array<std::uint64_t, bucket_count> buckets_{};
    std::uint64_t total_{ 0 };
};

/**
 * One stream's monitor sample: monotonic sums over every probe the monitor
 * took. Only the monitor thread writes it; the elastic controller, on that
 * thread, takes deltas between two reads, and monitor::collect() reads it
 * after the thread stopped.
 */
struct stream_sample
{
    std::uint64_t ticks{ 0 };      /**< probes taken                     */
    std::uint64_t busy_ticks{ 0 }; /**< probes that found it non-empty   */
    std::uint64_t full_ticks{ 0 }; /**< probes that found it full        */
    double occupancy_sum{ 0.0 };   /**< items                            */
    double utilization_sum{ 0.0 }; /**< occupancy / capacity             */
    occupancy_histogram hist;

    /** One probe. size() and capacity() are two separate loads; a racing
     *  resize between them can yield size > capacity (or a stale
     *  capacity), so clamp before accumulating. */
    void add( const std::size_t size, const std::size_t capacity ) noexcept
    {
        const auto occ = capacity != 0 && size > capacity ? capacity : size;
        const double util =
            capacity == 0 ? 0.0
                          : static_cast<double>( occ ) /
                                static_cast<double>( capacity );
        ++ticks;
        busy_ticks += occ != 0 ? 1 : 0;
        full_ticks += capacity != 0 && occ == capacity ? 1 : 0;
        occupancy_sum += static_cast<double>( occ );
        utilization_sum += util;
        hist.add( util );
    }
};

/** Per-stream statistics over one application run. */
struct stream_stats
{
    std::string src_kernel;
    std::string dst_kernel;
    std::string src_port;
    std::string dst_port;
    std::string type_name;

    std::uint64_t pushed{ 0 };
    std::uint64_t popped{ 0 };
    std::size_t element_size{ 0 };
    std::size_t initial_capacity{ 0 };
    std::size_t final_capacity{ 0 };
    std::size_t resize_count{ 0 };

    std::uint64_t samples{ 0 };
    double mean_occupancy{ 0.0 };      /**< items, averaged over samples   */
    double mean_utilization{ 0.0 };    /**< occupancy / capacity           */
    occupancy_histogram occupancy;

    /** Whole-run corrected rates (the elastic estimator's corrections,
     *  runtime/elastic/estimator.hpp): pops per non-empty second and
     *  pushes per non-full second, the fractions floored at 0.05. */
    double service_rate_hz{ 0.0 };
    double arrival_rate_hz{ 0.0 };
    /** Observed bytes popped per wall second (uncorrected). */
    double throughput_bytes_per_s{ 0.0 };

    /** Median occupancy fraction over the sampled run. */
    double p50_utilization() const noexcept
    {
        return occupancy.p50();
    }

    /** 95th-percentile occupancy fraction over the sampled run. */
    double p95_utilization() const noexcept
    {
        return occupancy.p95();
    }

    /** 99th-percentile occupancy fraction over the sampled run. */
    double p99_utilization() const noexcept
    {
        return occupancy.quantile( 0.99 );
    }
};

namespace detail {

/** First item that `match` accepts, else nullptr: the substring lookup
 *  behind every find() of the run report. */
template <class T, class Match>
const T *find_first( const std::vector<T> &items, const Match &match )
{
    for( const auto &item : items )
    {
        if( match( item ) )
        {
            return &item;
        }
    }
    return nullptr;
}

inline bool contains( const std::string &s, const std::string &part )
{
    return s.find( part ) != std::string::npos;
}

} /** end namespace detail **/

/** @name supervision section (runtime/supervisor.hpp) */
///@{

/** One kernel's history under the supervisor. */
struct kernel_supervision_report
{
    std::string kernel_name;
    std::size_t restarts{ 0 };        /**< restarts granted              */
    std::size_t failures{ 0 };        /**< throws observed (incl. final) */
    bool terminal{ false };           /**< policy exhausted / none       */
    std::string last_error;
};

/** Whole-run supervision summary: perf_snapshot::supervision. */
struct supervision_report
{
    std::vector<kernel_supervision_report> kernels;
    std::size_t total_restarts{ 0 };
    std::size_t terminal_failures{ 0 };
    std::size_t watchdog_stalls{ 0 };
    /** Per-kernel occupancy/rate diagnostics captured at the last stall
     *  (empty when the watchdog never fired). */
    std::string last_stall_diagnostics;

    const kernel_supervision_report *
    find( const std::string &contains ) const
    {
        return detail::find_first( kernels, [ & ]( const auto &k ) {
            return detail::contains( k.kernel_name, contains );
        } );
    }
};
///@}

/** @name elastic section (runtime/elastic/) */
///@{

/** One replica group's trajectory under the elastic controller. */
struct elastic_group_report
{
    std::string kernel_name;     /**< the replicated kernel               */
    std::size_t min_active{ 1 }; /**< configured floor                    */
    std::size_t max_active{ 1 }; /**< configured ceiling (= lane count)   */
    std::size_t final_active{ 1 };
    std::size_t peak_active{ 1 };
    std::size_t grows{ 0 };      /**< replica-activation decisions        */
    std::size_t shrinks{ 0 };    /**< replica-retirement decisions        */
    std::size_t strategy_switches{ 0 };

    /** Last online estimates (elements/s unless noted). */
    double lambda_hz{ 0.0 };     /**< offered arrival rate                */
    double mu_hz{ 0.0 };         /**< non-blocking service rate / replica */
    double rho{ 0.0 };           /**< λ / (μ · active)                    */

    /** Input-stream occupancy quantiles over every monitor tick
     *  (occupancy_histogram::p50/p95 — the distribution the thresholds
     *  acted on, not just its mean). */
    double input_p50_utilization{ 0.0 };
    double input_p95_utilization{ 0.0 };

    /** Largest replica count the queueing model asked for over the run
     *  (windows with warmed-up estimates only) — directly comparable with
     *  the offline optimizer's answer for the loaded phase. */
    std::size_t model_desired{ 1 };
};

/** Whole-run elastic controller summary: perf_snapshot::elastic. */
struct elastic_report
{
    std::vector<elastic_group_report> groups;
    std::uint64_t control_ticks{ 0 };      /**< policy evaluations       */
    std::uint64_t predictive_resizes{ 0 }; /**< FIFO grows ahead of 3δ   */

    const elastic_group_report *find( const std::string &contains ) const
    {
        return detail::find_first( groups, [ & ]( const auto &g ) {
            return detail::contains( g.kernel_name, contains );
        } );
    }
};
///@}

/** Tracer accounting of a telemetry-enabled run: perf_snapshot::telemetry.
 *  The Prometheus port is not here: a scraper needs it while the graph
 *  runs, so telemetry_options::bound_port_out publishes it. */
struct trace_report
{
    std::uint64_t trace_events_recorded{ 0 };
    std::uint64_t trace_events_dropped{ 0 };
    std::uint64_t trace_threads{ 0 };
};

/**
 * The run report: map::exe() fills it through run_options::stats_out, on
 * success and before it throws graph_error. The stream statistics are
 * always there; each optional section is set only when its subsystem was
 * enabled for the run.
 */
struct perf_snapshot
{
    std::vector<stream_stats> streams;
    double wall_seconds{ 0.0 };
    std::uint64_t monitor_ticks{ 0 };

    std::optional<elastic_report> elastic;         /**< elastic.enabled     */
    std::optional<supervision_report> supervision; /**< supervision.enabled */
    std::optional<trace_report> telemetry;         /**< telemetry.enabled   */

    /** First stream whose endpoints contain the given substrings. */
    const stream_stats *find( const std::string &src_contains,
                              const std::string &dst_contains ) const
    {
        return detail::find_first( streams, [ & ]( const auto &s ) {
            return detail::contains( s.src_kernel, src_contains ) &&
                   detail::contains( s.dst_kernel, dst_contains );
        } );
    }

    double total_bytes_moved() const
    {
        double sum = 0.0;
        for( const auto &s : streams )
        {
            sum += static_cast<double>( s.popped ) *
                   static_cast<double>( s.element_size );
        }
        return sum;
    }

    /** Sample-weighted mean utilization across every stream. */
    double mean_utilization() const
    {
        double weighted = 0.0;
        std::uint64_t samples = 0;
        for( const auto &s : streams )
        {
            weighted += s.mean_utilization *
                        static_cast<double>( s.samples );
            samples += s.samples;
        }
        return samples == 0
                   ? 0.0
                   : weighted / static_cast<double>( samples );
    }

    /** 99th-percentile utilization over the merged occupancy histogram of
     *  every stream (the application-wide tail pressure). */
    double p99_utilization() const
    {
        occupancy_histogram merged;
        for( const auto &s : streams )
        {
            merged.merge( s.occupancy );
        }
        return merged.quantile( 0.99 );
    }

    /** Whole report as JSON, sections included: one key per present
     *  section, none for an absent one. */
    std::string to_json() const
    {
        std::ostringstream os;
        os.precision( 17 );
        const auto esc = []( const std::string &v )
        {
            std::string out;
            for( const char c : v )
            {
                if( c == '"' || c == '\\' )
                {
                    out += '\\';
                }
                if( static_cast<unsigned char>( c ) < 0x20 )
                {
                    out += ' ';
                    continue;
                }
                out += c;
            }
            return out;
        };
        /** one JSON object per item, a line each **/
        const auto list = [ &os ]( const auto &items, const auto &render )
        {
            const char *sep = "\n";
            for( const auto &item : items )
            {
                os << sep << "    {";
                render( item );
                os << "}";
                sep = ",\n";
            }
        };
        os << "{\n  \"wall_seconds\": " << wall_seconds
           << ",\n  \"monitor_ticks\": " << monitor_ticks
           << ",\n  \"total_bytes_moved\": " << total_bytes_moved()
           << ",\n  \"mean_utilization\": " << mean_utilization()
           << ",\n  \"p99_utilization\": " << p99_utilization()
           << ",\n  \"streams\": [";
        list( streams, [ & ]( const stream_stats &s ) {
            os << "\"src\": \"" << esc( s.src_kernel ) << "\", \"dst\": \""
               << esc( s.dst_kernel ) << "\", \"src_port\": \""
               << esc( s.src_port ) << "\", \"dst_port\": \""
               << esc( s.dst_port ) << "\", \"type\": \""
               << esc( s.type_name ) << "\","
               << "\n     \"pushed\": " << s.pushed
               << ", \"popped\": " << s.popped
               << ", \"element_size\": " << s.element_size
               << ", \"initial_capacity\": " << s.initial_capacity
               << ", \"final_capacity\": " << s.final_capacity
               << ", \"resize_count\": " << s.resize_count << ","
               << "\n     \"samples\": " << s.samples
               << ", \"mean_occupancy\": " << s.mean_occupancy
               << ", \"mean_utilization\": " << s.mean_utilization
               << ", \"p50_utilization\": " << s.p50_utilization()
               << ", \"p95_utilization\": " << s.p95_utilization()
               << ", \"p99_utilization\": " << s.p99_utilization() << ","
               << "\n     \"service_rate_hz\": " << s.service_rate_hz
               << ", \"arrival_rate_hz\": " << s.arrival_rate_hz
               << ", \"throughput_bytes_per_s\": "
               << s.throughput_bytes_per_s << ","
               << "\n     \"occupancy_histogram\": [";
            for( std::size_t i = 0;
                 i < occupancy_histogram::bucket_count; ++i )
            {
                os << ( i == 0 ? "" : ", " ) << s.occupancy.bucket( i );
            }
            os << "]";
        } );
        os << "\n  ]";
        if( elastic )
        {
            os << ",\n  \"elastic\": {\"control_ticks\": "
               << elastic->control_ticks << ", \"predictive_resizes\": "
               << elastic->predictive_resizes << ", \"groups\": [";
            list( elastic->groups, [ & ]( const elastic_group_report &g ) {
                os << "\"kernel\": \"" << esc( g.kernel_name )
                   << "\", \"min_active\": " << g.min_active
                   << ", \"max_active\": " << g.max_active
                   << ", \"final_active\": " << g.final_active
                   << ", \"peak_active\": " << g.peak_active
                   << ", \"grows\": " << g.grows
                   << ", \"shrinks\": " << g.shrinks
                   << ", \"strategy_switches\": " << g.strategy_switches
                   << ",\n     \"lambda_hz\": " << g.lambda_hz
                   << ", \"mu_hz\": " << g.mu_hz << ", \"rho\": " << g.rho
                   << ", \"input_p50_utilization\": "
                   << g.input_p50_utilization
                   << ", \"input_p95_utilization\": "
                   << g.input_p95_utilization
                   << ", \"model_desired\": " << g.model_desired;
            } );
            os << "]}";
        }
        if( supervision )
        {
            os << ",\n  \"supervision\": {\"total_restarts\": "
               << supervision->total_restarts << ", \"terminal_failures\": "
               << supervision->terminal_failures
               << ", \"watchdog_stalls\": " << supervision->watchdog_stalls
               << ", \"last_stall_diagnostics\": \""
               << esc( supervision->last_stall_diagnostics )
               << "\", \"kernels\": [";
            list( supervision->kernels,
                  [ & ]( const kernel_supervision_report &k ) {
                      os << "\"kernel\": \"" << esc( k.kernel_name )
                         << "\", \"restarts\": " << k.restarts
                         << ", \"failures\": " << k.failures
                         << ", \"terminal\": "
                         << ( k.terminal ? "true" : "false" )
                         << ", \"last_error\": \"" << esc( k.last_error )
                         << "\"";
                  } );
            os << "]}";
        }
        if( telemetry )
        {
            os << ",\n  \"telemetry\": {\"trace_events_recorded\": "
               << telemetry->trace_events_recorded
               << ", \"trace_events_dropped\": "
               << telemetry->trace_events_dropped
               << ", \"trace_threads\": " << telemetry->trace_threads << "}";
        }
        os << "\n}";
        return os.str();
    }
};

/** Human-readable table: one line per stream plus run totals, then one
 *  block per present section. */
inline std::ostream &operator<<( std::ostream &os, const perf_snapshot &p )
{
    os << "perf_snapshot: wall " << p.wall_seconds << " s, "
       << p.monitor_ticks << " monitor ticks, " << p.streams.size()
       << " streams, mean util " << p.mean_utilization() << ", p99 util "
       << p.p99_utilization() << "\n";
    for( const auto &s : p.streams )
    {
        os << "  " << s.src_kernel << "[" << s.src_port << "] -> "
           << s.dst_kernel << "[" << s.dst_port << "]: pushed " << s.pushed
           << ", popped " << s.popped << ", cap " << s.initial_capacity
           << "->" << s.final_capacity << " (" << s.resize_count
           << " resizes), util mean " << s.mean_utilization << " p50 "
           << s.p50_utilization() << " p95 " << s.p95_utilization()
           << " p99 " << s.p99_utilization() << ", service "
           << s.service_rate_hz << " Hz\n";
    }
    if( p.elastic )
    {
        os << "elastic: " << p.elastic->control_ticks << " control ticks, "
           << p.elastic->predictive_resizes << " predictive resizes\n";
        for( const auto &g : p.elastic->groups )
        {
            os << "  " << g.kernel_name << ": " << g.final_active
               << " replicas (peak " << g.peak_active << ", range "
               << g.min_active << ".." << g.max_active << "), " << g.grows
               << " grows, " << g.shrinks << " shrinks, rho " << g.rho
               << "\n";
        }
    }
    if( p.supervision )
    {
        os << "supervision: " << p.supervision->total_restarts
           << " restarts, " << p.supervision->terminal_failures
           << " terminal failures, " << p.supervision->watchdog_stalls
           << " watchdog stalls\n";
        for( const auto &k : p.supervision->kernels )
        {
            os << "  " << k.kernel_name << ": " << k.restarts
               << " restarts, " << k.failures << " failures"
               << ( k.terminal ? ", terminal: " + k.last_error : "" )
               << "\n";
        }
    }
    if( p.telemetry )
    {
        os << "telemetry: " << p.telemetry->trace_events_recorded
           << " trace events recorded, "
           << p.telemetry->trace_events_dropped << " dropped, "
           << p.telemetry->trace_threads << " threads\n";
    }
    return os;
}

} /** end namespace raft::runtime **/
