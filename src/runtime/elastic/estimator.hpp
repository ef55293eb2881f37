/**
 * estimator.hpp — online arrival/service-rate estimation for the elastic
 * runtime (runtime/elastic/).
 *
 * The estimator takes no probes of its own. The monitor thread keeps one
 * monotonic sample per stream (runtime::stream_sample, §4.1's low-overhead
 * statistics); at each control period the estimator takes that sample's
 * deltas since its previous window, together with the queue's monotonic
 * push/pop counters, and turns them into rate estimates, EWMA-smoothed
 * across windows. monitor::collect() applies the same corrections to the
 * whole run, so the run report and the controller agree.
 *
 * The service-rate estimate follows Beard & Chamberlain's run-time
 * approximation of *non-blocking* service rates (arXiv:1504.00591): the
 * observed drain rate of a queue equals the consumer's true service rate
 * only while the consumer is not starved, so the pop rate is divided by the
 * fraction of the window during which the queue was non-empty. Dually, the
 * observed push rate underestimates the *offered* arrival rate while the
 * producer is blocked on a full queue, so the push rate is divided by the
 * non-full fraction of the window. Both corrections turn blocking-distorted
 * throughput observations into estimates of the underlying rates — exactly
 * the λ and μ the M/M/1 and flow models (src/queueing/) expect.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/stats.hpp"

namespace raft::elastic {

/** Exponentially-weighted moving average with explicit warm-up. */
class ewma
{
public:
    explicit ewma( const double alpha = 0.4 ) noexcept : alpha_( alpha ) {}

    void update( const double sample ) noexcept
    {
        if( !valid_ )
        {
            value_ = sample;
            valid_ = true;
            return;
        }
        value_ = alpha_ * sample + ( 1.0 - alpha_ ) * value_;
    }

    double value() const noexcept { return value_; }
    bool valid() const noexcept { return valid_; }

private:
    double alpha_;
    double value_{ 0.0 };
    bool valid_{ false };
};

/** Non-blocking service rate (1504.00591): pops happen only while the
 *  queue is non-empty, so divide the pop rate by the busy fraction
 *  (floored at 0.05). The run report applies it to the whole run. */
inline double non_blocking_service_hz( const double pop_hz,
                                       const double busy_frac ) noexcept
{
    return pop_hz / ( busy_frac < 0.05 ? 0.05 : busy_frac );
}

/**
 * Rate estimator for one FIFO: the monitor sample's deltas plus the
 * queue's counter deltas over one control window → EWMA estimates of
 * offered arrival rate and non-blocking service rate.
 *
 * Single-threaded by design: window() runs on the monitor thread, which
 * also writes the sample. The FIFO counters it consumes
 * (total_pushed/total_popped) are relaxed atomics maintained by the queue
 * ends.
 */
class rate_estimator
{
public:
    explicit rate_estimator( const double alpha = 0.4 ) noexcept
        : arrival_( alpha ), service_( alpha )
    {
    }

    /**
     * Close a control window: `s` is the stream's monitor sample and
     * `pushed`/`popped` the queue's lifetime counters, all read now;
     * `dt_s` is the window length in seconds. Takes deltas against the
     * previous window, applies the busy/non-full corrections and folds
     * the window into the EWMAs.
     */
    void window( const runtime::stream_sample &s, const std::uint64_t pushed,
                 const std::uint64_t popped, const double dt_s ) noexcept
    {
        const auto d_push = pushed - last_pushed_;
        const auto d_pop  = popped - last_popped_;
        const auto ticks  = s.ticks - last_.ticks;
        const auto busy   = s.busy_ticks - last_.busy_ticks;
        const auto full   = s.full_ticks - last_.full_ticks;
        const auto util   = s.utilization_sum - last_.utilization_sum;
        last_pushed_      = pushed;
        last_popped_      = popped;
        last_             = s;

        const auto t = static_cast<double>( ticks );
        busy_frac_   = ticks == 0 ? ( d_pop > 0 ? 1.0 : 0.0 )
                                  : static_cast<double>( busy ) / t;
        full_frac_   = ticks == 0 ? 0.0 : static_cast<double>( full ) / t;
        mean_occ_    = ticks == 0 ? 0.0 : util / t;

        if( !( dt_s > 0.0 ) )
        {
            return;
        }
        observed_push_hz_ = static_cast<double>( d_push ) / dt_s;
        observed_pop_hz_  = static_cast<double>( d_pop ) / dt_s;

        /** offered arrival rate: pushes happen only while not blocked on a
         *  full queue; divide by the non-full fraction (floored so a
         *  saturated window cannot blow the estimate up — saturation shows
         *  up in full_fraction()/mean occupancy instead) **/
        const auto open = 1.0 - full_frac_;
        arrival_.update( observed_push_hz_ /
                         ( open < 0.05 ? 0.05 : open ) );

        /** non-blocking service rate: meaningful only when the consumer
         *  was observably busy this window, otherwise keep the prior **/
        if( busy_frac_ > 0.02 )
        {
            service_.update(
                non_blocking_service_hz( observed_pop_hz_, busy_frac_ ) );
        }
        ++windows_;
    }

    /** @name smoothed estimates (elements/s) */
    ///@{
    double arrival_hz() const noexcept { return arrival_.value(); }
    double service_hz() const noexcept { return service_.value(); }
    bool arrival_valid() const noexcept { return arrival_.valid(); }
    bool service_valid() const noexcept { return service_.valid(); }
    ///@}

    /** @name last-window raw observations */
    ///@{
    double observed_push_hz() const noexcept { return observed_push_hz_; }
    double observed_pop_hz() const noexcept { return observed_pop_hz_; }
    double busy_fraction() const noexcept { return busy_frac_; }
    double full_fraction() const noexcept { return full_frac_; }
    double mean_occupancy_fraction() const noexcept { return mean_occ_; }
    std::uint64_t windows() const noexcept { return windows_; }
    ///@}

private:
    ewma arrival_;
    ewma service_;

    std::uint64_t windows_{ 0 };

    /** what the previous window saw **/
    std::uint64_t last_pushed_{ 0 };
    std::uint64_t last_popped_{ 0 };
    runtime::stream_sample last_;

    /** last-window results **/
    double observed_push_hz_{ 0.0 };
    double observed_pop_hz_{ 0.0 };
    double busy_frac_{ 0.0 };
    double full_frac_{ 0.0 };
    double mean_occ_{ 0.0 };
};

} /** end namespace raft::elastic **/
