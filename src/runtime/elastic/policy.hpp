/**
 * policy.hpp — the elastic runtime's decision logic (runtime/elastic/).
 *
 * Pure functions of the online estimates (estimator.hpp) against the
 * queueing models (src/queueing/models.hpp): classify each replica group
 * as bottleneck / balanced / underutilized with hysteresis, size the
 * replica set the way the offline flow model would, and predict FIFO
 * capacity demand ahead of the monitor's reactive 3δ-blocked trigger.
 *
 * Everything here is deterministic and side-effect free so it can be unit
 * tested without threads; the controller (elastic.hpp) owns the clocking
 * and actuation.
 */
#pragma once

#include <cmath>
#include <cstddef>

#include "queueing/models.hpp"

namespace raft::elastic {

/** One control window's view of a replica group. */
struct group_estimate
{
    double lambda{ 0.0 };     /**< offered arrival rate into the group    */
    double mu{ 0.0 };         /**< non-blocking service rate per replica  */
    double input_pressure{ 0.0 }; /**< split-input mean occupancy frac    */
    double lane_skew{ 0.0 };  /**< CV of active-lane occupancy fractions  */
    std::size_t active{ 1 };  /**< currently routed replica lanes         */
    bool rates_valid{ false };/**< λ̂ and μ̂ both warmed up               */
};

/** Utilization above which a group is classified bottleneck. */
inline constexpr double high_utilization = 0.85;
/** Utilization below which (recomputed at active-1 replicas) a replica is
 *  retired. */
inline constexpr double low_utilization = 0.45;
/** Split-input occupancy fraction treated as bottleneck evidence even when
 *  the rate estimates disagree (backpressure signal). */
inline constexpr double pressure_threshold = 0.75;
/** Coefficient of variation across active lane occupancies above which a
 *  strict round-robin split is retuned to least-utilized. */
inline constexpr double skew_threshold = 0.5;

struct policy_config
{
    std::size_t hysteresis{ 3 };
    std::size_t min_active{ 1 };
    std::size_t max_active{ 1 };
};

/**
 * Replica-count policy with hysteresis. decide() is called once per
 * control window and returns the replica delta to apply: +1 (activate a
 * lane), -1 (retire a lane) or 0. A window must present `hysteresis`
 * consecutive agreeing classifications before the policy moves, and any
 * actuation resets both streaks — the grow/shrink oscillation damper the
 * monitor's resize heuristic uses as well.
 */
class replica_policy
{
public:
    explicit replica_policy( const policy_config &cfg ) noexcept
        : cfg_( cfg )
    {
    }

    int decide( const group_estimate &e ) noexcept
    {
        const bool bottleneck    = is_bottleneck( e );
        const bool underutilized = is_underutilized( e );

        up_streak_   = bottleneck ? up_streak_ + 1 : 0;
        down_streak_ = underutilized ? down_streak_ + 1 : 0;

        if( up_streak_ >= cfg_.hysteresis && e.active < cfg_.max_active )
        {
            up_streak_   = 0;
            down_streak_ = 0;
            return +1;
        }
        if( down_streak_ >= cfg_.hysteresis && e.active > cfg_.min_active )
        {
            up_streak_   = 0;
            down_streak_ = 0;
            return -1;
        }
        return 0;
    }

    /**
     * Bottleneck: the group's utilization ρ = λ/(μ·active) exceeds the high
     * threshold, or the split input shows sustained backpressure (the
     * model-free signal — a full input queue means upstream is blocked on
     * this group regardless of what the rate estimates say).
     */
    bool is_bottleneck( const group_estimate &e ) const noexcept
    {
        if( e.input_pressure > pressure_threshold )
        {
            return true;
        }
        if( !e.rates_valid || e.mu <= 0.0 )
        {
            return false;
        }
        return utilization( e ) > high_utilization;
    }

    /**
     * Underutilized: retiring one replica would still leave utilization
     * below the low threshold (so the remaining lanes absorb the flow with
     * headroom), and the input shows no queueing to speak of.
     */
    bool is_underutilized( const group_estimate &e ) const noexcept
    {
        if( e.active <= cfg_.min_active || !e.rates_valid || e.mu <= 0.0 )
        {
            return false;
        }
        if( e.input_pressure > 0.25 )
        {
            return false;
        }
        const auto rho_minus_one =
            e.lambda /
            ( e.mu * static_cast<double>( e.active - 1 ) );
        return rho_minus_one < low_utilization;
    }

    double utilization( const group_estimate &e ) const noexcept
    {
        return e.mu <= 0.0 || e.active == 0
                   ? 0.0
                   : e.lambda /
                         ( e.mu * static_cast<double>( e.active ) );
    }

    /**
     * The replica count the flow model wants for these rates: the smallest
     * r with λ/(μ·r) ≤ high_utilization — identical arithmetic to sizing
     * replicas from the offline flow_model's per-kernel ρ, so the online
     * answer is directly comparable with the offline optimizer's.
     */
    std::size_t model_desired( const double lambda,
                               const double mu ) const noexcept
    {
        if( mu <= 0.0 || lambda <= 0.0 )
        {
            return cfg_.min_active;
        }
        const auto raw = std::ceil(
            lambda / ( mu * high_utilization ) );
        auto r = raw < 1.0 ? std::size_t{ 1 }
                           : static_cast<std::size_t>( raw );
        if( r < cfg_.min_active )
        {
            r = cfg_.min_active;
        }
        if( r > cfg_.max_active )
        {
            r = cfg_.max_active;
        }
        return r;
    }

    const policy_config &config() const noexcept { return cfg_; }

private:
    policy_config cfg_;
    std::size_t up_streak_{ 0 };
    std::size_t down_streak_{ 0 };
};

/**
 * Split-strategy retune: sustained occupancy skew across the active lanes
 * means strict round-robin dealing is feeding slow/unlucky replicas as
 * often as fast ones; least-utilized routing absorbs the imbalance. The
 * switch is one-way per run (LU handles the balanced case fine, so
 * flapping back buys nothing).
 */
class strategy_policy
{
public:
    explicit strategy_policy( const policy_config &cfg ) noexcept
        : cfg_( cfg )
    {
    }

    /** True when this window's skew evidence (with hysteresis) says to
     *  switch a strict strategy to least-utilized. */
    bool want_least_utilized( const group_estimate &e ) noexcept
    {
        if( e.active < 2 )
        {
            streak_ = 0;
            return false;
        }
        streak_ = e.lane_skew > skew_threshold ? streak_ + 1 : 0;
        if( streak_ >= cfg_.hysteresis )
        {
            streak_ = 0;
            return true;
        }
        return false;
    }

private:
    policy_config cfg_;
    std::size_t streak_{ 0 };
};

/**
 * Predictive FIFO sizing: given the stream's estimated rates and its
 * current capacity, return the capacity the M/M/1 model wants (0 = no
 * change). Fires *before* the writer ever blocks 3δ: either the predicted
 * steady-state occupancy L = ρ/(1-ρ) crowds the buffer, or the stream is
 * already past saturation and visibly filling.
 */
inline std::size_t predict_capacity( const double lambda, const double mu,
                                     const double occupancy_fraction,
                                     const std::size_t capacity,
                                     const std::size_t max_capacity )
{
    if( capacity == 0 || capacity >= max_capacity )
    {
        return 0;
    }
    const auto grown = capacity * 2 > max_capacity ? max_capacity
                                                   : capacity * 2;
    if( mu > 0.0 && lambda > 0.0 && lambda < mu )
    {
        const auto L =
            queueing::mm1{ lambda, mu }.mean_in_system();
        if( L > 0.5 * static_cast<double>( capacity ) )
        {
            return grown;
        }
    }
    /** saturated (ρ ≥ 1) or model-less: grow once the buffer visibly
     *  fills, ahead of the writer actually blocking **/
    if( occupancy_fraction > 0.7 )
    {
        return grown;
    }
    return 0;
}

} /** end namespace raft::elastic **/
