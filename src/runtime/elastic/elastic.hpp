/**
 * elastic.hpp — the elastic runtime controller (runtime/elastic/).
 *
 * A closed-loop adaptive controller that rides the monitor thread: the
 * monitor calls on_tick() once per δ. The controller probes no stream
 * itself; it names streams by their monitor entry and, every control
 * period, closes one estimation window (estimator.hpp) per entry over the
 * monitor's samples, evaluates the policies (policy.hpp) and actuates:
 *
 *   - replica elasticity — activating/retiring replica lanes of
 *     pre-provisioned split/reduce groups (core/parallel.hpp) via
 *     split_kernel::set_active(); retirement is a quiesce: routing stops,
 *     the lane drains through its still-live replica, nothing is lost;
 *   - predictive FIFO sizing — growing streams the M/M/1 model predicts
 *     will crowd out, ahead of the monitor's reactive 3δ-blocked rule;
 *   - split-strategy retune — swapping strict round-robin dealing for
 *     least-utilized routing when sustained lane skew is observed.
 *
 * Everything runs on the monitor thread, so actuation (atomic stores into
 * the split adapters, resize() calls) never races the monitor's own
 * resizes. The controller is constructed, wired and torn down by
 * map::exe() when run_options::elastic.enabled is set; with the flag off
 * none of this code is reachable.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/parallel.hpp"
#include "runtime/elastic/estimator.hpp"
#include "runtime/elastic/policy.hpp"
#include "runtime/stats.hpp"

namespace raft {
class monitor;
} /** end namespace raft **/

namespace raft::telemetry {
class gauge;
} /** end namespace raft::telemetry **/

namespace raft::elastic {

class controller
{
public:
    /** Construct after every stream is registered with `mon`: one
     *  estimator per monitor entry reads that entry's sample. */
    controller( const run_options &opts, const monitor &mon );

    /** releases the controller's telemetry registrations (if any) **/
    ~controller();

    controller( const controller & )            = delete;
    controller &operator=( const controller & ) = delete;

    /** @name registration (map::exe, before the monitor starts) */
    ///@{
    /** Register a replicated kernel's adapters; the split/reduce ports
     *  must already be bound to streams the monitor knows. Other groups
     *  are ignored (nothing to actuate or to estimate). */
    void add_group( const replica_group &g );
    ///@}

    /** Monitor-thread hook: one δ tick. Once per control period it runs
     *  estimate → policy → actuate over the monitor's samples. */
    void on_tick( std::int64_t now_ns );

    /** Trajectory summary; call after the monitor stopped. */
    runtime::elastic_report report() const;

    std::size_t group_count() const noexcept { return groups_.size(); }

private:
    struct group_state
    {
        std::string name;
        std::vector<split_kernel *> splits;
        std::size_t active{ 1 };
        std::size_t min_active{ 1 };
        std::size_t max_active{ 1 };

        /** monitor entries: the stream feeding the first split, and the
         *  first split's output streams **/
        std::size_t input{ 0 };
        std::vector<std::size_t> lanes;

        replica_policy policy{ policy_config{} };
        strategy_policy strategy{ policy_config{} };
        bool strict_routing{ false }; /**< current strategy is strict RR  */

        runtime::elastic_group_report rep;

        /** telemetry (null / 0 when no session is active at add_group) */
        telemetry::gauge *active_gauge{ nullptr };
        std::uint32_t trace_activate{ 0 };
        std::uint32_t trace_quiesce{ 0 };
    };

    /** one per monitor entry, same index **/
    struct stream_state
    {
        rate_estimator est;
        std::uint64_t cooldown{ 0 }; /**< windows until next resize try  */
    };

    void control_window( double dt_s );
    void control_group( group_state &g );

    const monitor &mon_;
    elastic_options cfg_;
    bool dynamic_resize_{ true };
    std::size_t max_queue_capacity_{ 0 };
    std::int64_t period_ns_{ 0 };
    std::int64_t last_control_ns_{ 0 };

    std::vector<group_state> groups_;
    std::vector<stream_state> streams_;

    std::uint64_t control_ticks_{ 0 };
    std::uint64_t predictive_resizes_{ 0 };

    /** registry owner for the controller's gauges (0 = none made) */
    std::uint64_t tele_owner_{ 0 };
};

} /** end namespace raft::elastic **/
