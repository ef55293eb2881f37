/**
 * supervisor.hpp — supervised execution (fault tolerance).
 *
 * The supervisor is the runtime's failure-policy arbiter. Scheduler threads
 * consult it when a kernel's run() throws a non-control-flow exception:
 * while the kernel's restart_policy has restarts left, the verdict grants an
 * in-place restart after an exponentially backed-off delay (ports stay
 * bound, streams stay open — RAII claim guards released anything held
 * during unwind). Once the policy is exhausted the failure is terminal and
 * the scheduler cancels the whole graph.
 *
 * When supervision_options::watchdog_deadline is set, the supervisor also
 * rides the monitor thread (monitor::attach_supervisor) as a graph-wide
 * watchdog over the monitor's streams: if no stream pushes or pops a
 * single element for longer than the deadline, it records a stall,
 * captures per-stream occupancy/rate diagnostics, and cancels the graph
 * through the canceller callback the scheduler registered, so blocked
 * kernels wake with stream_aborted_exception instead of hanging forever.
 *
 * Thread safety: on_failure() arrives from scheduler threads, on_tick()
 * from the monitor thread; one mutex serializes both against report().
 */
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/kernel.hpp"
#include "core/options.hpp"
#include "runtime/stats.hpp"

namespace raft {
class monitor;
} /** end namespace raft **/

namespace raft::runtime {

class supervisor
{
public:
    explicit supervisor( const supervision_options &opts );

    supervisor( const supervisor & )            = delete;
    supervisor &operator=( const supervisor & ) = delete;

    /** @name registration (call before the run starts) */
    ///@{
    void register_kernel( kernel *k );
    ///@}

    /** Scheduler → supervisor: kernel k's run() threw `what`. */
    struct verdict
    {
        bool restart{ false };
        std::chrono::nanoseconds backoff{ 0 };
    };
    verdict on_failure( kernel &k, const std::string &what );

    /**
     * Graph canceller, registered by the scheduler for the duration of
     * execute(): invoked (with a human-readable reason) when the watchdog
     * decides to abort a stalled graph. Cleared before execute() returns,
     * so a late watchdog tick only records the stall.
     */
    void set_canceller( std::function<void( const std::string & )> c );
    void clear_canceller();

    /** Monitor thread: one watchdog evaluation over mon's streams at time
     *  `now_ns`. */
    void on_tick( const monitor &mon, std::int64_t now_ns );

    /** Snapshot of the supervision history (any time; thread-safe). */
    supervision_report report() const;

private:
    struct kernel_state
    {
        kernel *k{ nullptr };
        restart_policy policy{};
        std::size_t restarts{ 0 };
        std::size_t failures{ 0 };
        bool terminal{ false };
        std::string last_error;
    };

    kernel_state *find_locked( const kernel &k );
    std::string stall_diagnostics_locked( const monitor &mon,
                                          std::int64_t now_ns );

    supervision_options opts_;
    mutable std::mutex mutex_;
    std::vector<kernel_state> kernels_;
    std::function<void( const std::string & )> canceller_;

    /** watchdog state (monitor thread under mutex_) **/
    std::uint64_t last_progress_{ 0 };
    std::int64_t first_tick_ns_{ 0 };
    std::int64_t last_progress_ns_{ 0 };
    bool stall_flagged_{ false };
    std::size_t watchdog_stalls_{ 0 };
    std::string last_stall_diagnostics_;
    std::size_t total_restarts_{ 0 };
    std::size_t terminal_failures_{ 0 };
};

} /** end namespace raft::runtime **/
