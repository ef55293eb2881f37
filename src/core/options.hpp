/**
 * options.hpp — run_options: every runtime-settable knob of map::exe().
 *
 * "RaftLib supports continuous optimization of a host of run-time settable
 * parameters" (§4); these are the static entry points. Defaults reproduce
 * the paper's description: thread-per-kernel scheduling on the OS scheduler,
 * a 10 µs monitor δ, dynamic queue resizing enabled, automatic
 * parallelization of clonable kernels with the least-utilized split
 * strategy.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>

#include "core/restart.hpp"
#include "runtime/stats.hpp"
#include "runtime/telemetry/options.hpp"

namespace raft {

enum class scheduler_kind
{
    thread_per_kernel, /**< default: one OS thread per kernel (§4.1)     */
    pool               /**< cooperative worker pool (research alternate) */
};

enum class split_kind
{
    round_robin,
    least_utilized /**< "queue utilization used to direct data flow to
                        less utilized servers" (§4.1) */
};

/**
 * Elastic runtime (runtime/elastic/): a closed-loop controller on the
 * monitor thread that estimates per-kernel arrival and non-blocking service
 * rates online (EWMA over monitor δ ticks, busy-period-corrected in the
 * style of Beard & Chamberlain's run-time service-rate approximation),
 * classifies bottleneck/underutilized kernels against the M/M/1 flow
 * models, and actuates live: activating/retiring replicas through the
 * split/reduce adapters, predictively growing FIFOs ahead of the monitor's
 * reactive 3δ-blocked trigger, and retuning the split strategy from
 * observed lane skew. The policy thresholds and the EWMA factor are
 * constants (runtime/elastic/policy.hpp, estimator.hpp). Off by default —
 * with enabled == false nothing in the runtime changes.
 */
struct elastic_options
{
    bool enabled{ false };

    /** @name replica bounds (per clonable kernel on raft::out links) */
    ///@{
    std::size_t min_replicas{ 1 };
    /** Lane ceiling; the rewrite pre-provisions this many replicas and the
     *  controller activates between min and max. 0 = one per core. */
    std::size_t max_replicas{ 0 };
    ///@}

    /** @name control loop */
    ///@{
    /** Policy evaluation period (≥ the monitor δ; estimates aggregate
     *  monitor-tick samples in between). */
    std::chrono::nanoseconds control_period{
        std::chrono::microseconds( 500 ) };
    /** Consecutive agreeing control windows before actuation. */
    std::size_t hysteresis{ 3 };
    ///@}

    /** Grow FIFOs predicted (M/M/1) to exceed capacity before the writer
     *  ever blocks 3δ. Requires dynamic_resize. The controller's trajectory
     *  is the run report's `elastic` section (run_options::stats_out). */
    bool predictive_resize{ true };
};

/**
 * Supervised execution (runtime/supervisor.hpp): restart clean-failure
 * kernels in place under their restart_policy, and watch the whole graph
 * for stalls from the monitor thread. Off by default — with enabled ==
 * false a kernel exception cancels the graph exactly as the unsupervised
 * runtime does (the scheduler still aggregates every failure into
 * graph_error either way). The supervisor's history is the run report's
 * `supervision` section (run_options::stats_out), filled before exe()
 * throws too.
 */
struct supervision_options
{
    bool enabled{ false };

    /** Policy for kernels without an explicit set_restart_policy(). The
     *  default (max_restarts == 0) makes every failure terminal. */
    restart_policy default_restart{};

    /** @name watchdog (rides the monitor thread)
     * Zero graph-wide progress (no stream pushed or popped an element)
     * for longer than this deadline flags the graph as stalled; the
     * supervisor dumps per-kernel occupancy/rate diagnostics and cancels
     * the graph so blocked kernels wake with stream_aborted_exception
     * instead of hanging forever.
     * 0 disables the watchdog. It runs on the monitor's tick, which comes
     * every monitor_delta while a writer is parked on a queue that may
     * still grow (a writer that only spins does not count) or a resize
     * request is pending, and about once per max(monitor_delta, 1 ms)
     * otherwise, so a stall is noticed up to that much past the deadline.
     */
    ///@{
    std::chrono::nanoseconds watchdog_deadline{ 0 };
    ///@}
};

/**
 * Static analysis (src/analysis/): map::exe() runs the raft::analyze graph
 * linter over the assembled topology before any rewrite or allocation and
 * refuses to execute a graph with error-severity diagnostics (throwing
 * analysis_error, which aggregates them all). Warnings and notes never
 * block execution. Disable `enabled` to skip the pass entirely; call
 * raft::analyze() for a report without running the graph.
 */
struct analysis_options
{
    /** Run the linter inside exe(). */
    bool enabled{ true };
    /** Escalate warning diagnostics to fail the run too. */
    bool warnings_as_errors{ false };
};

struct run_options
{
    /** @name stream allocation */
    ///@{
    /** items; 0 = size by bytes, see initial_stream_capacity() */
    std::size_t initial_queue_capacity{ 0 };
    std::size_t max_queue_capacity{ 1u << 20 };   /**< growth cap (items) */
    ///@}

    /** @name dynamic optimization (monitor thread) */
    ///@{
    bool dynamic_resize{ true };
    std::chrono::nanoseconds monitor_delta{
        std::chrono::microseconds( 10 ) }; /**< the paper's δ            */
    /** Consecutive low-utilization windows before a shrink is attempted. */
    std::size_t shrink_hysteresis{ 64 };
    bool allow_shrink{ false };
    ///@}

    /** @name scheduling */
    ///@{
    scheduler_kind scheduler{ scheduler_kind::thread_per_kernel };
    std::size_t pool_threads{ 0 };  /**< 0 = hardware_concurrency          */
    ///@}

    /** @name automatic parallelization (§4.1) */
    ///@{
    bool enable_auto_parallel{ true };
    /** Replicas per clonable kernel; 0 = one per hardware thread. */
    std::size_t replication_width{ 0 };
    split_kind split_strategy{ split_kind::least_utilized };
    ///@}

    /** @name monitoring */
    ///@{
    /** Filled with the run report at teardown when non-null (which also
     *  starts the monitor thread, see monitor::start()): the stream
     *  statistics, plus a section per enabled elastic, supervision or
     *  telemetry subsystem. */
    runtime::perf_snapshot *stats_out{ nullptr };
    ///@}

    /** @name elastic runtime (online bottleneck adaptation) */
    ///@{
    elastic_options elastic{};
    ///@}

    /** @name fault tolerance (supervised execution & watchdog) */
    ///@{
    supervision_options supervision{};
    ///@}

    /** @name observability (runtime/telemetry/: tracer, metrics registry,
     *  Prometheus / Chrome-trace exporters) */
    ///@{
    telemetry_options telemetry{};
    ///@}

    /** @name static analysis (src/analysis/: exe()-time graph linter) */
    ///@{
    analysis_options analysis{};
    ///@}
};

/** Bytes a default-sized stream starts with: the low edge of the flat
 *  64 KB–4 MB optimum of the paper's Fig. 4 (bench/fig4_queue_size). */
inline constexpr std::size_t default_stream_bytes = 64 * 1024;
/** Slots a default-sized stream starts with at least, and a split
 *  adapter's lanes exactly. */
inline constexpr std::size_t default_stream_slots = 64;

/**
 * The first capacity, in elements, of a stream whose elements are
 * `element_size` bytes. map::exe() sizes every stream with it and
 * raft::analyze sums it around a cycle.
 *
 * A non-zero initial_queue_capacity is used as given. Otherwise the stream
 * gets the smallest power of two of at least default_stream_slots elements
 * that holds default_stream_bytes, cut to the largest power of two within
 * max_queue_capacity. A stream written by a split adapter keeps
 * default_stream_slots: the least-utilized split ranks its lanes by
 * backlog, so a deep lane would take segments before its replica's speed
 * is known. The monitor grows every stream from here as before.
 */
inline std::size_t initial_stream_capacity( const run_options &opts,
                                            const std::size_t element_size,
                                            const bool split_writer )
{
    if( opts.initial_queue_capacity != 0 )
    {
        return opts.initial_queue_capacity;
    }
    std::size_t slots = default_stream_slots;
    while( !split_writer && slots * element_size < default_stream_bytes )
    {
        slots <<= 1;
    }
    while( slots > 1 && slots > opts.max_queue_capacity )
    {
        slots >>= 1;
    }
    return slots;
}

} /** end namespace raft **/
