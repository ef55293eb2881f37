/**
 * scheduler.hpp — pluggable kernel schedulers (§4.1).
 *
 * "The initial scheduling algorithm for threads and processes is simply the
 * default thread-level scheduler provided by the underlying operating
 * system... RaftLib, of course, allows the substitution of any scheduler
 * desired."
 *
 * Both are policies over one dispatch (scheduler.cpp): run up to
 * dispatch_budget run() calls of one kernel, with one termination check,
 * one telemetry accounting pair, one exception ladder and one restart
 * decision.
 *  - thread_scheduler: one OS thread per kernel (the paper's default).
 *    Each thread dispatches its kernel in a loop; kernels block inside
 *    port operations, and end-of-stream surfaces as
 *    closed_port_exception, which the scheduler treats as completion.
 *  - pool_scheduler: cooperative worker pool — N workers sweep the kernel
 *    set and dispatch each ready kernel, which keeps its worker while
 *    ready() holds. A reduce adapter is dispatched inside the claim of
 *    the kernel that reads its output, just before it. A worker whose
 *    sweeps find nothing to run parks until another dispatch makes
 *    progress. A research alternative
 *    ("straightforward to substitute with new algorithms").
 *
 * When a kernel completes, the scheduler closes its output streams for
 * writing (end-of-stream propagates downstream) and its input streams for
 * reading (blocked upstream producers terminate instead of deadlocking).
 *
 * Failure semantics (fault tolerance): a kernel whose run() throws a
 * non-control-flow exception either restarts in place (supervised runs,
 * while its restart_policy allows) or fails terminally. A terminal failure
 * cancels the whole graph deterministically — every stream is poisoned so
 * blocked peers wake with stream_aborted_exception, raft::term is raised on
 * the bus — and after every kernel has shut down, execute() throws a
 * graph_error aggregating EVERY terminal failure (not just the first).
 */
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/exceptions.hpp"
#include "core/kernel.hpp"
#include "core/options.hpp"

namespace raft {

namespace runtime {
class supervisor;
} /** end namespace runtime **/

class ischeduler
{
public:
    virtual ~ischeduler() = default;

    /**
     * Run every kernel to completion; returns when the application has
     * fully drained. Throws graph_error naming every kernel that failed
     * terminally, after all kernels have been shut down.
     */
    virtual void execute( const std::vector<kernel *> &kernels,
                          const run_options &opts ) = 0;

    /** Supervised execution: attach before execute(); may stay null. */
    void set_supervisor( runtime::supervisor *s ) noexcept { sup_ = s; }

protected:
    runtime::supervisor *sup_{ nullptr };
};

class thread_scheduler final : public ischeduler
{
public:
    void execute( const std::vector<kernel *> &kernels,
                  const run_options &opts ) override;
};

class pool_scheduler final : public ischeduler
{
public:
    void execute( const std::vector<kernel *> &kernels,
                  const run_options &opts ) override;
};

std::unique_ptr<ischeduler> make_scheduler( scheduler_kind kind );

namespace detail {

/**
 * run() calls per dispatch, on both schedulers. The pool runs a claimed
 * kernel while ready() holds, up to this many calls; a thread worker runs
 * its kernel this many calls back to back. raft::term, cancellation and
 * the "kernel.run" injection site are checked once per dispatch, and the
 * telemetry clock pair is paid once per dispatch, so a raised raft::term
 * stops a kernel within this many run() calls.
 */
inline constexpr std::size_t dispatch_budget = 64;

} /** end namespace detail **/

} /** end namespace raft **/
