/**
 * scheduler.hpp — pluggable kernel schedulers (§4.1).
 *
 * "The initial scheduling algorithm for threads and processes is simply the
 * default thread-level scheduler provided by the underlying operating
 * system... RaftLib, of course, allows the substitution of any scheduler
 * desired."
 *
 *  - thread_scheduler: one OS thread per kernel (the paper's default).
 *    Kernels block inside port operations; end-of-stream surfaces as
 *    closed_port_exception, which the scheduler treats as completion.
 *  - pool_scheduler: cooperative worker pool — N workers sweep the kernel
 *    set; a ready kernel keeps its worker while ready() holds, up to a
 *    fixed quantum of run() calls. A research alternative
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

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "core/exceptions.hpp"
#include "core/kernel.hpp"
#include "core/options.hpp"
#include "mapping/machine.hpp"

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
     * fully drained. `assign` (optional) maps kernel index → core id for
     * affinity pinning. Throws graph_error naming every kernel that failed
     * terminally, after all kernels have been shut down.
     */
    virtual void execute( const std::vector<kernel *> &kernels,
                          const run_options &opts,
                          const mapping::assignment *assign,
                          const mapping::machine_desc &machine ) = 0;

    /** Supervised execution: attach before execute(); may stay null. */
    void set_supervisor( runtime::supervisor *s ) noexcept { sup_ = s; }

protected:
    runtime::supervisor *sup_{ nullptr };
};

class thread_scheduler final : public ischeduler
{
public:
    void execute( const std::vector<kernel *> &kernels,
                  const run_options &opts,
                  const mapping::assignment *assign,
                  const mapping::machine_desc &machine ) override;
};

namespace detail {
struct exec_context;
} /** end namespace detail **/

class pool_scheduler final : public ischeduler
{
public:
    void execute( const std::vector<kernel *> &kernels,
                  const run_options &opts,
                  const mapping::assignment *assign,
                  const mapping::machine_desc &machine ) override;

private:
    static bool pool_retry( kernel &k, detail::exec_context &ctx,
                            const std::string &what,
                            std::atomic<std::int64_t> &retry_at );
};

std::unique_ptr<ischeduler> make_scheduler( scheduler_kind kind );

namespace detail {

/**
 * Shared failure/cancellation state for one execute() call. Scheduler
 * threads record terminal failures here; the first one (or the watchdog)
 * triggers graph-wide cancellation: every stream is aborted so blocked
 * push/pop/window claims wake with stream_aborted_exception, and raft::term
 * is raised on the bus.
 */
struct exec_context
{
    const std::vector<kernel *> *kernels{ nullptr };
    runtime::supervisor *sup{ nullptr };
    std::atomic<bool> cancelled{ false };

    /** Record a terminal failure for kernel k and cancel the graph. */
    void fail( const kernel &k, const std::string &what );
    /** Same, for failures with no kernel (e.g. the watchdog). */
    void fail_named( const std::string &name, const std::string &what );
    /** Cancel without recording a failure (idempotent). */
    void cancel();
    /** Throw graph_error aggregating every recorded failure, if any. */
    void throw_if_failed();

private:
    std::mutex mutex_;
    std::vector<failure_info> failures_;
};

/**
 * Drive one kernel to completion (thread scheduler body): loop run() until
 * raft::stop, closed_port_exception, or a bus termination request. Any
 * other exception consults the supervisor (restart in place while the
 * kernel's policy allows) and is otherwise recorded in ctx as a terminal
 * failure, cancelling the graph. Afterwards the kernel's streams are
 * closed on both sides.
 */
void kernel_loop( kernel &k, exec_context &ctx );

/** Close all bound streams of a completed kernel (outputs for writing,
 *  inputs for reading). */
void close_kernel_streams( kernel &k );

} /** end namespace detail **/

} /** end namespace raft **/
