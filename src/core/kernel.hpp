/**
 * kernel.hpp — raft::kernel, the unit of computation.
 *
 * "A new compute kernel is defined by extending raft::kernel" (§4.2,
 * Figure 2): declare ports in the constructor, implement run() — the
 * kernel's "main" function, called repeatedly by the scheduler. Kernels are
 * sequential; the runtime supplies the parallelism.
 *
 * Kernels that can safely process streams out of order additionally
 * implement clone() (returning a fresh instance with identical
 * configuration); the runtime may then replicate them behind split/reduce
 * adapters when their links are marked raft::out (§4.1).
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "core/defs.hpp"
#include "core/kstatus.hpp"
#include "core/port.hpp"
#include "core/restart.hpp"
#include "core/signal.hpp"

namespace raft {

namespace telemetry {
struct kernel_probe;
} /** end namespace telemetry **/

class kernel
{
public:
    kernel();
    virtual ~kernel() = default;

    kernel( const kernel & )            = delete;
    kernel &operator=( const kernel & ) = delete;

    /**
     * One scheduling quantum of work. Return raft::proceed to be scheduled
     * again, raft::stop when finished (sources). Blocking on a drained
     * input throws closed_port_exception, which the scheduler treats as
     * completion — kernels need no explicit end-of-stream logic.
     *
     * Contract for the cooperative pool scheduler: one invocation should
     * consume at most one element per input port and produce at most one
     * per output port, or check for space before each further push, so
     * that what ready() saw covers the whole run() (all standard kernels
     * obey this; the default thread-per-kernel scheduler imposes no such
     * limit).
     */
    virtual kstatus run() = 0;

    /** @name replication (automatic parallelization, §4.1) */
    ///@{
    virtual bool clone_supported() const { return false; }
    /** Fresh kernel equivalent to this one; nullptr if not clonable. */
    virtual kernel *clone() const { return nullptr; }
    ///@}

    /** @name supervised execution (fault tolerance)
     * Effective only when run_options::supervision.enabled; otherwise any
     * run() exception is terminal, exactly as before.
     */
    ///@{
    /** Per-kernel restart policy; kernels without an explicit policy use
     *  supervision_options::default_restart. */
    void set_restart_policy( const restart_policy &p ) noexcept
    {
        restart_    = p;
        has_restart_ = true;
    }
    /** The explicit policy, or nullptr when none was set. */
    const restart_policy *restart() const noexcept
    {
        return has_restart_ ? &restart_ : nullptr;
    }
    /** Hook invoked (on the kernel's scheduler thread) right before a
     *  supervised restart re-enters run(): reset any internal state a
     *  half-finished invocation may have left behind. Ports are still
     *  bound and their streams still live. */
    virtual void on_restart() {}
    ///@}

    /**
     * Pool-scheduler readiness contract: true only when one run() will
     * neither block on input nor on output. The pool keeps a ready kernel
     * on its worker for up to a fixed quantum of run() calls, re-checking
     * ready() between them; a run() that blocks holds that worker, and
     * with one worker the peer that would unblock it never runs.
     * Default: every input port has at least one element (or is drained,
     * so run() terminates immediately) and every output port has space.
     * Override when run() touches fewer ports than it declares (adapters
     * that serve one lane per call) or buffers input across calls.
     */
    virtual bool ready() const;

    /** @name static-analysis hints (src/analysis/, raft::analyze)
     * Whole-graph properties the linter cannot derive from the code are
     * declared here. Defaults are the permissive common case; override to
     * opt in to the stricter checks.
     */
    ///@{
    /** Replication behind split/reduce adapters delivers elements to the
     *  replicas out of order. A kernel whose output depends on input
     *  arrival order (running aggregates, deduplication, sequence
     *  numbering) should return true so raft::analyze can flag it when a
     *  raft::out link would place it inside a replica lane. */
    virtual bool order_sensitive() const { return false; }
    /** True when the kernel is safe to restart in place: it either holds
     *  no cross-invocation state or overrides on_restart() to reset it.
     *  raft::analyze warns when a restart policy is attached to a kernel
     *  that does not declare this. */
    virtual bool restart_safe() const { return false; }
    ///@}

    /** @name ports */
    ///@{
    port_container input{ port_dir::in };
    port_container output{ port_dir::out };
    ///@}

    /** @name identity & runtime wiring */
    ///@{
    std::size_t get_id() const noexcept { return id_; }

    /** Diagnostic name: explicit hint or the demangled dynamic type. */
    std::string name() const;
    void set_name( std::string n ) { name_hint_ = std::move( n ); }

    /** Asynchronous signal bus of the running application (may be null
     *  outside exe()); see signal.hpp. */
    async_signal_bus *bus() const noexcept { return bus_; }
    void set_bus( async_signal_bus *b ) noexcept { bus_ = b; }

    /** Telemetry probe attached by the active telemetry session (null
     *  when telemetry is off — schedulers branch on the raw pointer, so
     *  the disabled path is a single load). */
    telemetry::kernel_probe *probe() const noexcept { return probe_; }
    void set_probe( telemetry::kernel_probe *p ) noexcept { probe_ = p; }
    ///@}

    /**
     * Factory used throughout the paper's examples:
     * `kernel::make< sum< a,b,c > >()`. Kernels created this way are
     * adopted (and eventually deleted) by the map they are linked into.
     */
    template <class K, class... Args> static K *make( Args &&...args )
    {
        auto *k = new K( std::forward<Args>( args )... );
        static_cast<kernel *>( k )->internal_alloc_ = true;
        return k;
    }

    bool internally_allocated() const noexcept { return internal_alloc_; }

protected:
    /** @name building blocks for ready() overrides */
    ///@{
    /** Every output has space or has lost its reader. */
    bool outputs_writable() const;
    /** Some input holds an element, or every input has drained: the test
     *  for kernels that take from whichever input has data (merges). */
    bool any_input_ready() const;
    ///@}

private:
    std::size_t id_;
    std::string name_hint_;
    bool internal_alloc_{ false };
    async_signal_bus *bus_{ nullptr };
    telemetry::kernel_probe *probe_{ nullptr };
    restart_policy restart_{};
    bool has_restart_{ false };
};

/** Returned by map::link (Figure 3): references to the two kernels joined
 *  by the call, "so that they may be referenced in subsequent link calls." */
struct kernel_pair
{
    kernel &src;
    kernel &dst;
};

} /** end namespace raft **/
