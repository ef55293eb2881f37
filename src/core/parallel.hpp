/**
 * parallel.hpp — automatic parallelization (§4.1).
 *
 * "Automatic parallelization of candidate kernels is accomplished by
 * analyzing the graph for segments that can be replicated preserving the
 * application's semantics (indicated by the user at link time with template
 * parameters). There are default split and reduce adapters that are
 * inserted where needed. Custom split reduce objects can be created by the
 * user by extending the default split / reduce objects."
 *
 * A kernel is a replication candidate when it supports clone() and every
 * stream touching it was linked with raft::out. The rewrite replaces
 *
 *        u ──> k ──> v        with        u ─> split ─> k₀..k_{W-1} ─> reduce ─> v
 *
 * for W replicas. Both adapters are type-erased: they move elements between
 * same-typed streams through fifo_base::try_transfer_n, so one
 * implementation serves every element type.
 */
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/defs.hpp"
#include "core/graph.hpp"
#include "core/kernel.hpp"
#include "core/split_strategy.hpp"

namespace raft {

/**
 * Default split adapter: one input, W outputs, distribution order decided
 * by a split_strategy (round-robin / least-utilized / user-supplied).
 * Extend and override route() for custom distribution.
 *
 * Elastic runtime support: the adapter routes only to the first
 * `active()` of its `width()` lanes. Both the active-lane count and the
 * split strategy can be changed mid-run from another thread (the elastic
 * controller on the monitor thread) through set_active() /
 * request_strategy(); requests are single atomic stores, applied by the
 * split's own thread at its next run() quantum, so the routing state
 * itself stays single-threaded. Retiring a lane is a quiesce: routing
 * stops immediately, queued elements drain through the still-live replica,
 * and no element is lost or duplicated.
 */
class split_kernel : public kernel
{
public:
    split_kernel( const detail::type_meta &meta,
                  const std::size_t width,
                  std::unique_ptr<split_strategy> strategy,
                  std::size_t initial_active = 0 /** 0 = all lanes **/ );

    kstatus run() override;
    bool ready() const override;

    /** @name elastic actuation (any thread) */
    ///@{
    std::size_t width() const noexcept { return width_; }
    std::size_t active() const noexcept
    {
        return active_.load( std::memory_order_acquire );
    }
    /** Route to lanes [0, n) from the next run() quantum on (clamped to
     *  [1, width]). Shrinking quiesces the retired lanes: queued elements
     *  drain through their replicas, which then idle until end-of-stream. */
    void set_active( std::size_t n ) noexcept
    {
        if( n < 1 )
        {
            n = 1;
        }
        if( n > width_ )
        {
            n = width_;
        }
        active_.store( n, std::memory_order_release );
    }
    /** Swap the distribution strategy at the next run() quantum. */
    void request_strategy( const split_kind kind ) noexcept
    {
        requested_strategy_.store( static_cast<int>( kind ),
                                   std::memory_order_release );
    }
    const char *strategy_name() const { return strategy_->name(); }
    /** Whether the current strategy fixes each element's destination
     *  (strict round-robin dealing) — the precondition for the elastic
     *  controller's least-utilized retune. */
    bool strategy_strict() const { return strategy_->strict(); }
    ///@}

protected:
    /** Move up to `adapter_burst` elements from `in` to one of `outs`
     *  (strict strategies deal exactly one to keep the sequence); returns
     *  the number moved, 0 when no output could accept any. Override for
     *  custom split behaviour. */
    virtual std::size_t route( fifo_base &in,
                               std::vector<fifo_base *> &outs );

private:
    std::vector<fifo_base *> &cached_outputs();
    /** Apply pending actuation requests; returns the lanes to route to
     *  (prefix [0, active) of the output cache). */
    std::vector<fifo_base *> &routable_outputs();

    port &in_;
    std::size_t width_;
    std::unique_ptr<split_strategy> strategy_;
    std::vector<fifo_base *> outs_cache_;
    std::vector<fifo_base *> active_cache_;
    std::size_t cached_active_{ 0 };
    std::optional<std::size_t> pending_choice_;
    detail::backoff idle_;

    /** cross-thread actuation mailboxes (elastic controller → split) **/
    std::atomic<std::size_t> active_;
    std::atomic<int> requested_strategy_{ -1 };
};

/**
 * Default reduce adapter: W inputs, one output, draining inputs in
 * round-robin scan order. Completes when every input stream has drained.
 * Extend and override merge() for custom reduction.
 */
class reduce_kernel : public kernel
{
public:
    reduce_kernel( const detail::type_meta &meta, std::size_t width );

    kstatus run() override;
    bool ready() const override;

protected:
    /** Move up to `adapter_burst` elements from some input to `out` under a
     *  single handshake pair; returns the number moved, 0 when no input had
     *  data. Override for custom merge behaviour. */
    virtual std::size_t merge( std::vector<fifo_base *> &ins,
                               fifo_base &out );

private:
    std::vector<fifo_base *> &cached_inputs();

    port &out_;
    std::size_t scan_{ 0 };
    std::vector<fifo_base *> ins_cache_;
    detail::backoff idle_;
};

/**
 * Arithmetic type-conversion adapter, spliced in by the map's type checker
 * when two linked ports carry different arithmetic types (§4.2: "the
 * run-time selects the narrowest convertible type for each link type and
 * casts the types at each endpoint"). Values are routed through double,
 * which is exact for every integer of ≤ 53 bits magnitude and for float.
 */
class convert_kernel : public kernel
{
public:
    convert_kernel( const detail::type_meta &in_meta,
                    const detail::type_meta &out_meta );

    kstatus run() override;

private:
    port &in_;
    port &out_;
    detail::backoff idle_;
};

/**
 * One replicated kernel's runtime handles, recorded by the rewrite for the
 * elastic controller: the split adapters feeding the replica lanes (one per
 * original inbound edge), the reduce adapters merging them, and the replica
 * kernels themselves (index 0 is the original).
 */
struct replica_group
{
    std::string kernel_name;
    std::vector<split_kernel *> splits;
    std::vector<reduce_kernel *> reduces;
    std::vector<kernel *> replicas;
};

/**
 * Rewrite pass applied by map::exe() when run_options::enable_auto_parallel
 * is set. `width` is the replica count (usually the core count). Newly
 * created adapters and clones are appended to `owned` so the map can delete
 * them at destruction. Returns the number of kernels replicated.
 *
 * `initial_active` (0 = all) pre-provisions `width` lanes but routes only
 * the first initial_active of them — the elastic runtime's starting point.
 * When `groups` is non-null, one replica_group per replicated kernel is
 * appended for controller registration.
 */
std::size_t apply_auto_parallel(
    topology &topo,
    std::size_t width,
    split_kind strategy,
    std::vector<std::unique_ptr<kernel>> &owned,
    std::size_t initial_active           = 0,
    std::vector<replica_group> *groups   = nullptr );

/**
 * Type-check every edge; splice convert_kernel where both endpoint types
 * are arithmetic but different; throw link_type_exception otherwise.
 */
void apply_type_conversions(
    topology &topo,
    std::vector<std::unique_ptr<kernel>> &owned );

} /** end namespace raft **/
