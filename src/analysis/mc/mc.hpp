/**
 * mc.hpp — a stateless software model checker for the runtime's lock-free
 * protocols.
 *
 * TSan can only flag interleavings it happens to observe; this harness
 * *enumerates* them. Protocol code is written against mc::atomic<T> — an
 * instrumented shim over plain values — and handed to mc::explore(), which
 * runs the threads under a deterministic cooperative scheduler: every
 * atomic operation is a scheduling point, exactly one thread runs between
 * points, and a depth-first search over the scheduling decisions replays
 * the program until every (pruned) interleaving has been seen.
 *
 * Pruning is sleep sets — the DPOR-lite half of Flanagan/Godefroid's
 * partial-order reduction: after a branch at a state is fully explored, the
 * explored action is put to sleep for the sibling branches and only woken
 * by a conflicting action, so commuting schedules are walked once.
 * Conflicts are judged at the state where the two actions meet: same
 * thread (except a thread's flush against its own loads), or one commits
 * a value to an object the other touches, or it commits to an object a
 * blocked thread is waiting on. A store that only enters its thread's
 * buffer commits nothing — its flush does. Sound for safety properties;
 * no violation is missed.
 *
 * Weak memory is simulated with bounded store buffers (options.store_buffer
 * entries per thread, TSO-style): relaxed/release stores enter the owning
 * thread's FIFO buffer and become visible only when a scheduler-chosen
 * flush action (or a seq_cst store / RMW on the same thread, which drains
 * first) commits them; loads forward from the thread's own buffer. This is
 * exactly the store→load reordering x86 exhibits — strong enough to prove
 * a Dekker handshake needs its seq_cst fence and to catch the variant that
 * drops it, while staying a sound subset of the C++ memory model's
 * behaviours. The two halves of an asymmetric handshake are modelled too:
 * light_barrier() (a compiler-only fence) orders nothing this model can
 * reorder, and heavy_barrier() (membarrier) drains every thread's buffer.
 *
 * Checked properties: mc::check() assertions inside protocol code, a
 * per-execution verify() over final state, deadlock (every unfinished
 * thread waiting on a commit that can never come) and livelock (step
 * bound). Violations carry the full decision trace for replay-by-eye.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace raft {
namespace mc {

inline constexpr int max_threads = 4;

enum class op : std::uint8_t
{
    load,
    store,
    rmw,
    flush, /**< commit the oldest buffered store of one thread */
    block, /**< thread waits for a commit by another thread */
    fence  /**< heavy barrier: commit every thread's buffered stores */
};

/** One scheduling decision candidate / executed step. `actor` is a thread
 *  id for thread ops, max_threads + t for "flush thread t's buffer". */
struct action
{
    int actor{ 0 };
    op kind{ op::load };
    const void *obj{ nullptr };
    const char *name{ "" };
    int order{ 0 };        /**< std::memory_order of the op */
    long long value{ 0 };  /**< traced value / blocked-seq snapshot */
};

/** Thrown into workers to unwind the current execution (violation found,
 *  branch pruned, deadlock). Model code must let it propagate. */
struct execution_aborted
{
};

namespace detail {

/** Engine hooks the header-only atomic shim calls; implemented by the
 *  explorer in mc.cpp. Valid only inside mc::explore(). */
struct engine_iface
{
    virtual ~engine_iface() = default;
    /** Announce the next visible op and park until this thread is granted
     *  the step; throws execution_aborted when the execution is being
     *  unwound. On return the thread owns the step: it performs the
     *  operation's effect and keeps running to its next arrive(). */
    virtual void arrive( const action &a ) = 0;
    /** Attach the observed/committed value to the step just granted (for
     *  violation traces). */
    virtual void log_value( long long v ) = 0;
    /** @name store-buffer plumbing (call only while owning the step) */
    ///@{
    virtual bool buffering() const = 0;
    virtual void buffer_store( const void *obj, const char *name,
                               std::function<void()> commit,
                               long long traced ) = 0;
    /** Commit every buffered store of the calling thread, oldest first. */
    virtual void flush_own() = 0;
    /** Commit every thread's buffered stores (heavy barrier). */
    virtual void flush_all() = 0;
    /** A memory mutation became visible (direct store / RMW). */
    virtual void bump_commit() = 0;
    ///@}
    /** Position in the execution's commit log (blocked-thread wakeups). */
    virtual std::uint64_t commit_mark() const = 0;
    /** Record a violation and unwind the execution (throws). */
    [[noreturn]] virtual void fail( const std::string &msg ) = 0;
    virtual int tid() const = 0;
};

extern engine_iface *g; /**< active engine during explore() */

template <class T> long long traced_value( const T &v )
{
    if constexpr( std::is_convertible_v<T, long long> )
    {
        return static_cast<long long>( v );
    }
    else
    {
        return 0;
    }
}

} /** end namespace detail **/

/**
 * The instrumented atomic. Same surface as std::atomic for the operations
 * the runtime's protocols use; every call is a scheduling point. Not
 * actually atomic — the scheduler serializes all access.
 */
template <class T> class atomic
{
public:
    explicit atomic( T init = T{}, const char *name = "atomic" )
        : mem_( init ), name_( name )
    {
    }

    atomic( const atomic & )            = delete;
    atomic &operator=( const atomic & ) = delete;

    /** label used in violation traces (for array members constructed
     *  without one) */
    void set_name( const char *n ) noexcept { name_ = n; }

    /** @name between-executions access (reset closures, verify) — no
     *  scheduling point, must not race live workers */
    ///@{
    void raw_reset( T v )
    {
        mem_ = v;
        for( auto &p : pending_ )
        {
            p.clear();
        }
    }
    T raw_get() const { return mem_; }
    ///@}

    T load( const std::memory_order o = std::memory_order_seq_cst )
    {
        auto *e = detail::g;
        e->arrive( action{ e->tid(), op::load, this, name_,
                           static_cast<int>( o ), 0 } );
        auto &mine = pending_[ static_cast<std::size_t>( e->tid() ) ];
        /** store-to-load forwarding: a thread always sees its own newest
         *  buffered store */
        const T v = mine.empty() ? mem_ : mine.back();
        e->log_value( detail::traced_value( v ) );
        return v;
    }

    void store( T v, const std::memory_order o = std::memory_order_seq_cst )
    {
        auto *e = detail::g;
        e->arrive( action{ e->tid(), op::store, this, name_,
                           static_cast<int>( o ),
                           detail::traced_value( v ) } );
        const auto t = static_cast<std::size_t>( e->tid() );
        if( e->buffering() && o != std::memory_order_seq_cst )
        {
            pending_[ t ].push_back( v );
            e->buffer_store(
                this, name_,
                [ this, t ]()
                {
                    mem_ = pending_[ t ].front();
                    pending_[ t ].erase( pending_[ t ].begin() );
                },
                detail::traced_value( v ) );
        }
        else
        {
            /** seq_cst (or SC mode): drain own buffer, then commit — the
             *  full-fence behaviour the Dekker handshake relies on */
            e->flush_own();
            mem_ = v;
            e->bump_commit();
        }
    }

    T exchange( T v, const std::memory_order o = std::memory_order_seq_cst )
    {
        return rmw( v, o, [ v ]( const T ) { return v; } );
    }

    T fetch_add( T d, const std::memory_order o = std::memory_order_seq_cst )
    {
        return rmw( d, o, [ d ]( const T old ) {
            return static_cast<T>( old + d );
        } );
    }

    T fetch_or( T b, const std::memory_order o = std::memory_order_seq_cst )
    {
        return rmw( b, o, [ b ]( const T old ) { return old | b; } );
    }

    T fetch_and( T b, const std::memory_order o = std::memory_order_seq_cst )
    {
        return rmw( b, o, [ b ]( const T old ) { return old & b; } );
    }

    bool compare_exchange_strong(
        T &expected, T desired,
        const std::memory_order o = std::memory_order_seq_cst )
    {
        auto *e = detail::g;
        e->arrive( action{ e->tid(), op::rmw, this, name_,
                           static_cast<int>( o ),
                           detail::traced_value( desired ) } );
        e->flush_own();
        if( mem_ == expected )
        {
            mem_ = desired;
            e->bump_commit();
            return true;
        }
        expected = mem_;
        return false;
    }

private:
    /** a read-modify-write: drains the thread's buffer, then commits */
    template <class F>
    T rmw( const T operand, const std::memory_order o, F next )
    {
        auto *e = detail::g;
        e->arrive( action{ e->tid(), op::rmw, this, name_,
                           static_cast<int>( o ),
                           detail::traced_value( operand ) } );
        e->flush_own();
        const T old = mem_;
        mem_        = next( old );
        e->bump_commit();
        return old;
    }

    T mem_;
    const char *name_;
    /** per-thread buffered (not yet committed) stores to this object, in
     *  store order — the forwarding view */
    std::array<std::vector<T>, max_threads> pending_{};
};

/**
 * Retry loop helper: `mc::retry_guard g; while( !try_op() ) g.wait();`.
 * wait() parks the thread until some *other* thread commits a store to an
 * mc::atomic the thread loaded since the snapshot — a failed attempt is a
 * function of the values it read, so it can only start succeeding after
 * one of them changes. (Retry conditions must therefore depend on mc
 * atomics, not on plain fields.) The snapshot is taken before each attempt,
 * so a commit racing the attempt wakes the thread again (spurious wakeups
 * are safe; missed wakeups are not). The explorer flags deadlock when every
 * unfinished thread is parked here with no such commit pending anywhere.
 */
class retry_guard
{
public:
    retry_guard()
        : t_( detail::g->tid() ),
          seq_( detail::g->commit_mark() )
    {
    }

    void wait()
    {
        detail::g->arrive( action{ t_, op::block, nullptr, "blocked", 0,
                                   static_cast<long long>( seq_ ) } );
        seq_ = detail::g->commit_mark();
    }

private:
    int t_;
    std::uint64_t seq_;
};

/**
 * The heavy half of an asymmetric barrier pair (Linux membarrier, see
 * raft::detail::heavy_barrier): every thread executes a full fence, so
 * every store buffered anywhere becomes visible before the caller's next
 * operation. The buffers drain in thread order; if two threads had
 * buffered stores to one object at the barrier, the other commit orders
 * would go unexplored (the ring model never does). Under store buffering
 * it is a scheduling point; under sequential consistency it has no effect
 * and is not one.
 */
inline void heavy_barrier()
{
    auto *e = detail::g;
    if( !e->buffering() )
    {
        return; /** sequential consistency: nothing to drain **/
    }
    e->arrive( action{ e->tid(), op::fence, nullptr, "heavy_barrier",
                       static_cast<int>( std::memory_order_seq_cst ), 0 } );
    e->flush_all();
}

/**
 * The light half: std::atomic_signal_fence(seq_cst), a compiler-only fence
 * that keeps a store before a later load in the emitted code. The model
 * already executes each thread in program order and reorders only through
 * store buffers, which a compiler fence does not drain — so it is a no-op
 * here, kept so model code reads like the code it mirrors.
 */
inline void light_barrier() noexcept {}

/** Protocol assertion: on failure records a violation (with the decision
 *  trace) and unwinds the execution. */
inline void check( const bool cond, const char *msg )
{
    if( !cond )
    {
        detail::g->fail( msg );
    }
}

struct options
{
    /** DFS bound: executions explored before giving up (result.complete
     *  tells whether the tree was exhausted). */
    long max_executions{ 200000 };
    /** Per-execution step bound; exceeding it is a livelock violation. */
    int max_steps{ 20000 };
    /** Buffered stores per thread (TSO simulation); 0 = sequential
     *  consistency (every store commits immediately). */
    int store_buffer{ 0 };
    /** Stop the search at the first violation (faster for
     *  expected-to-fail variants). */
    bool stop_on_violation{ true };
};

struct violation
{
    std::string message;
    std::vector<std::string> trace; /**< formatted steps, in order */
};

struct result
{
    long executions{ 0 };
    long long steps{ 0 };
    std::vector<violation> violations;
    /** True when the (sleep-set-pruned) interleaving tree was fully
     *  explored within max_executions. */
    bool complete{ false };

    bool ok() const noexcept { return violations.empty(); }
    std::string summary() const;
};

/**
 * Exhaustively explore the interleavings of `threads` (at most max_threads
 * bodies). `reset` re-initializes all shared model state before each
 * execution (raw_reset on every mc::atomic); `verify`, when given, runs
 * after each completed execution with a `fail` callback to flag bad final
 * states. Bodies must be deterministic given the schedule and touch shared
 * state only through mc primitives.
 */
result explore(
    const options &opt,
    const std::function<void()> &reset,
    const std::vector<std::function<void()>> &threads,
    const std::function<void(
        const std::function<void( const std::string & )> & )> &verify = {} );

} /** end namespace mc **/
} /** end namespace raft **/
