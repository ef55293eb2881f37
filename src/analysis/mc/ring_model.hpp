/**
 * ring_model.hpp — the core ring buffer's lock-free protocol,
 * re-instantiated over mc::atomic so mc::explore() can model-check it.
 *
 * Each model operation corresponds to one path of src/core/ringbuffer.hpp,
 * where every typed operation wraps one claim/commit pair per end:
 *
 *   - try_push    = claim_write( 1, no wait ), one slot built,
 *                   commit_write( 1 ) (ring_buffer::try_push);
 *   - push        = the same with wait: a full ring parks as await_space
 *                   does (ring_buffer::push);
 *   - try_pop     = claim_read( 1, 1, no wait ), one element taken,
 *                   commit_read( 1 ), then await_data's abort-then-drained
 *                   check on a miss (ring_buffer::try_pop / pop);
 *   - pop         = the same with wait, parking as await_data does;
 *   - try_resize  = ring_buffer::resize();
 *   - close_write / abort = the ring's lifecycle calls.
 *
 * Windows, recycle and transfers run the same pair with n > 1; the model
 * covers the pair at n = 1, not the n > 1 index arithmetic. It keeps:
 *
 *   - monotonic head_/tail_ counters, release publication, relaxed reads
 *     of the own end;
 *   - shadow-index caching: each end keeps a plain cached copy of the
 *     opposite counter and re-reads the real one only when the cache
 *     implies full/empty;
 *   - the asymmetric Dekker resize handshake: an end announces itself with
 *     a relaxed store to prod_op_/cons_op_, a light (compiler-only)
 *     barrier, and an acquire load of gate_; the monitor stores gate_,
 *     issues a heavy barrier (membarrier: every thread's store buffer
 *     drains) and waits for both op flags to clear. Elements are relocated
 *     unwrapped to index 0, the shadow caches are re-seeded while the ends
 *     are parked, and gate_ is released. ring_opts::symmetric selects the
 *     platform fallback instead: seq_cst store/load on the ends, a seq_cst
 *     gate store on the monitor;
 *   - abort() poisons the stream; the flag is checked only on blocked
 *     paths, and *before* the drained (write_closed + empty) check, so a
 *     cancelled graph can never be mistaken for a cleanly drained one;
 *   - park/notify: a blocked end loads its sequence word, raises its bit
 *     in waiters_ (an RMW), issues the heavy barrier and re-checks; only
 *     if it still cannot proceed does it wait for the sequence word to
 *     change (a retry_guard that watches nothing else, so a lost wake-up
 *     is a deadlock). The waker, right after each index publication, runs
 *     the light barrier and one relaxed load of waiters_, and only when
 *     the peer's bit is up clears it and bumps the peer's sequence word.
 *     close_write(), abort() and a completed resize wake unconditionally.
 *     In the symmetric fallback the waker's seq_cst fence and relaxed load
 *     are modelled as one seq_cst fetch_or( 0 ) — on TSO the same drain
 *     followed by a load — and the parker's fence after its RMW is left
 *     out, since the RMW already drained its buffer;
 *
 * Differences from the real thing are strictly reductions: int elements,
 * power-of-two capacities up to max_cap, no signals/telemetry/timeout (the
 * model monitor parks on a retry_guard instead of a bounded spin — the
 * checker's deadlock detector replaces the timeout), no spin phase before
 * an end parks (spinning only re-runs the attempt: one that finds less
 * than the batch a spinning end wants fails as one that finds nothing
 * does, a path the model has), and the close_read wake-up is left out
 * (the model producer never sees a closed reader).
 *
 * Four knobs re-introduce real bugs for the checker to catch:
 *
 *   broken_dekker      — the symmetric fallback's seq_cst store/load pair
 *                        weakens to release/acquire. Under bounded store
 *                        reordering (options.store_buffer >= 1) the end's
 *                        announcement can sit in its store buffer while it
 *                        reads gate_ == false, so end and monitor enter
 *                        the critical section together and elements are
 *                        lost or duplicated during relocation.
 *   no_heavy_barrier   — the asymmetric handshake without the monitor's
 *                        heavy barrier (its gate store stays seq_cst).
 *                        The monitor's own fence cannot drain the end's
 *                        buffer, so the same corrupting interleaving
 *                        appears.
 *   broken_abort_order — try_pop checks drained before aborted. An
 *                        execution where abort() lands before close_write()
 *                        can then return EOS to a consumer that should
 *                        have observed the cancellation.
 *   no_park_barrier    — the parker skips its heavy barrier. The waker's
 *                        index store can then sit in its store buffer
 *                        while it reads waiters_ without the parker's bit,
 *                        and the parker's re-check misses the store: both
 *                        sides conclude the other will act, and the
 *                        parked end sleeps forever (a deadlock).
 */
#pragma once

#include <atomic>
#include <vector>

#include "analysis/mc/mc.hpp"

namespace raft {
namespace mc {

struct ring_opts
{
    bool broken_dekker{ false };      /**< implies the symmetric handshake */
    bool broken_abort_order{ false };
    bool no_heavy_barrier{ false };
    bool symmetric{ false }; /**< fallback when membarrier is missing */
    bool no_park_barrier{ false };
    /** a stream without the resize handshake (set_auto_resize( false )):
     *  the ends skip enter/exit; no try_resize() may run */
    bool static_stream{ false };
    /** a blocked end waits on a retry_guard over everything it read, and
     *  nobody checks waiter bits or wakes it. Any relevant commit resumes
     *  it — a superset of the wake-ups park/notify delivers — so proofs
     *  about the elements stay sound and far smaller; the park handshake
     *  itself is proved on its own (park_notify_* tests). */
    bool abstract_blocking{ false };
};

class model_ring
{
public:
    static constexpr unsigned max_cap = 8;

    enum class pop_status : std::uint8_t
    {
        got,
        empty,
        eos,
        aborted
    };

    explicit model_ring( const ring_opts o = {} )
        : o_( o ), head_( 0U, "head" ), tail_( 0U, "tail" ),
          capacity_( 2U, "capacity" ), mask_( 1U, "mask" ),
          gate_( false, "gate" ), prod_op_( false, "prod_op" ),
          cons_op_( false, "cons_op" ),
          write_closed_( false, "write_closed" ),
          aborted_( false, "aborted" ), waiters_( 0U, "waiters" ),
          prod_seq_( 0U, "prod_seq" ), cons_seq_( 0U, "cons_seq" )
    {
        for( auto &d : data_ )
        {
            d.set_name( "slot" );
        }
    }

    /** between-executions reset (called from explore()'s reset closure) */
    void reset( const unsigned cap )
    {
        head_.raw_reset( 0U );
        tail_.raw_reset( 0U );
        capacity_.raw_reset( cap );
        mask_.raw_reset( cap - 1U );
        for( auto &d : data_ )
        {
            d.raw_reset( 0 );
        }
        gate_.raw_reset( false );
        prod_op_.raw_reset( false );
        cons_op_.raw_reset( false );
        write_closed_.raw_reset( false );
        aborted_.raw_reset( false );
        waiters_.raw_reset( 0U );
        prod_seq_.raw_reset( 0U );
        cons_seq_.raw_reset( 0U );
        cached_head_ = 0U;
        cached_tail_ = 0U;
    }

    /** seed a (possibly wrapped) occupancy from a reset closure: `h` is
     *  the head index, `vals` the FIFO contents oldest-first. Call after
     *  reset(); the shadow caches are seeded to match. */
    void raw_seed( const unsigned h, const std::vector<int> &vals )
    {
        const auto m = mask_.raw_get();
        const auto n = static_cast<unsigned>( vals.size() );
        head_.raw_reset( h );
        tail_.raw_reset( h + n );
        for( unsigned i = 0U; i < n; ++i )
        {
            data_[ ( h + i ) & m ].raw_reset( vals[ i ] );
        }
        cached_head_ = h;
        cached_tail_ = h + n;
    }

    /** seed lifecycle flags as already-committed (reset closures only) */
    void raw_set_flags( const bool aborted, const bool write_closed )
    {
        aborted_.raw_reset( aborted );
        write_closed_.raw_reset( write_closed );
    }

    /** @name producer end */
    ///@{
    bool try_push( const int v )
    {
        enter_prod();
        const auto t   = tail_.load( std::memory_order_relaxed );
        const auto cap = capacity_.load( std::memory_order_relaxed );
        const auto h   = prod_head( t, cap );
        bool ok        = false;
        if( t - h < cap )
        {
            const auto m = mask_.load( std::memory_order_relaxed );
            data_[ t & m ].store( v, std::memory_order_relaxed );
            tail_.store( t + 1U, std::memory_order_release );
            notify( cons_bit );
            ok = true;
        }
        exit_prod();
        return ok;
    }

    /** blocking push; returns false when the stream was aborted while
     *  this end was blocked (mirrors await_space's abort check) */
    bool push( const int v )
    {
        retry_guard g;
        for( ;; )
        {
            if( try_push( v ) )
            {
                return true;
            }
            if( aborted_.load( std::memory_order_acquire ) )
            {
                return false;
            }
            if( o_.abstract_blocking )
            {
                g.wait();
                continue;
            }
            park( prod_bit, prod_seq_, [ this ]() {
                return tail_.load( std::memory_order_relaxed ) -
                               head_.load( std::memory_order_acquire ) <
                           capacity_.load( std::memory_order_relaxed ) ||
                       aborted_.load( std::memory_order_acquire );
            } );
        }
    }

    void close_write()
    {
        write_closed_.store( true, std::memory_order_release );
        wake( cons_bit );
    }

    void abort()
    {
        aborted_.store( true, std::memory_order_release );
        wake( prod_bit | cons_bit );
    }
    ///@}

    /** @name consumer end */
    ///@{
    pop_status try_pop( int &out )
    {
        enter_cons();
        const auto h = head_.load( std::memory_order_relaxed );
        const auto t = cons_tail( h );
        bool got     = false;
        if( t != h )
        {
            const auto m = mask_.load( std::memory_order_relaxed );
            out          = data_[ h & m ].load( std::memory_order_relaxed );
            head_.store( h + 1U, std::memory_order_release );
            notify( prod_bit );
            got = true;
        }
        exit_cons();
        if( got )
        {
            return pop_status::got;
        }
        if( !o_.broken_abort_order )
        {
            /** the real ordering: abort beats EOS on the blocked path */
            if( aborted_.load( std::memory_order_acquire ) )
            {
                return pop_status::aborted;
            }
            if( drained() )
            {
                return pop_status::eos;
            }
        }
        else
        {
            /** deliberately wrong: drained check first */
            if( drained() )
            {
                return pop_status::eos;
            }
            if( aborted_.load( std::memory_order_acquire ) )
            {
                return pop_status::aborted;
            }
        }
        return pop_status::empty;
    }

    /** blocking pop; never returns `empty` */
    pop_status pop( int &out )
    {
        retry_guard g;
        for( ;; )
        {
            const auto s = try_pop( out );
            if( s != pop_status::empty )
            {
                return s;
            }
            if( o_.abstract_blocking )
            {
                g.wait();
                continue;
            }
            park( cons_bit, cons_seq_, [ this ]() {
                return tail_.load( std::memory_order_acquire ) !=
                           head_.load( std::memory_order_relaxed ) ||
                       write_closed_.load( std::memory_order_acquire ) ||
                       aborted_.load( std::memory_order_acquire );
            } );
        }
    }
    ///@}

    /** @name monitor end — cooperative resize */
    ///@{
    bool try_resize( const unsigned new_cap )
    {
        if( symmetric() || o_.no_heavy_barrier )
        {
            gate_.store( true, std::memory_order_seq_cst );
        }
        else
        {
            gate_.store( true, std::memory_order_relaxed );
            mc::heavy_barrier();
        }
        {
            retry_guard g;
            while( prod_op_.load( std::memory_order_seq_cst ) ||
                   cons_op_.load( std::memory_order_seq_cst ) )
            {
                g.wait();
            }
        }
        /** both ends parked — exclusive access from here (that claim is
         *  the property under test) */
        const auto h = head_.load( std::memory_order_relaxed );
        const auto t = tail_.load( std::memory_order_relaxed );
        const auto n = t - h;
        if( new_cap < n || new_cap > max_cap )
        {
            gate_.store( false, std::memory_order_release );
            return false;
        }
        const auto old_m = mask_.load( std::memory_order_relaxed );
        int tmp[ max_cap ]{};
        for( unsigned i = 0U; i < n; ++i )
        {
            tmp[ i ] = data_[ ( h + i ) & old_m ].load(
                std::memory_order_relaxed );
        }
        /** relocate unwrapped into index 0 — the paper's efficient
         *  non-wrapped resize position */
        for( unsigned i = 0U; i < n; ++i )
        {
            data_[ i ].store( tmp[ i ], std::memory_order_relaxed );
        }
        head_.store( 0U, std::memory_order_relaxed );
        tail_.store( n, std::memory_order_relaxed );
        /** re-seed the shadow caches while the ends are parked */
        cached_head_ = 0U;
        cached_tail_ = n;
        capacity_.store( new_cap, std::memory_order_relaxed );
        mask_.store( new_cap - 1U, std::memory_order_relaxed );
        gate_.store( false, std::memory_order_release );
        wake( prod_bit | cons_bit );
        return true;
    }
    ///@}

    /** @name final-state inspection (verify closures only) */
    ///@{
    unsigned raw_size() const
    {
        return tail_.raw_get() - head_.raw_get();
    }
    /** i-th element counted from the head (final-state FIFO order) */
    int raw_at( const unsigned i ) const
    {
        return data_[ ( head_.raw_get() + i ) & mask_.raw_get() ]
            .raw_get();
    }
    bool raw_aborted() const { return aborted_.raw_get(); }
    ///@}

private:
    bool drained()
    {
        if( !write_closed_.load( std::memory_order_acquire ) )
        {
            return false;
        }
        const auto t = tail_.load( std::memory_order_acquire );
        const auto h = head_.load( std::memory_order_relaxed );
        return t == h;
    }

    /** producer's shadow of head_, refreshed only when the cache says
     *  full (mirrors ring_buffer::prod_head) */
    unsigned prod_head( const unsigned t, const unsigned cap )
    {
        auto h = cached_head_;
        if( t - h >= cap )
        {
            h            = head_.load( std::memory_order_acquire );
            cached_head_ = h;
        }
        return h;
    }

    /** consumer's shadow of tail_, refreshed only when the cache says
     *  empty (mirrors ring_buffer::cons_tail) */
    unsigned cons_tail( const unsigned h )
    {
        auto t = cached_tail_;
        if( t == h )
        {
            t            = tail_.load( std::memory_order_acquire );
            cached_tail_ = t;
        }
        return t;
    }

    /** @name Dekker handshake (mirrors ring_buffer::enter/leave) */
    ///@{
    bool symmetric() const { return o_.symmetric || o_.broken_dekker; }

    void enter( mc::atomic<bool> &op )
    {
        if( o_.static_stream )
        {
            return;
        }
        retry_guard g;
        for( ;; )
        {
            bool gated = false;
            if( !symmetric() )
            {
                op.store( true, std::memory_order_relaxed );
                mc::light_barrier();
                gated = gate_.load( std::memory_order_acquire );
            }
            else if( o_.broken_dekker )
            {
                op.store( true, std::memory_order_release );
                gated = gate_.load( std::memory_order_acquire );
            }
            else
            {
                op.store( true, std::memory_order_seq_cst );
                gated = gate_.load( std::memory_order_seq_cst );
            }
            if( !gated )
            {
                return;
            }
            op.store( false, std::memory_order_release );
            g.wait();
        }
    }

    /** @name park/notify (mirrors ring_buffer::block/notify/wake) */
    ///@{
    static constexpr unsigned prod_bit = 1U;
    static constexpr unsigned cons_bit = 2U;

    void notify( const unsigned peer )
    {
        if( o_.abstract_blocking )
        {
            return;
        }
        unsigned w = 0U;
        if( !symmetric() )
        {
            mc::light_barrier();
            w = waiters_.load( std::memory_order_relaxed );
        }
        else
        {
            w = waiters_.fetch_or( 0U, std::memory_order_seq_cst );
        }
        if( ( w & peer ) != 0U )
        {
            wake( peer );
        }
    }

    void wake( const unsigned ends )
    {
        if( o_.abstract_blocking )
        {
            return;
        }
        waiters_.fetch_and( ~ends, std::memory_order_relaxed );
        if( ( ends & prod_bit ) != 0U )
        {
            prod_seq_.fetch_add( 1U, std::memory_order_release );
        }
        if( ( ends & cons_bit ) != 0U )
        {
            cons_seq_.fetch_add( 1U, std::memory_order_release );
        }
    }

    template <class Ready>
    void park( const unsigned self, mc::atomic<unsigned> &seq, Ready ready )
    {
        const auto s = seq.load( std::memory_order_acquire );
        waiters_.fetch_or( self, std::memory_order_seq_cst );
        if( !symmetric() && !o_.no_park_barrier )
        {
            mc::heavy_barrier();
        }
        if( ready() )
        {
            waiters_.fetch_and( ~self, std::memory_order_relaxed );
            return;
        }
        /** std::atomic::wait: wakes only on a change of seq */
        retry_guard g;
        while( seq.load( std::memory_order_acquire ) == s )
        {
            g.wait();
        }
    }
    ///@}

    void enter_prod() { enter( prod_op_ ); }
    void exit_prod() { exit( prod_op_ ); }
    void enter_cons() { enter( cons_op_ ); }
    void exit_cons() { exit( cons_op_ ); }

    void exit( mc::atomic<bool> &op )
    {
        if( !o_.static_stream )
        {
            op.store( false, std::memory_order_release );
        }
    }
    ///@}

    const ring_opts o_;

    mc::atomic<unsigned> head_;
    mc::atomic<unsigned> tail_;
    mc::atomic<unsigned> capacity_;
    mc::atomic<unsigned> mask_;
    std::array<mc::atomic<int>, max_cap> data_;
    mc::atomic<bool> gate_;
    mc::atomic<bool> prod_op_;
    mc::atomic<bool> cons_op_;
    mc::atomic<bool> write_closed_;
    mc::atomic<bool> aborted_;
    mc::atomic<unsigned> waiters_;
    mc::atomic<unsigned> prod_seq_;
    mc::atomic<unsigned> cons_seq_;

    /** thread-private shadow indices — plain on purpose: their safety is
     *  exactly what the gate protocol must provide */
    unsigned cached_head_{ 0U };
    unsigned cached_tail_{ 0U };
};

} /** end namespace mc **/
} /** end namespace raft **/
