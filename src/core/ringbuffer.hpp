/**
 * ringbuffer.hpp — lock-free single-producer / single-consumer ring buffer
 * with cooperative dynamic resizing.
 *
 * This is the default allocation behind every stream (§4.2: heap-allocated
 * memory).
 *
 * Fast path: one cache-line-padded monotonic counter per queue end, a
 * relaxed gate check, release/acquire publication — no locks, no CAS loops.
 *
 * Shadow indices: each end keeps a thread-private cached copy of the
 * *opposite* end's counter on its own cache line (producer caches head_,
 * consumer caches tail_). The cached value only lags the real one, so using
 * it is always conservative (the producer under-estimates free space, the
 * consumer under-estimates occupancy); the real counter is re-read only when
 * the cache cannot cover the request (one slot for a scalar call). In
 * steady state the remote cache line is touched once per buffer-full of
 * elements instead of once per element.
 * resize() re-seeds both caches while the ends are parked — the gate
 * handshake orders those plain writes against the owning thread's accesses.
 *
 * One claim/commit pair per end. The producer's claim_write takes the
 * handshake and returns 1..max_n free slots; commit_write publishes n of
 * them with one tail_ store and one wake-up, then releases the handshake.
 * The consumer's claim_read (min_n..max_n elements) and commit_read
 * (destroy n, one head_ store, wake, release) mirror them. The gate
 * handshake, the shadow-index reload, publication, wake-up and
 * spin-then-park therefore exist once per end. Every typed operation wraps
 * the pair: push, try_push, try_push_n and push_n claim, build and commit
 * (produce); pop, try_pop, try_pop_n, pop_n and recycle claim, take and
 * commit (consume); try_transfer_n is a consumer claim, a produce on the
 * destination and a consumer commit of the count moved. The held claims
 * are the same pair split across calls: the write and read windows,
 * claim_tail/publish_tail/abandon_tail (allocate_s), claim_head/
 * consume_head/release_head (pop_s, peek) and claim_window (peek_range),
 * so a held window parks the monitor exactly like any other claim. An
 * element constructor or assignment that throws commits the elements
 * completed before it and releases the handshake.
 *
 * Static streams: set_auto_resize(false) declares that no resize() will run
 * concurrently with traffic (the monitor never gates a static stream), which
 * lets the ends skip the handshake entirely — a relaxed mode check is all
 * that remains of it.
 *
 * Dynamic resizing (§4): a monitor thread samples every δ and calls
 * resize(). The resize protocol is the paper's "lock-free exclusion... only
 * under certain conditions". It is an asymmetric Dekker handshake: the
 * queue ends enter it once per operation, the monitor a few times per
 * second, so the monitor pays for the fence both sides need:
 *
 *   producer/consumer op:   in_op.store(true, relaxed);
 *                           atomic_signal_fence(seq_cst);  (compiler only)
 *                           if (gate.load(acquire)) { in_op=false; wait; }
 *   monitor:                gate.store(true, relaxed);
 *                           detail::heavy_barrier();       (membarrier)
 *                           wait until both in_op flags clear (bounded);
 *                           relocate elements unwrapped; swap storage;
 *                           gate.store(false, release);
 *
 * The heavy barrier makes every running thread of the process execute a
 * full fence, and so splits each end's instruction stream: if an end's
 * in_op store lies before that point it is visible when the monitor reads
 * in_op; if it lies after, the end's later gate load sees the raised gate.
 * Either the end sees the gate and parks, or the monitor sees the end
 * in-op and waits. Elements are relocated in order into index 0 of the new
 * array, so the ring is in the "non-wrapped position" the paper identifies
 * as the efficient resize condition. If an end cannot be parked within a
 * bounded wait the resize aborts and the monitor retries next tick.
 *
 * Platform fallback: where the process cannot register for membarrier
 * (detail::heavy_barrier_available() is false — not Linux, a kernel older
 * than 4.14, a seccomp filter), every ring runs the symmetric Dekker pair
 * instead: each end stores in_op and loads the gate seq_cst (an xchg on
 * x86), and the monitor stores the gate seq_cst. Registration happens once
 * per process; the choice is made at construction, per ring.
 *
 * Each end's side of the handshake is split in two. enter() is always
 * inline and holds what an operation on an ungated stream runs: the claim
 * depth check, the static stream's early return, and the light store,
 * compiler fence and gate load. The raised gate's retries (clear in_op,
 * yield, announce again) and the whole symmetric seq_cst pair sit out of
 * line in the noinline enter_slow(). The protocol and its memory orders
 * are the same on both paths.
 *
 * Blocking: spin for a batch, then park. A claim whose first attempt
 * fails retries out of line. While it spins, a retry wants a batch:
 * slip = min(cap / 4, 16) free slots (at least 1) for the producer,
 * max(min_n, slip) elements for the consumer, or min_n once the writer
 * has closed. So a blocked end lets its peer run a batch ahead, and
 * head_, tail_ and the data lines change cores once per batch instead of
 * once per element (FastForward's "temporal slipping", Giacomoni et al.,
 * PPoPP 2008). The retries come after 1, 1, 2, 4 ... 32 CPU pauses, 64
 * in all, so a spinning end reads the peer's index 7 times, not 64.
 * After the 64th pause a retry wants one slot or min_n elements again,
 * which is what the end then parks for: it parks on its own 32-bit
 * sequence word with a bare futex (detail::futex_wait; std::atomic::wait
 * off Linux), so the park adds no spin or yield of its own to the 64
 * pauses already spent. Waking it is a second Dekker pair, made
 * asymmetric the same way: the parking side is already slow, so it pays
 * the barrier, and the publishing side, which runs on every operation,
 * pays one relaxed load.
 *
 *   parker:  s = seq.load(acquire);
 *            waiters.fetch_or(my_bit);
 *            detail::heavy_barrier();                 (membarrier)
 *            if (peer published / closed / aborted) { clear my_bit; retry }
 *            while (seq.load(acquire) == s) futex_wait(seq, s);
 *   waker:   head/tail.store(..., release);
 *            atomic_signal_fence(seq_cst);            (compiler only)
 *            if (waiters.load(relaxed) & peer_bit)
 *                { clear peer_bit; ++peer_seq; futex_wake_one(peer_seq); }
 *
 * The heavy barrier splits the waker's instruction stream: if its
 * waiters load lies before that point, its index store is visible to the
 * parker's re-check; if after, the load sees the parker's bit. Loading
 * the sequence word before raising the bit means a wake-up that lands
 * between the re-check and the wait changes the word, so the kernel's
 * FUTEX_WAIT finds a value other than s and returns at once. Each end
 * counts its barriers and its waits (write_parks(), read_parks()) on this
 * path only. Without membarrier both sides use seq_cst fences instead, as
 * the resize handshake does. abort(), close_write(), close_read() and a
 * completed resize() wake the affected ends unconditionally: those events
 * change what a parked end waits for without a publication. The model in
 * analysis/mc/ring_model.hpp checks this handshake for lost wake-ups.
 *
 * Cache lines: each end's published index sits alone on its line, since
 * the opposite end reads it. Each end's handshake flag, claim depth,
 * shadow index and blocked-since stamp share a second, end-private line
 * that only the monitor reads (rarely). Storage pointers, the gate, the
 * lifecycle flags and the waiter bits share a read-mostly line. The two
 * sequence words sit on their own cold line, written only to wake a
 * parked end. Neither the waiter bits nor the sequence words may go on an
 * end-private line: the peer would then read a line the other end writes
 * on every operation.
 *
 * Blocked-end bookkeeping feeds the monitor's two trigger rules:
 *   - write_blocked_since(): writer parked on a full queue (3δ rule),
 *   - resize_request(): reader demanded a window larger than capacity.
 * The writer rings the monitor's doorbell (set_doorbell) each time it
 * enters the park path, the reader when it posts a request, so a monitor
 * with nothing to do can sleep until a rule may fire. A writer that only
 * spins (64 pauses, far below 3δ) neither rings nor counts as blocked.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/defs.hpp"
#include "core/fifo.hpp"
#include "runtime/telemetry/trace.hpp"

namespace raft {

template <class T> class ring_buffer final : public fifo_base
{
public:
    static constexpr std::size_t min_capacity = 2;

    explicit ring_buffer( const std::size_t capacity = 64 )
    {
        const auto cap =
            detail::pow2_ceil( std::max( capacity, min_capacity ) );
        data_ = allocate_storage( cap );
        sigs_ = new signal[ cap ]();
        capacity_.store( cap, std::memory_order_relaxed );
        mask_.store( cap - 1, std::memory_order_relaxed );
        handshake_.store( gated_handshake(), std::memory_order_relaxed );
    }

    ring_buffer( const ring_buffer & )            = delete;
    ring_buffer &operator=( const ring_buffer & ) = delete;

    ~ring_buffer() override
    {
        const auto h = head_.load( std::memory_order_relaxed );
        destroy( h, static_cast<std::size_t>(
                        tail_.load( std::memory_order_relaxed ) - h ) );
        ::operator delete( static_cast<void *>( data_ ),
                           std::align_val_t( alignof( T ) ) );
        delete[] sigs_;
    }

    /** @name fifo_base: occupancy */
    ///@{
    std::size_t size() const noexcept override
    {
        /** One acquire on the opposite end suffices (§4.2): reading head
         *  first guarantees t >= h because head never passes tail and both
         *  grow monotonically — the second acquire bought nothing. Reading
         *  in the other order could observe h > t and wrap. */
        const auto h = head_.load( std::memory_order_relaxed );
        const auto t = tail_.load( std::memory_order_acquire );
        return static_cast<std::size_t>( t - h );
    }

    std::size_t capacity() const noexcept override
    {
        return capacity_.load( std::memory_order_relaxed );
    }

    std::size_t space_avail() const noexcept override
    {
        /** size() now never exceeds the true occupancy snapshot, but a
         *  racing resize can still shrink capacity between the two loads —
         *  keep the clamp. */
        const auto cap = capacity();
        const auto sz  = size();
        return ( sz > cap ) ? 0 : cap - sz;
    }
    ///@}

    /** @name fifo_base: lifecycle */
    ///@{
    void close_write() noexcept override
    {
        write_closed_.store( true, std::memory_order_release );
        wake( cons_bit );
    }

    bool write_closed() const noexcept override
    {
        return write_closed_.load( std::memory_order_acquire );
    }

    void close_read() noexcept override
    {
        read_closed_.store( true, std::memory_order_release );
        wake( prod_bit );
    }

    bool read_closed() const noexcept override
    {
        return read_closed_.load( std::memory_order_acquire );
    }

    void abort() noexcept override
    {
        aborted_.store( true, std::memory_order_release );
        wake( prod_bit | cons_bit );
    }

    bool aborted() const noexcept override
    {
        return aborted_.load( std::memory_order_acquire );
    }
    ///@}

    /** @name fifo_base: dynamic resizing */
    ///@{
    bool resize( const std::size_t new_capacity ) override
    {
        const auto cap_req = detail::pow2_ceil(
            std::max( new_capacity, min_capacity ) );
        if( handshake_.load( std::memory_order_relaxed ) == hs_light )
        {
            gate_.store( true, std::memory_order_relaxed );
            if( !detail::heavy_barrier() )
            {
                gate_.store( false, std::memory_order_release );
                return false;
            }
        }
        else
        {
            gate_.store( true, std::memory_order_seq_cst );
        }
        const auto deadline = detail::now_ns() + park_timeout_ns;
        while( prod_.op.load( std::memory_order_seq_cst ) ||
               cons_.op.load( std::memory_order_seq_cst ) )
        {
            if( detail::now_ns() > deadline )
            {
                gate_.store( false, std::memory_order_release );
                return false;
            }
#if defined( __x86_64__ ) || defined( __i386__ )
            __builtin_ia32_pause();
#else
            std::this_thread::yield();
#endif
        }
        /** both ends parked — exclusive access from here **/
        const auto h = head_.load( std::memory_order_relaxed );
        const auto t = tail_.load( std::memory_order_relaxed );
        const auto n = static_cast<std::size_t>( t - h );
        if( cap_req < n )
        {
            gate_.store( false, std::memory_order_release );
            return false;
        }
        if( cap_req == capacity() )
        {
            gate_.store( false, std::memory_order_release );
            return true;
        }
        T *new_data       = allocate_storage( cap_req );
        signal *new_sigs  = new signal[ cap_req ]();
        const auto old_m  = mask_.load( std::memory_order_relaxed );
        for( std::size_t i = 0; i < n; ++i )
        {
            const auto idx = ( h + i ) & old_m;
            ::new( static_cast<void *>( new_data + i ) )
                T( std::move( data_[ idx ] ) );
            new_sigs[ i ] = sigs_[ idx ];
            data_[ idx ].~T();
        }
        ::operator delete( static_cast<void *>( data_ ),
                           std::align_val_t( alignof( T ) ) );
        delete[] sigs_;
        data_ = new_data;
        sigs_ = new_sigs;
        /** preserve monotonic lifetime counters across index reset **/
        pushed_base_.fetch_add( static_cast<std::uint64_t>( t ) - n,
                                std::memory_order_relaxed );
        popped_base_.fetch_add( static_cast<std::uint64_t>( h ),
                                std::memory_order_relaxed );
        head_.store( 0, std::memory_order_relaxed );
        tail_.store( n, std::memory_order_relaxed );
        /** re-seed the shadow indices: both ends are parked, and their next
         *  gate acquisition synchronizes with the release of gate_ below,
         *  so these plain stores are ordered against the owning threads **/
        prod_.cached = 0;
        cons_.cached = n;
        capacity_.store( cap_req, std::memory_order_relaxed );
        mask_.store( cap_req - 1, std::memory_order_relaxed );
        resize_count_.fetch_add( 1, std::memory_order_relaxed );
        if( resize_request_.load( std::memory_order_relaxed ) <= cap_req )
        {
            resize_request_.store( 0, std::memory_order_relaxed );
        }
        gate_.store( false, std::memory_order_release );
        /** capacity and indices moved without a publication **/
        wake( prod_bit | cons_bit );
        return true;
    }

    /** seq_cst: with the monitor's doorbell arm() it forms a Dekker pair
     *  (see ring_doorbell) */
    std::size_t resize_request() const noexcept override
    {
        return resize_request_.load( std::memory_order_seq_cst );
    }

    /** The writer's stamp from its first miss, but only while its waiter
     *  bit is raised (it parks, or naps where the barrier failed): a
     *  writer still spinning is not blocked to the monitor. The bit's
     *  seq_cst load pairs with the doorbell's arm() (see block()) and
     *  acquires the stamp stored before the bit. */
    std::int64_t write_blocked_since() const noexcept override
    {
        if( ( waiters_.load( std::memory_order_seq_cst ) & prod_bit ) == 0 )
        {
            return 0;
        }
        return prod_.blocked_since.load( std::memory_order_relaxed );
    }

    std::int64_t read_blocked_since() const noexcept override
    {
        return cons_.blocked_since.load( std::memory_order_acquire );
    }

    std::size_t resize_count() const noexcept override
    {
        return resize_count_.load( std::memory_order_relaxed );
    }

    park_counts write_parks() const noexcept override
    {
        return census( prod_ );
    }

    park_counts read_parks() const noexcept override
    {
        return census( cons_ );
    }

    void set_auto_resize( const bool enabled ) noexcept override
    {
        auto_resize_.store( enabled, std::memory_order_release );
        /** a static stream (monitor will never gate it) runs the queue ends
         *  without the handshake; resize() must then only be called while
         *  both ends are quiescent **/
        handshake_.store( enabled ? gated_handshake() : hs_none,
                          std::memory_order_release );
    }

    bool auto_resize() const noexcept override
    {
        return auto_resize_.load( std::memory_order_acquire );
    }

    void set_doorbell( detail::doorbell *bell ) noexcept override
    {
        doorbell_.store( bell, std::memory_order_release );
    }
    ///@}

    /** @name fifo_base: adapters */
    ///@{
    std::size_t try_transfer_n( fifo_base &dstb,
                                const std::size_t max_n ) override
    {
        if( max_n == 0 || dstb.value_type() != typeid( T ) )
        {
            return 0;
        }
        auto &dst       = static_cast<ring_buffer &>( dstb );
        std::uint64_t h = 0;
        const auto k    = claim_read( 1, max_n, false, h );
        if( k == 0 )
        {
            return 0;
        }
        /** consumes exactly what dst built, also when a move throws **/
        commit_guard<false> moved{ *this, h };
        const auto m = mask_.load( std::memory_order_relaxed );
        dst.produce( k, false, [ & ]( void *slot, signal &s, std::size_t ) {
            const auto idx = ( h + moved.n ) & m;
            ::new( slot ) T( std::move( data_[ idx ] ) );
            s = sigs_[ idx ];
            ++moved.n;
        } );
        return moved.n;
    }
    ///@}

    /** @name fifo_base: introspection */
    ///@{
    const std::type_info &value_type() const noexcept override
    {
        return typeid( T );
    }

    std::size_t element_size() const noexcept override { return sizeof( T ); }

    std::uint64_t total_pushed() const noexcept override
    {
        return pushed_base_.load( std::memory_order_relaxed ) +
               tail_.load( std::memory_order_acquire );
    }

    std::uint64_t total_popped() const noexcept override
    {
        return popped_base_.load( std::memory_order_relaxed ) +
               head_.load( std::memory_order_acquire );
    }
    ///@}

    /** @name fifo_base: arithmetic raw access */
    ///@{
    bool try_pop_as_double( double &out, signal &sig ) override
    {
        if constexpr( std::is_arithmetic_v<T> )
        {
            T v{};
            if( !try_pop( v, &sig ) )
            {
                return false;
            }
            out = static_cast<double>( v );
            return true;
        }
        else
        {
            (void) out;
            (void) sig;
            return false;
        }
    }

    bool try_push_from_double( const double value, const signal sig ) override
    {
        if constexpr( std::is_arithmetic_v<T> )
        {
            return try_push( static_cast<T>( value ), sig );
        }
        else
        {
            (void) value;
            (void) sig;
            return false;
        }
    }
    ///@}

    /** @name blocking operations */
    ///@{
    void push( const T &value, const signal sig = none )
    {
        produce( 1, true, [ & ]( void *slot, signal &s, std::size_t ) {
            ::new( slot ) T( value );
            s = sig;
        } );
    }

    void push( T &&value, const signal sig = none )
    {
        produce( 1, true, moving_from( &value, &sig ) );
    }

    void pop( T &out, signal *sig = nullptr )
    {
        consume( 1, true, moving_to( &out, sig ) );
    }

    /** Borrow the head element; holds the consumer claim until unpeek(). */
    const T &peek( signal *sig = nullptr )
    {
        signal s     = none;
        const T &ref = claim_head( s );
        if( sig != nullptr )
        {
            *sig = s;
        }
        return ref;
    }

    void unpeek() noexcept { release_head(); }

    void recycle( const std::size_t n = 1 ) override
    {
        for( auto left = n; left > 0; )
        {
            left -= consume( left, true,
                             []( T &, const signal &, std::size_t ) {} );
        }
    }

    /** Push all n elements of src, blocking as needed; the signals array
     *  (when non-null) travels element-for-element. */
    void push_n( T *src, const std::size_t n, const signal *sigs = nullptr )
    {
        for( std::size_t done = 0; done < n; )
        {
            done += produce( n - done, true,
                             moving_from( src + done,
                                          sigs ? sigs + done : nullptr ) );
        }
    }

    /** Pop between 1 and max_n elements into dst, blocking until at least
     *  one is available. Returns the count. */
    std::size_t pop_n( T *dst, const std::size_t max_n,
                       signal *sigs = nullptr )
    {
        return consume( max_n, true, moving_to( dst, sigs ) );
    }
    ///@}

    /** @name non-blocking operations (adapters, pool scheduler)
     * The bulk variants move up to n elements under one claim and one
     * index store; moved-from sources stay with the caller. sigs may be
     * null (pushed elements then ship `none`). */
    ///@{
    bool try_push( T &&value, const signal sig = none )
    {
        return produce( 1, false, moving_from( &value, &sig ) ) == 1;
    }

    bool try_pop( T &out, signal *sig = nullptr )
    {
        return consume( 1, false, moving_to( &out, sig ) ) == 1;
    }

    std::size_t try_push_n( T *src, const std::size_t n,
                            const signal *sigs = nullptr )
    {
        return n == 0 ? 0 : produce( n, false, moving_from( src, sigs ) );
    }

    std::size_t try_pop_n( T *dst, const std::size_t n,
                           signal *sigs = nullptr )
    {
        return n == 0 ? 0 : consume( n, false, moving_to( dst, sigs ) );
    }
    ///@}

    /** @name held claims: windows and the RAII accessors (fifo.hpp)
     * A claim holds its end's handshake until it is published or
     * consumed, so a live window or accessor defers resize(). */
    ///@{
    /** Block until at least one slot is writable, default-construct
     *  min(max_n, space) slots and return their count plus the window
     *  geometry (slot array, signal array, logical start, index mask). */
    std::size_t claim_write_window( const std::size_t max_n,
                                    T **data,
                                    signal **sigs,
                                    std::uint64_t *start,
                                    std::size_t *mask )
    {
        static_assert( std::is_default_constructible_v<T>,
                       "write windows and allocate_s require a "
                       "default-constructible type" );
        const auto k = claim_write( max_n, true, *start );
        *data        = data_;
        *sigs        = sigs_;
        *mask        = mask_.load( std::memory_order_relaxed );
        std::size_t built = 0;
        try
        {
            for( ; built < k; ++built )
            {
                const auto idx = ( *start + built ) & *mask;
                ::new( static_cast<void *>( data_ + idx ) ) T();
                sigs_[ idx ] = none;
            }
        }
        catch( ... )
        {
            publish_write_window( built, 0 );
            throw;
        }
        return k;
    }

    /** Publish the first n of `claimed` window slots, destroy the rest. */
    void publish_write_window( const std::size_t claimed,
                               const std::size_t n ) noexcept
    {
        const auto t = tail_.load( std::memory_order_relaxed );
        destroy( t + n, claimed - n );
        commit_write( t, n );
    }

    /** Block until at least one element is readable and return
     *  min(max_n, occupancy) plus the window geometry. */
    std::size_t claim_read_window( const std::size_t max_n,
                                   T **data,
                                   signal **sigs,
                                   std::uint64_t *start,
                                   std::size_t *mask )
    {
        const auto k = claim_read( 1, max_n, true, *start );
        *data        = data_;
        *sigs        = sigs_;
        *mask        = mask_.load( std::memory_order_relaxed );
        return k;
    }

    /** Destroy the first n claimed elements and advance the head. */
    void consume_read_window( const std::size_t n ) noexcept
    {
        commit_read( head_.load( std::memory_order_relaxed ), n );
    }

    /** Block until n elements are readable (growing the queue through the
     *  monitor if n exceeds capacity) and return the window geometry. */
    void claim_window( const std::size_t n,
                       T **data,
                       std::uint64_t *start,
                       std::size_t *mask )
    {
        claim_read( n, n, true, *start );
        *data = data_;
        *mask = mask_.load( std::memory_order_relaxed );
    }

    /** A one-element read window: the head element and its signal. */
    T &claim_head( signal &sig )
    {
        std::uint64_t h = 0;
        claim_read( 1, 1, true, h );
        const auto idx = h & mask_.load( std::memory_order_relaxed );
        sig            = sigs_[ idx ];
        return data_[ idx ];
    }

    void consume_head() noexcept { consume_read_window( 1 ); }

    void release_head() noexcept { consume_read_window( 0 ); }

    /** A one-slot write window: a default-constructed tail element. */
    T *claim_tail()
    {
        T *data       = nullptr;
        signal *sigs  = nullptr;
        std::uint64_t t = 0;
        std::size_t m   = 0;
        claim_write_window( 1, &data, &sigs, &t, &m );
        return data + ( t & m );
    }

    void publish_tail( const signal sig ) noexcept
    {
        sigs_[ tail_.load( std::memory_order_relaxed ) &
               mask_.load( std::memory_order_relaxed ) ] = sig;
        publish_write_window( 1, 1 );
    }

    void abandon_tail() noexcept { publish_write_window( 1, 0 ); }
    ///@}

    /** @name sugar: the Figure 2 access style */
    ///@{
    autorelease<T> pop_s() { return autorelease<T>( *this ); }
    allocate_ref<T> allocate_s() { return allocate_ref<T>( *this ); }
    peek_range_t<T> peek_range( const std::size_t n )
    {
        return peek_range_t<T>( *this, n );
    }
    /** Bulk dual of allocate_s(): up to n slots, published at scope exit. */
    write_window_t<T> write_window( const std::size_t n )
    {
        return write_window_t<T>( *this, n );
    }
    /** Bulk dual of pop_s(): up to n elements, consumed at scope exit. */
    read_window_t<T> read_window( const std::size_t n )
    {
        return read_window_t<T>( *this, n );
    }
    ///@}

private:
    /** handshake modes (handshake_): none for a static stream, light
     *  when the process registered for the heavy barrier, full (the
     *  symmetric seq_cst pair) otherwise **/
    static constexpr std::uint8_t hs_none  = 0;
    static constexpr std::uint8_t hs_light = 1;
    static constexpr std::uint8_t hs_full  = 2;

    static std::uint8_t gated_handshake() noexcept
    {
        return detail::heavy_barrier_available() ? hs_light : hs_full;
    }

    /** One queue end's private state, on its own cache line: written by
     *  the owning thread on every operation, read by the monitor only
     *  (op in resize, blocked_since once per tick, the park census after
     *  the run). The plain fields are
     *  thread-private, ordered by the gate protocol when resize() touches
     *  them. */
    struct alignas( cacheline_size ) end_state
    {
        std::atomic<bool> op{ false };  /**< inside an operation */
        bool announced{ false };        /**< op was published */
        int depth{ 0 };                 /**< claim nesting depth */
        std::uint64_t cached{ 0 };      /**< shadow of the opposite index */
        std::atomic<std::int64_t> blocked_since{ 0 };
        /** the park census (park_counts), written only by this end **/
        std::atomic<std::uint64_t> park_barriers{ 0 };
        std::atomic<std::uint64_t> park_waits{ 0 };
    };

    static park_counts census( const end_state &e ) noexcept
    {
        return park_counts{
            e.park_barriers.load( std::memory_order_relaxed ),
            e.park_waits.load( std::memory_order_relaxed ) };
    }

    static T *allocate_storage( const std::size_t cap )
    {
        return static_cast<T *>( ::operator new(
            sizeof( T ) * cap, std::align_val_t( alignof( T ) ) ) );
    }

    /** @name the claim/commit pair of each end (see file header)
     * Every operation above is a claim, element work on the claimed slots
     * and a commit. A claim takes its end's handshake; the commit that
     * follows releases it. The claims, produce and consume are forced
     * inline: left out of line by the compiler, they cost perfbench's
     * chain_scalar about 20% of its items/s on a 4-vCPU Xeon VM. */
    ///@{
    /** Producer claim: return k in [1, max_n] free slots starting at `t`
     *  (tail_), with the producer's handshake held. Without `wait`, a
     *  full ring returns 0 with the handshake released. Throws
     *  closed_port_exception once the reader has closed and, while
     *  waiting, stream_aborted_exception once the stream is aborted. */
    [[gnu::always_inline]] std::size_t claim_write( std::size_t max_n,
                                                    const bool wait,
                                                    std::uint64_t &t )
    {
        max_n = std::max<std::size_t>( max_n, 1 );
        if( read_closed() )
        {
            throw_read_closed();
        }
        std::size_t k = 0;
        if( try_claim_write( max_n, false, t, k ) || !wait )
        {
            return k;
        }
        return claim_write_waiting( max_n, t );
    }

    /** One producer attempt: with the handshake held, find one free slot,
     *  or slip(cap) of them when `batch`, and set k = min(max_n, space).
     *  Without them, release the handshake and return false. */
    [[gnu::always_inline]] bool try_claim_write( const std::size_t max_n,
                                                 const bool batch,
                                                 std::uint64_t &t,
                                                 std::size_t &k )
    {
        enter( prod_ );
        t              = tail_.load( std::memory_order_relaxed );
        const auto cap = capacity_.load( std::memory_order_relaxed );
        const auto want = batch ? slip( cap ) : 1;
        /** reload the shadow cache when it cannot cover the request,
         *  so claims come back full-sized rather than cache-lag-sized **/
        const auto h =
            prod_head( t, cap, std::min( std::max( max_n, want ), cap ) );
        const auto space = cap - static_cast<std::size_t>( t - h );
        if( space >= want )
        {
            k = std::min( max_n, space );
            return true;
        }
        leave( prod_ );
        return false;
    }

    /** Producer commit: publish the first n slots claimed at t (built by
     *  the caller) with one index store and one notify, then release the
     *  handshake. n = 0 releases only. It takes the claim's t instead of
     *  reloading tail_: on a 4-vCPU Xeon VM, a reload right before the
     *  store cost perfbench's chain_scalar about 6% of its items/s. */
    void commit_write( const std::uint64_t t, const std::size_t n ) noexcept
    {
        if( n > 0 )
        {
            tail_.store( t + n, std::memory_order_release );
            notify( cons_bit );
        }
        leave( prod_ );
    }

    /** Consumer claim: return k in [min_n, max_n] readable elements
     *  starting at `h` (head_), with the consumer's handshake held.
     *  Without `wait`, fewer than min_n returns 0 with the handshake
     *  released. A min_n above capacity posts a resize request and parks
     *  (only peek_range asks that). Throws closed_port_exception once the
     *  writer has closed with fewer than min_n left, and, while waiting,
     *  stream_aborted_exception once the stream is aborted (checked
     *  first, so a cancelled graph never looks drained). */
    [[gnu::always_inline]] std::size_t claim_read( const std::size_t min_n,
                                                   std::size_t max_n,
                                                   const bool wait,
                                                   std::uint64_t &h )
    {
        max_n         = std::max( max_n, min_n );
        std::size_t k = 0;
        if( try_claim_read( min_n, max_n, false, h, k ) || !wait )
        {
            return k;
        }
        return claim_read_waiting( min_n, max_n, h );
    }

    /** One consumer attempt: with the handshake held, find min_n
     *  elements, or max(min_n, slip(cap)) when `batch`, and set
     *  k = min(max_n, occupancy). Without them, release the handshake and
     *  return false. */
    [[gnu::always_inline]] bool try_claim_read( const std::size_t min_n,
                                                const std::size_t max_n,
                                                const bool batch,
                                                std::uint64_t &h,
                                                std::size_t &k )
    {
        enter( cons_ );
        h = head_.load( std::memory_order_relaxed );
        const auto want =
            batch ? std::max( min_n, slip( capacity_.load(
                                         std::memory_order_relaxed ) ) )
                  : min_n;
        const auto avail = static_cast<std::size_t>(
            cons_tail( h, std::max( max_n, want ) ) - h );
        if( avail >= want )
        {
            k = std::min( max_n, avail );
            return true;
        }
        leave( cons_ );
        return false;
    }

    /** Consumer commit: destroy the first n elements claimed at h, advance
     *  head_ with one index store and one notify, then release the
     *  handshake. n = 0 releases only (unpeek, peek_range). */
    void commit_read( const std::uint64_t h, const std::size_t n ) noexcept
    {
        if( n > 0 )
        {
            destroy( h, n );
            head_.store( h + n, std::memory_order_release );
            notify( prod_bit );
        }
        leave( cons_ );
    }

    /** Commits n slots of one end when it leaves scope. The caller counts
     *  n up as each element is built or taken, so an element constructor
     *  or assignment that throws commits the completed prefix and
     *  releases the handshake on its way out. */
    template <bool Producer> struct commit_guard
    {
        ring_buffer &rb;
        std::uint64_t start;
        std::size_t n{ 0 };

        ~commit_guard()
        {
            if constexpr( Producer )
            {
                rb.commit_write( start, n );
            }
            else
            {
                rb.commit_read( start, n );
            }
        }
    };

    /** Claim up to max_n slots, build each in order with
     *  build( slot, signal &, i ), commit. Returns the count. */
    template <class Build>
    [[gnu::always_inline]] std::size_t
    produce( const std::size_t max_n, const bool wait, Build &&build )
    {
        std::uint64_t t = 0;
        const auto k    = claim_write( max_n, wait, t );
        if( k == 0 )
        {
            return 0;
        }
        commit_guard<true> built{ *this, t };
        const auto m = mask_.load( std::memory_order_relaxed );
        for( ; built.n < k; ++built.n )
        {
            const auto idx = ( t + built.n ) & m;
            build( static_cast<void *>( data_ + idx ), sigs_[ idx ],
                   built.n );
        }
        return k;
    }

    /** Claim between 1 and max_n elements, hand each in order to
     *  take( element &, const signal &, i ), commit. Returns the count. A
     *  failed take leaves its element queued. The signal goes by reference
     *  so that a take that ignores it never loads the producer's line of
     *  the signal array. */
    template <class Take>
    [[gnu::always_inline]] std::size_t
    consume( const std::size_t max_n, const bool wait, Take &&take )
    {
        std::uint64_t h = 0;
        const auto k    = claim_read( 1, max_n, wait, h );
        if( k == 0 )
        {
            return 0;
        }
        commit_guard<false> taken{ *this, h };
        const auto m = mask_.load( std::memory_order_relaxed );
        for( ; taken.n < k; ++taken.n )
        {
            const auto idx = ( h + taken.n ) & m;
            take( data_[ idx ], sigs_[ idx ], taken.n );
        }
        return k;
    }

    /** build: move-construct from src[i], signal sigs[i] (or none) */
    static auto moving_from( T *src, const signal *sigs ) noexcept
    {
        return [ src, sigs ]( void *slot, signal &s, const std::size_t i ) {
            ::new( slot ) T( std::move( src[ i ] ) );
            s = ( sigs != nullptr ) ? sigs[ i ] : none;
        };
    }

    /** take: move-assign into dst[i], signal into sigs[i] (if non-null) */
    static auto moving_to( T *dst, signal *sigs ) noexcept
    {
        return [ dst, sigs ]( T &v, const signal &s, const std::size_t i ) {
            dst[ i ] = std::move( v );
            if( sigs != nullptr )
            {
                sigs[ i ] = s;
            }
        };
    }

    /** destroy the n elements from logical index `from` */
    void destroy( const std::uint64_t from, const std::size_t n ) noexcept
    {
        const auto m = mask_.load( std::memory_order_relaxed );
        for( std::size_t i = 0; i < n; ++i )
        {
            data_[ ( from + i ) & m ].~T();
        }
    }
    ///@}

    /** abort checks live exclusively on the would-block path (the
     *  await_ functions below): cancellation poisons the stream via
     *  abort(), which wakes a parked end, and the end notices on its next
     *  retry. An operation that succeeds immediately never loads the flag,
     *  keeping the hot path identical to the pre-fault-tolerance code. */
    void throw_if_aborted( end_state &e )
    {
        if( aborted_.load( std::memory_order_acquire ) )
        {
            clear_block( e );
            throw stream_aborted_exception(
                "stream aborted: graph cancelled" );
        }
    }

    /** out of line, like the await_ functions: it keeps the claims small */
    [[noreturn, gnu::noinline]] static void throw_closed( const char *what )
    {
        throw closed_port_exception( what );
    }

    /** the producer's: a writer the close woke must not look stalled to
     *  the monitor's 3δ rule */
    [[noreturn, gnu::noinline]] void throw_read_closed()
    {
        clear_block( prod_ );
        throw_closed( "push on a stream whose reader terminated" );
    }

    /** @name shadow-index refresh (see file header)
     * Thread-private caches of the opposite end's counter. Values only lag
     * the real counter, so acting on them is conservative; re-read the real
     * (remote) cache line only when the cached value cannot cover the
     * request — i.e. once per batch/wrap instead of once per element.
     */
    ///@{
    /** Producer view of head_; refreshed when the cache shows fewer than
     *  `need` free slots. Call only between enter( prod_ ) and
     *  leave( prod_ ). */
    std::uint64_t prod_head( const std::uint64_t t, const std::size_t cap,
                             const std::size_t need ) noexcept
    {
        auto h = prod_.cached;
        if( static_cast<std::size_t>( t - h ) + need > cap )
        {
            h            = head_.load( std::memory_order_acquire );
            prod_.cached = h;
        }
        return h;
    }

    /** Consumer view of tail_; refreshed when the cache shows fewer than
     *  `need` occupied slots. Call only between enter( cons_ ) and
     *  leave( cons_ ). */
    std::uint64_t cons_tail( const std::uint64_t h,
                             const std::size_t need ) noexcept
    {
        auto t = cons_.cached;
        if( static_cast<std::size_t>( t - h ) < need )
        {
            t            = tail_.load( std::memory_order_acquire );
            cons_.cached = t;
        }
        return t;
    }
    ///@}

    /** @name gate handshake (see file header)
     * enter() is forced inline and holds what an uncontended operation
     * runs: the depth check, the static stream's early return and the
     * light handshake's store, compiler fence and gate load. A raised
     * gate's retries and the symmetric seq_cst pair live out of line in
     * enter_slow(). */
    ///@{
    [[gnu::always_inline]] void enter( end_state &e ) noexcept
    {
        if( e.depth++ > 0 )
        {
            return;
        }
        const auto hs = handshake_.load( std::memory_order_relaxed );
        e.announced   = hs != hs_none;
        if( hs == hs_none )
        {
            return; /** static stream: no handshake **/
        }
        if( hs == hs_light )
        {
            /** the monitor's heavy barrier supplies the fence **/
            e.op.store( true, std::memory_order_relaxed );
            std::atomic_signal_fence( std::memory_order_seq_cst );
            if( !gate_.load( std::memory_order_acquire ) )
            {
                return;
            }
        }
        enter_slow( e, hs );
    }

    /** The raised gate's retries (step out, yield, announce again) and
     *  the symmetric pair. A light end arrives here from enter()'s one
     *  attempt, which found the gate raised with op still set. */
    [[gnu::noinline]] void enter_slow( end_state &e,
                                       const std::uint8_t hs ) noexcept
    {
        bool raised = hs == hs_light;
        for( ;; )
        {
            if( raised )
            {
                e.op.store( false, std::memory_order_release );
                std::this_thread::yield();
            }
            if( hs == hs_light )
            {
                e.op.store( true, std::memory_order_relaxed );
                std::atomic_signal_fence( std::memory_order_seq_cst );
                raised = gate_.load( std::memory_order_acquire );
            }
            else
            {
                e.op.store( true, std::memory_order_seq_cst );
                raised = gate_.load( std::memory_order_seq_cst );
            }
            if( !raised )
            {
                return;
            }
        }
    }

    static void leave( end_state &e ) noexcept
    {
        if( --e.depth == 0 && e.announced )
        {
            e.op.store( false, std::memory_order_release );
        }
    }
    ///@}

    /** @name blocked-since stamps
     * Only the owning end writes its stamp. note_block loads before it
     * stores, so an end spinning on a full or empty queue only reads its
     * stamp after the first miss. The stamp does not ring the monitor:
     * the 3δ rule measures from it, but a writer spinning out one batch
     * cannot reach 3δ, so the writer rings only when it parks (block()).
     * clear_block's load-then-conditional-store keeps the never-blocked
     * hot path at a single relaxed load; the unblock transition (cold —
     * the end just finished waiting) additionally closes the blocked
     * tracer span when this stream is being traced.
     */
    ///@{
    static void note_block( end_state &e ) noexcept
    {
        if( e.blocked_since.load( std::memory_order_relaxed ) == 0 )
        {
            e.blocked_since.store( detail::now_ns(),
                                   std::memory_order_relaxed );
        }
    }

    /** Call after a seq_cst store of what the monitor scans for (the
     *  writer's waiter bit, the reader's request): the doorbell's load
     *  then pairs with the monitor's arm(). */
    void ring_doorbell() noexcept
    {
        if( auto *bell = doorbell_.load( std::memory_order_acquire ) )
        {
            bell->ring();
        }
    }

    void clear_block( end_state &e ) noexcept
    {
        const auto since = e.blocked_since.load( std::memory_order_relaxed );
        if( since != 0 )
        {
            e.blocked_since.store( 0, std::memory_order_relaxed );
            if( telemetry::tracing() )
            {
                telemetry::span( &e == &prod_ ? telemetry_push_block()
                                              : telemetry_pop_block(),
                                 telemetry::cat::stream, since,
                                 detail::now_ns() );
            }
        }
    }
    ///@}

    /** @name park/notify (see file header, "Blocking") */
    ///@{
    static constexpr std::uint32_t prod_bit = 1;
    static constexpr std::uint32_t cons_bit = 2;
    /** pauses before a blocked end parks **/
    static constexpr int spin_limit = 64;

    /** What a spinning end waits for: this many free slots (producer) or
     *  elements (consumer), a quarter of the ring but 1 to 16, so that the
     *  ends drift a batch apart and the indices and data lines change
     *  cores once per batch rather than once per element. */
    static constexpr std::size_t slip( const std::size_t cap ) noexcept
    {
        return std::clamp<std::size_t>( cap / 4, 1, 16 );
    }

    /** Waker half: call after publishing head_ (peer = prod_bit) or tail_
     *  (peer = cons_bit). */
    void notify( const std::uint32_t peer ) noexcept
    {
        if( park_light_ )
        {
            std::atomic_signal_fence( std::memory_order_seq_cst );
        }
        else
        {
            detail::seq_cst_fence();
        }
        if( ( waiters_.load( std::memory_order_relaxed ) & peer ) != 0 )
        {
            wake( peer );
        }
    }

    /** Wake the parked ends named by `ends`, whether or not they are
     *  parked: bump their sequence words so that a futex wait about to
     *  start returns at once. */
    void wake( const std::uint32_t ends ) noexcept
    {
        waiters_.fetch_and( ~ends, std::memory_order_relaxed );
        if( ( ends & prod_bit ) != 0 )
        {
            prod_seq_.fetch_add( 1, std::memory_order_release );
            detail::futex_wake_one( prod_seq_ );
        }
        if( ( ends & cons_bit ) != 0 )
        {
            cons_seq_.fetch_add( 1, std::memory_order_release );
            detail::futex_wake_one( cons_seq_ );
        }
    }

    /** Parker half, one blocked retry of end `self`: while `spins` is
     *  below spin_limit, pause as many times as it counts (at least once)
     *  and add them to it, so the retries come after 1, 1, 2, 4 ... 32
     *  pauses; then park until a wake-up unless `ready()` (can the end
     *  proceed?) holds after the barrier. The park census counts each
     *  barrier and each wait entered. A writer rings the monitor's
     *  doorbell before it waits or naps, after its waiter bit is raised:
     *  write_blocked_since() reads that bit, so the ring and the
     *  monitor's arm() form a Dekker pair. Call outside enter()/leave(),
     *  so that a parked end never holds up resize(). */
    template <class Ready>
    void block( const std::uint32_t self, int &spins, Ready &&ready )
    {
        if( spins < spin_limit )
        {
            const int gap = std::max( spins, 1 );
            for( int i = 0; i < gap; ++i )
            {
                detail::cpu_relax();
            }
            spins += gap;
            return;
        }
        auto &seq    = self == prod_bit ? prod_seq_ : cons_seq_;
        auto &e      = self == prod_bit ? prod_ : cons_;
        const auto s = seq.load( std::memory_order_acquire );
        waiters_.fetch_or( self, std::memory_order_seq_cst );
        if( !park_light_ )
        {
            detail::seq_cst_fence();
        }
        else if( !detail::heavy_barrier() )
        {
            /** no barrier, no safe park: nap, then retry. The bit stays
             *  raised through the nap, so a napping writer counts as
             *  parked; a peer that sees it only wastes a wake-up **/
            if( self == prod_bit )
            {
                ring_doorbell();
            }
            std::this_thread::sleep_for( std::chrono::microseconds( 50 ) );
            waiters_.fetch_and( ~self, std::memory_order_relaxed );
            return;
        }
        e.park_barriers.fetch_add( 1, std::memory_order_relaxed );
        if( ready() )
        {
            waiters_.fetch_and( ~self, std::memory_order_relaxed );
            return;
        }
        e.park_waits.fetch_add( 1, std::memory_order_relaxed );
        if( self == prod_bit )
        {
            ring_doorbell();
        }
        while( seq.load( std::memory_order_acquire ) == s )
        {
            detail::futex_wait( seq, s );
        }
    }

    ///@}

    /** @name a blocked claim (see file header, "Blocking")
     * The claim's first attempt failed. Retry until it succeeds: before
     * each retry, throw if the stream is aborted (checked before drained,
     * so a cancelled graph never looks drained) or can never satisfy the
     * claim, stamp the stall, then spin or park. While spinning, a retry
     * wants a batch; once the spins are spent it wants what the first
     * attempt wanted, which is also what a parked end is woken for. Out
     * of line, with `spins` in a local: the claims that call them stay
     * small enough to inline. */
    ///@{
    [[gnu::noinline]] std::size_t
    claim_write_waiting( const std::size_t max_n, std::uint64_t &t )
    {
        int spins = 0;
        for( ;; )
        {
            await_space( spins );
            if( read_closed() )
            {
                throw_read_closed();
            }
            std::size_t k = 0;
            if( try_claim_write( max_n, spins < spin_limit, t, k ) )
            {
                clear_block( prod_ );
                return k;
            }
        }
    }

    /** A closed writer adds nothing more, so the consumer then wants only
     *  min_n. */
    [[gnu::noinline]] std::size_t claim_read_waiting( const std::size_t min_n,
                                                      const std::size_t max_n,
                                                      std::uint64_t &h )
    {
        int spins = 0;
        for( ;; )
        {
            await_data( spins, min_n );
            std::size_t k    = 0;
            const bool batch = spins < spin_limit && !write_closed();
            if( try_claim_read( min_n, max_n, batch, h, k ) )
            {
                clear_block( cons_ );
                return k;
            }
        }
    }

    /** Producer: wait until a slot is free, or the stream is closed for
     *  reading or aborted. */
    void await_space( int &spins )
    {
        throw_if_aborted( prod_ );
        note_block( prod_ );
        block( prod_bit, spins, [ this ]() {
            return static_cast<std::size_t>(
                       tail_.load( std::memory_order_relaxed ) -
                       head_.load( std::memory_order_acquire ) ) <
                       capacity_.load( std::memory_order_relaxed ) ||
                   read_closed_.load( std::memory_order_acquire ) ||
                   aborted_.load( std::memory_order_acquire );
        } );
    }

    /** Consumer: wait until `need` elements are published, or the stream
     *  is closed or aborted. A need above capacity posts the overflow
     *  demand instead and waits until the monitor's resize() grows the
     *  ring (and wakes this end). */
    void await_data( int &spins, const std::size_t need )
    {
        if( need > capacity() )
        {
            if( !auto_resize() )
            {
                throw demand_exceeds_capacity_exception(
                    "peek_range(" + std::to_string( need ) +
                    ") exceeds capacity " + std::to_string( capacity() ) +
                    " and dynamic resizing is disabled" );
            }
            const auto want = detail::pow2_ceil( need );
            if( resize_request_.exchange( want,
                                          std::memory_order_seq_cst ) !=
                want )
            {
                ring_doorbell();
            }
            throw_if_aborted( cons_ );
            note_block( cons_ );
            block( cons_bit, spins, [ this, need ]() {
                return capacity() >= need ||
                       aborted_.load( std::memory_order_acquire );
            } );
            return;
        }
        throw_if_aborted( cons_ );
        if( write_closed() &&
            static_cast<std::size_t>(
                tail_.load( std::memory_order_acquire ) -
                head_.load( std::memory_order_relaxed ) ) < need )
        {
            clear_block( cons_ );
            throw_closed( "stream drained and closed" );
        }
        note_block( cons_ );
        block( cons_bit, spins, [ this, need ]() {
            return static_cast<std::size_t>(
                       tail_.load( std::memory_order_acquire ) -
                       head_.load( std::memory_order_relaxed ) ) >= need ||
                   write_closed_.load( std::memory_order_acquire ) ||
                   aborted_.load( std::memory_order_acquire );
        } );
    }
    ///@}

    static constexpr std::int64_t park_timeout_ns = 2'000'000; /** 2 ms **/

    /** read-mostly: storage (mutated only with both ends parked), the
     *  waiter bits, the gate and the lifecycle flags **/
    alignas( cacheline_size ) T *data_{ nullptr };
    signal *sigs_{ nullptr };
    std::atomic<std::size_t> capacity_{ 0 };
    std::atomic<std::size_t> mask_{ 0 };
    /** prod_bit / cons_bit: that end is parked or about to park **/
    std::atomic<std::uint32_t> waiters_{ 0 };
    /** heavy barrier available: the waker's fence is compiler-only **/
    const bool park_light_{ detail::heavy_barrier_available() };
    std::atomic<bool> gate_{ false };
    std::atomic<std::uint8_t> handshake_{ hs_none };
    std::atomic<bool> write_closed_{ false };
    std::atomic<bool> read_closed_{ false };
    /** poisoned by graph-wide cancellation (fifo_base::abort) **/
    std::atomic<bool> aborted_{ false };
    std::atomic<bool> auto_resize_{ false };
    /** posted by a blocked reader, cleared by resize() **/
    std::atomic<std::size_t> resize_request_{ 0 };
    /** written only by resize() **/
    std::atomic<std::size_t> resize_count_{ 0 };
    std::atomic<std::uint64_t> pushed_base_{ 0 };
    std::atomic<std::uint64_t> popped_base_{ 0 };
    /** the monitor's, rung when a rule may fire (set_doorbell) **/
    std::atomic<detail::doorbell *> doorbell_{ nullptr };

    /** published indices: each alone on its line (the opposite end reads
     *  it) **/
    alignas( cacheline_size ) std::atomic<std::uint64_t> head_{ 0 };
    alignas( cacheline_size ) std::atomic<std::uint64_t> tail_{ 0 };

    /** end-private state: the consumer's shadow is of tail_, the
     *  producer's of head_ **/
    end_state cons_;
    end_state prod_;

    /** cold: bumped only to wake a parked end **/
    alignas( cacheline_size ) std::atomic<std::uint32_t> prod_seq_{ 0 };
    std::atomic<std::uint32_t> cons_seq_{ 0 };
};

} /** end namespace raft **/
