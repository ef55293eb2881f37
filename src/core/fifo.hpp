/**
 * fifo.hpp — the stream abstraction.
 *
 * Every communication link between two compute kernels is a FIFO queue
 * (paper §1). This header defines:
 *
 *  - fifo_base : the type-erased interface the runtime (monitor thread,
 *                split/reduce adapters, allocator, statistics, port::raw())
 *                works with;
 *  - fifo<T>   : the typed stream, an alias of its one implementation,
 *                ring_buffer<T> (ringbuffer.hpp). Every typed operation
 *                there (push/pop, try_*, the _n bulk calls, windows,
 *                recycle, transfers) wraps one claim/commit pair per ring
 *                end;
 *  - autorelease<T> / allocate_ref<T> : the RAII return objects behind the
 *                pop_s / allocate_s accessors of Figure 2 — items are popped
 *                from the incoming queue / published to the outgoing queue
 *                when the object exits the calling scope. They hold a
 *                one-element read / write claim;
 *  - peek_range_t<T> : a window over n queued items without copying;
 *  - write_window_t<T> / read_window_t<T> : the bulk duals, holding an
 *                n-slot claim.
 *
 * All blocking operations honour end-of-stream: a blocked read on a drained
 * queue throws closed_port_exception, a blocked write on a reader-closed
 * queue likewise — the scheduler treats that exception as normal kernel
 * completion. A held claim (peek(), peek_range(), a window, an RAII
 * accessor) holds its end's handshake, so the monitor cannot resize storage
 * out from under a borrowed reference; unpeek() or the RAII destructor
 * releases it.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <typeinfo>
#include <utility>

#include "core/exceptions.hpp"
#include "core/signal.hpp"

namespace raft {

template <class T> class ring_buffer;
template <class T> class autorelease;
template <class T> class allocate_ref;
template <class T> class peek_range_t;
template <class T> class write_window_t;
template <class T> class read_window_t;

namespace detail {
class doorbell;
} /** end namespace detail **/

/** One queue end's park census: how often a blocked end, its spins
 *  spent, issued the park barrier, and how many of those parks went on to
 *  a futex wait (the rest found the peer ready in the re-check). */
struct park_counts
{
    std::uint64_t barriers{ 0 };
    std::uint64_t waits{ 0 };
};

/**
 * Type-erased FIFO interface. The runtime never needs to know the element
 * type: occupancy monitoring, dynamic resizing, element transfer between
 * same-typed queues (split/reduce adapters) and arithmetic conversion all
 * operate through this interface.
 */
class fifo_base
{
public:
    virtual ~fifo_base() = default;

    /** @name occupancy */
    ///@{
    virtual std::size_t size() const noexcept          = 0;
    virtual std::size_t capacity() const noexcept      = 0;
    virtual std::size_t space_avail() const noexcept   = 0;
    ///@}

    /** @name lifecycle
     * A producer-side close makes end-of-stream observable: once the queue
     * drains, blocked readers receive closed_port_exception. A reader-side
     * close (issued by the runtime when the consuming kernel terminates
     * early) unblocks and terminates producers the same way.
     */
    ///@{
    virtual void close_write() noexcept        = 0;
    virtual bool write_closed() const noexcept = 0;
    virtual void close_read() noexcept         = 0;
    virtual bool read_closed() const noexcept  = 0;
    bool drained() const noexcept { return write_closed() && size() == 0; }
    /** A push returns at once: there is space, or the reader has gone and
     *  the push throws closed_port_exception. */
    bool writable() const noexcept
    {
        return space_avail() > 0 || read_closed();
    }

    /**
     * Graph-wide cancellation: poison the stream. Every blocked (or about
     * to block) push/pop/claim wakes with stream_aborted_exception instead
     * of spinning on a live queue whose peers will never make progress
     * again. Elements still queued are abandoned — an aborted stream's
     * data is by definition incomplete. Idempotent, safe from any thread.
     */
    virtual void abort() noexcept        = 0;
    virtual bool aborted() const noexcept = 0;
    ///@}

    /** @name dynamic resizing (monitor thread)
     * resize() parks both queue ends via the gate protocol (see
     * ring_buffer), relocates elements unwrapped, and swaps storage. It
     * gives up and returns false if an end cannot be parked within a bounded
     * wait (the monitor simply retries next tick, §4's "only under certain
     * conditions to maximize resizing efficiency").
     */
    ///@{
    virtual bool resize( std::size_t new_capacity ) = 0;
    /** Reader overflow demand (peek_range larger than capacity); 0 if none. */
    virtual std::size_t resize_request() const noexcept = 0;
    /** ns timestamp when the writer began blocking; 0 if not blocked. */
    virtual std::int64_t write_blocked_since() const noexcept = 0;
    /** ns timestamp when the reader began blocking; 0 if not blocked. */
    virtual std::int64_t read_blocked_since() const noexcept = 0;
    /** Number of completed resizes over the queue's lifetime. */
    virtual std::size_t resize_count() const noexcept = 0;
    /** Monitor registration: permits reader-overflow demands to grow the
     *  queue instead of throwing demand_exceeds_capacity_exception. */
    virtual void set_auto_resize( bool enabled ) noexcept = 0;
    virtual bool auto_resize() const noexcept             = 0;
    /** Monitor registration: the queue rings `bell` when its writer starts
     *  to block and when its reader posts a resize request — the two
     *  events that let a monitor rule fire. nullptr detaches. */
    virtual void set_doorbell( detail::doorbell *bell ) noexcept = 0;
    ///@}

    /** Consume n elements without reading them, blocking until all n
     *  have arrived (type-erased so ports can expose it without a
     *  template parameter). */
    virtual void recycle( std::size_t n = 1 ) = 0;

    /** @name adapters */
    ///@{
    /**
     * Move up to max_n elements (with their signals) into dst, which must
     * carry the same element type, under one claim per queue end and one
     * index publication each. Non-blocking: returns the number moved (0
     * when this queue is empty, dst is full, or the types differ). Throws
     * closed_port_exception if dst's reader terminated. Used by the
     * default split/reduce adapters so they remain fully type-erased.
     */
    virtual std::size_t try_transfer_n( fifo_base &dst,
                                        std::size_t max_n ) = 0;
    /** Move one element; false when none moved. */
    bool try_transfer_to( fifo_base &dst )
    {
        return try_transfer_n( dst, 1 ) == 1;
    }
    ///@}

    /** @name introspection */
    ///@{
    virtual const std::type_info &value_type() const noexcept = 0;
    virtual std::size_t element_size() const noexcept         = 0;
    /** Monotonic lifetime counters (survive resizes). */
    virtual std::uint64_t total_pushed() const noexcept = 0;
    virtual std::uint64_t total_popped() const noexcept = 0;
    /** Park census of the writer and reader ends (relaxed counters,
     *  bumped only on the park path). */
    virtual park_counts write_parks() const noexcept = 0;
    virtual park_counts read_parks() const noexcept  = 0;
    ///@}

    /** @name raw arithmetic access (conversion adapters)
     * The map's type checker inserts a conversion kernel when two linked
     * arithmetic ports disagree on type ("the run-time selects the narrowest
     * convertible type for each link type and casts the types at each
     * endpoint", §4.2). The adapter is type-erased, so it moves values as
     * doubles through these hooks. Only arithmetic-element queues implement
     * them; others return false.
     */
    ///@{
    virtual bool try_pop_as_double( double &out, signal &sig )      = 0;
    virtual bool try_push_from_double( double value, signal sig )   = 0;
    ///@}

    /** @name telemetry (runtime/telemetry/)
     * Interned tracer name ids for this stream's blocked-on-push /
     * blocked-on-pop spans, set by the active telemetry session at stream
     * registration. 0 (the default) means "not traced" — the ring buffer
     * skips span emission entirely, so untraced graphs pay nothing beyond
     * the tracer's one relaxed load.
     */
    ///@{
    void set_telemetry_names( const std::uint32_t push_block,
                              const std::uint32_t pop_block ) noexcept
    {
        tele_push_block_ = push_block;
        tele_pop_block_  = pop_block;
    }
    std::uint32_t telemetry_push_block() const noexcept
    {
        return tele_push_block_;
    }
    std::uint32_t telemetry_pop_block() const noexcept
    {
        return tele_pop_block_;
    }
    ///@}

private:
    std::uint32_t tele_push_block_{ 0 };
    std::uint32_t tele_pop_block_{ 0 };
};

/**
 * The typed stream kernels use through their ports. It has one
 * implementation, so it is the ring itself: blocking push/pop, claim-based
 * peek, sliding-window peek_range (§3), batched windows and try_* variants
 * for adapters all live on ring_buffer<T>.
 */
template <class T> using fifo = ring_buffer<T>;

/**
 * RAII result of pop_s(): a reference to the head of the incoming queue that
 * pops automatically "when the variable exits the calling scope" (§4.2). The
 * associated synchronous signal is available through sig().
 */
template <class T> class autorelease
{
public:
    explicit autorelease( fifo<T> &f ) : fifo_( &f )
    {
        value_ = &fifo_->claim_head( sig_ );
    }

    autorelease( autorelease &&other ) noexcept
        : fifo_( other.fifo_ ), value_( other.value_ ), sig_( other.sig_ )
    {
        other.fifo_  = nullptr;
        other.value_ = nullptr;
    }

    autorelease( const autorelease & )            = delete;
    autorelease &operator=( const autorelease & ) = delete;
    autorelease &operator=( autorelease && )      = delete;

    ~autorelease()
    {
        if( fifo_ != nullptr )
        {
            fifo_->consume_head();
        }
    }

    T &operator*() noexcept { return *value_; }
    const T &operator*() const noexcept { return *value_; }
    T *operator->() noexcept { return value_; }
    const T *operator->() const noexcept { return value_; }

    /** Synchronous signal delivered with this element. */
    signal sig() const noexcept { return sig_; }

private:
    fifo<T> *fifo_;
    T *value_;
    signal sig_{ none };
};

/**
 * RAII result of allocate_s(): a writable reference to a slot at the tail of
 * the outgoing queue, pushed automatically at scope exit (§4.2, Figure 2).
 * The element is constructed in place — zero copies on the send path.
 */
template <class T> class allocate_ref
{
public:
    explicit allocate_ref( fifo<T> &f ) : fifo_( &f )
    {
        value_ = fifo_->claim_tail();
    }

    allocate_ref( allocate_ref &&other ) noexcept
        : fifo_( other.fifo_ ), value_( other.value_ ), sig_( other.sig_ )
    {
        other.fifo_  = nullptr;
        other.value_ = nullptr;
    }

    allocate_ref( const allocate_ref & )            = delete;
    allocate_ref &operator=( const allocate_ref & ) = delete;
    allocate_ref &operator=( allocate_ref && )      = delete;

    ~allocate_ref()
    {
        if( fifo_ != nullptr )
        {
            fifo_->publish_tail( sig_ );
        }
    }

    T &operator*() noexcept { return *value_; }
    T *operator->() noexcept { return value_; }

    /** Set the synchronous signal to publish with this element. */
    void set_signal( const signal s ) noexcept { sig_ = s; }

private:
    fifo<T> *fifo_;
    T *value_;
    signal sig_{ none };
};

/**
 * Sliding window over the next n queued elements (§3: "the stream access
 * pattern is often that of a sliding window... accommodated through a
 * peek_range function"). Elements stay in the queue; indexing handles ring
 * wrap transparently. The consumer claim is held for the window's lifetime,
 * deferring any monitor resize. Call recycle(k) afterwards (or let the
 * window release and pop nothing) to slide.
 */
template <class T> class peek_range_t
{
public:
    peek_range_t( fifo<T> &f, const std::size_t n ) : fifo_( &f ), size_( n )
    {
        fifo_->claim_window( n, &data_, &start_, &mask_ );
    }

    peek_range_t( peek_range_t &&other ) noexcept
        : fifo_( other.fifo_ ), data_( other.data_ ), start_( other.start_ ),
          mask_( other.mask_ ), size_( other.size_ )
    {
        other.fifo_ = nullptr;
    }

    peek_range_t( const peek_range_t & )            = delete;
    peek_range_t &operator=( const peek_range_t & ) = delete;
    peek_range_t &operator=( peek_range_t && )      = delete;

    ~peek_range_t()
    {
        if( fifo_ != nullptr )
        {
            fifo_->release_head();
        }
    }

    std::size_t size() const noexcept { return size_; }

    const T &operator[]( const std::size_t i ) const noexcept
    {
        return data_[ ( start_ + i ) & mask_ ];
    }

private:
    fifo<T> *fifo_;
    T *data_{ nullptr };
    std::uint64_t start_{ 0 };
    std::size_t mask_{ 0 };
    std::size_t size_;
};

/**
 * RAII result of write_window(n): between 1 and n contiguous writable slots
 * claimed under one resize-gate handshake, published with one index store
 * when the window leaves scope. The bulk dual of allocate_ref. Assign
 * through operator[]; publish(k) trims the published prefix (unassigned
 * claimed slots are destroyed unpublished). Holding the window parks the
 * monitor exactly like a held allocate_s claim.
 */
template <class T> class write_window_t
{
public:
    write_window_t( fifo<T> &f, const std::size_t n ) : fifo_( &f )
    {
        claimed_ = fifo_->claim_write_window( n == 0 ? 1 : n, &data_,
                                              &sigs_, &start_, &mask_ );
        publish_ = claimed_;
    }

    write_window_t( write_window_t &&other ) noexcept
        : fifo_( other.fifo_ ), data_( other.data_ ), sigs_( other.sigs_ ),
          start_( other.start_ ), mask_( other.mask_ ),
          claimed_( other.claimed_ ), publish_( other.publish_ )
    {
        other.fifo_ = nullptr;
    }

    write_window_t( const write_window_t & )            = delete;
    write_window_t &operator=( const write_window_t & ) = delete;
    write_window_t &operator=( write_window_t && )      = delete;

    ~write_window_t()
    {
        if( fifo_ != nullptr )
        {
            fifo_->publish_write_window( claimed_, publish_ );
        }
    }

    /** Slots claimed (1 ≤ size() ≤ requested n). */
    std::size_t size() const noexcept { return claimed_; }

    T &operator[]( const std::size_t i ) noexcept
    {
        return data_[ ( start_ + i ) & mask_ ];
    }

    /** Signal shipped with slot i (defaults to none). */
    void set_signal( const std::size_t i, const signal s ) noexcept
    {
        sigs_[ ( start_ + i ) & mask_ ] = s;
    }

    /** Signal on the last slot that will publish (eos convention). */
    void set_signal( const signal s ) noexcept
    {
        if( publish_ > 0 )
        {
            set_signal( publish_ - 1, s );
        }
    }

    /** Publish only the first k claimed slots (k ≤ size()). */
    void publish( const std::size_t k ) noexcept
    {
        publish_ = ( k < claimed_ ) ? k : claimed_;
    }

private:
    fifo<T> *fifo_;
    T *data_{ nullptr };
    signal *sigs_{ nullptr };
    std::uint64_t start_{ 0 };
    std::size_t mask_{ 0 };
    std::size_t claimed_{ 0 };
    std::size_t publish_{ 0 };
};

/**
 * RAII result of read_window(n): between 1 and n readable elements claimed
 * under one handshake, consumed (destroyed + single head advance) when the
 * window leaves scope. The bulk dual of autorelease. Elements may be moved
 * out through operator[]; keep(k) retains the last size()-k elements in the
 * queue instead of consuming them.
 */
template <class T> class read_window_t
{
public:
    read_window_t( fifo<T> &f, const std::size_t n ) : fifo_( &f )
    {
        claimed_ = fifo_->claim_read_window( n == 0 ? 1 : n, &data_,
                                             &sigs_, &start_, &mask_ );
        consume_ = claimed_;
    }

    read_window_t( read_window_t &&other ) noexcept
        : fifo_( other.fifo_ ), data_( other.data_ ), sigs_( other.sigs_ ),
          start_( other.start_ ), mask_( other.mask_ ),
          claimed_( other.claimed_ ), consume_( other.consume_ )
    {
        other.fifo_ = nullptr;
    }

    read_window_t( const read_window_t & )            = delete;
    read_window_t &operator=( const read_window_t & ) = delete;
    read_window_t &operator=( read_window_t && )      = delete;

    ~read_window_t()
    {
        if( fifo_ != nullptr )
        {
            fifo_->consume_read_window( consume_ );
        }
    }

    /** Elements claimed (1 ≤ size() ≤ requested n). */
    std::size_t size() const noexcept { return claimed_; }

    T &operator[]( const std::size_t i ) noexcept
    {
        return data_[ ( start_ + i ) & mask_ ];
    }

    const T &operator[]( const std::size_t i ) const noexcept
    {
        return data_[ ( start_ + i ) & mask_ ];
    }

    /** Signal delivered with element i. */
    signal sig( const std::size_t i ) const noexcept
    {
        return sigs_[ ( start_ + i ) & mask_ ];
    }

    /** Consume only the first k claimed elements (k ≤ size()); the rest
     *  stay queued. */
    void consume( const std::size_t k ) noexcept
    {
        consume_ = ( k < claimed_ ) ? k : claimed_;
    }

private:
    fifo<T> *fifo_;
    T *data_{ nullptr };
    signal *sigs_{ nullptr };
    std::uint64_t start_{ 0 };
    std::size_t mask_{ 0 };
    std::size_t claimed_{ 0 };
    std::size_t consume_{ 0 };
};

} /** end namespace raft **/
