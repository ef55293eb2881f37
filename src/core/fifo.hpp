/**
 * fifo.hpp — the stream abstraction.
 *
 * Every communication link between two compute kernels is a FIFO queue
 * (paper §1). This header defines:
 *
 *  - fifo_base : the type-erased interface the runtime (monitor thread,
 *                split/reduce adapters, allocator, statistics) works with;
 *  - fifo<T>   : the typed interface kernels use through their ports, with
 *                blocking push/pop, claim-based peek, sliding-window
 *                peek_range (§3), and try_* variants for adapters;
 *  - autorelease<T> / allocate_ref<T> : the RAII return objects behind the
 *                pop_s / allocate_s accessors of Figure 2 — items are popped
 *                from the incoming queue / published to the outgoing queue
 *                when the object exits the calling scope;
 *  - peek_range_t<T> : a window over n queued items without copying.
 *
 * Concrete implementation: ring_buffer<T> (ringbuffer.hpp); the TCP link of
 * the distributed substrate wraps a ring_buffer with pump threads
 * (net/tcp_link.hpp), so kernels observe identical semantics either way.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <typeinfo>
#include <utility>

#include "core/exceptions.hpp"
#include "core/signal.hpp"

namespace raft {

template <class T> class fifo;
template <class T> class autorelease;
template <class T> class allocate_ref;
template <class T> class peek_range_t;
template <class T> class write_window_t;
template <class T> class read_window_t;

namespace detail {
class doorbell;
} /** end namespace detail **/

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

    /** Consume n elements without reading them (type-erased so ports can
     *  expose it without a template parameter; releases any held claim). */
    virtual void recycle( std::size_t n = 1 ) = 0;

    /** @name adapters */
    ///@{
    /**
     * Move one element (with its signal) from this queue into dst, which
     * must carry the same element type. Non-blocking: returns false if this
     * queue is empty, dst is full, or the types differ. Used by the default
     * split/reduce adapters so they remain fully type-erased.
     */
    virtual bool try_transfer_to( fifo_base &dst ) = 0;
    /**
     * Batched variant: move up to max_n elements (with their signals) into
     * dst under a single handshake entry per queue end and one index
     * publication per contiguous run. Returns the number moved (0 when this
     * queue is empty, dst is full, or the types differ). May throw
     * closed_port_exception if dst's reader terminated, exactly like
     * try_transfer_to.
     */
    virtual std::size_t try_transfer_n( fifo_base &dst,
                                        std::size_t max_n ) = 0;
    ///@}

    /** @name introspection */
    ///@{
    virtual const std::type_info &value_type() const noexcept = 0;
    virtual std::size_t element_size() const noexcept         = 0;
    /** Monotonic lifetime counters (survive resizes). */
    virtual std::uint64_t total_pushed() const noexcept = 0;
    virtual std::uint64_t total_popped() const noexcept = 0;
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
 * Typed FIFO interface. All blocking operations honour end-of-stream: a
 * blocked read on a drained queue throws closed_port_exception, a blocked
 * write on a reader-closed queue likewise — the scheduler treats that
 * exception as normal kernel completion.
 *
 * Claim discipline (single-producer / single-consumer): peek()/peek_range()
 * hold the consumer-side claim so the monitor cannot resize storage out from
 * under a borrowed reference; the claim is released by pop()/recycle()/
 * unpeek() or by the RAII wrapper's destructor.
 */
template <class T> class fifo : public fifo_base
{
public:
    using value_type = T;

    /** @name blocking element operations */
    ///@{
    virtual void push( const T &value, signal sig = none ) = 0;
    virtual void push( T &&value, signal sig = none )      = 0;
    virtual void pop( T &out, signal *sig = nullptr )      = 0;

    /** Borrow the head element; holds the consumer claim (see class docs). */
    virtual const T &peek( signal *sig = nullptr ) = 0;
    /** Release a claim taken by peek() without consuming the element. */
    virtual void unpeek() noexcept = 0;
    ///@}

    /** @name non-blocking variants (adapters, pool scheduler) */
    ///@{
    virtual bool try_push( T &&value, signal sig = none ) = 0;
    virtual bool try_pop( T &out, signal *sig = nullptr ) = 0;
    ///@}

    /** @name claim primitives behind the RAII accessors */
    ///@{
    /** Block until an element is readable, take the consumer claim and
     *  return a reference to the head element. */
    virtual T &claim_head( signal &sig ) = 0;
    /** Consume the claimed head and release the claim. */
    virtual void consume_head() noexcept = 0;
    /** Release the claim without consuming. */
    virtual void release_head() noexcept = 0;
    /** Block until a slot is writable, take the producer claim and return a
     *  pointer to a default-constructed element in place. */
    virtual T *claim_tail() = 0;
    /** Publish the claimed tail slot with signal `sig`, release the claim. */
    virtual void publish_tail( signal sig ) noexcept = 0;
    /** Destroy the claimed tail slot unpublished, release the claim. */
    virtual void abandon_tail() noexcept = 0;
    /** Block until n elements are readable (growing the queue through the
     *  monitor if n exceeds capacity), take the consumer claim and return
     *  the window geometry: base slot array, logical start, index mask. */
    virtual void claim_window( std::size_t n,
                               T **data,
                               std::uint64_t *start,
                               std::size_t *mask ) = 0;
    ///@}

    /** @name batched transfer primitives
     * The window claims are the bulk duals of claim_tail/claim_head: N
     * contiguous slots are acquired under a single resize-gate handshake
     * entry and published/consumed with a single index store. A held window
     * parks the monitor exactly like a held claim_head — the resize protocol
     * is unchanged. Partial semantics: claims return at least 1 and at most
     * max_n slots (whatever is free/occupied when the claim succeeds), so
     * callers batch opportunistically without adding latency.
     */
    ///@{
    /** Move up to n elements from src[0..n) into the queue (non-blocking).
     *  Returns the number actually transferred; moved-from sources are left
     *  in their moved-from state (the caller owns their destruction). sigs
     *  may be null (every element ships signal `none`). */
    virtual std::size_t try_push_n( T *src, std::size_t n,
                                    const signal *sigs = nullptr ) = 0;
    /** Pop up to n elements into dst[0..n) (non-blocking). Returns the
     *  number transferred; sigs (if non-null) receives the per-element
     *  signals. */
    virtual std::size_t try_pop_n( T *dst, std::size_t n,
                                   signal *sigs = nullptr ) = 0;
    /** Block until at least one slot is writable, default-construct
     *  min(max_n, space) slots, take the producer claim and return the
     *  claimed count plus window geometry (slot array, signal array,
     *  logical start, index mask). Throws closed_port_exception when the
     *  reader terminated. */
    virtual std::size_t claim_write_window( std::size_t max_n,
                                            T **data,
                                            signal **sigs,
                                            std::uint64_t *start,
                                            std::size_t *mask ) = 0;
    /** Publish the first n of `claimed` window slots (single index store),
     *  destroy the rest, release the producer claim. */
    virtual void publish_write_window( std::size_t claimed,
                                       std::size_t n ) noexcept = 0;
    /** Block until at least one element is readable, take the consumer
     *  claim and return min(max_n, occupancy) plus the window geometry.
     *  Throws closed_port_exception once drained and closed. */
    virtual std::size_t claim_read_window( std::size_t max_n,
                                           T **data,
                                           signal **sigs,
                                           std::uint64_t *start,
                                           std::size_t *mask ) = 0;
    /** Destroy the first n claimed elements, advance the head with a single
     *  index store, release the consumer claim. */
    virtual void consume_read_window( std::size_t n ) noexcept = 0;
    ///@}

    /** @name sugar: the Figure 2 access style */
    ///@{
    autorelease<T> pop_s() { return autorelease<T>( *this ); }
    allocate_ref<T> allocate_s() { return allocate_ref<T>( *this ); }
    peek_range_t<T> peek_range( const std::size_t n )
    {
        return peek_range_t<T>( *this, n );
    }
    /** Bulk dual of allocate_s(): an RAII window of up to n writable slots,
     *  published at scope exit. */
    write_window_t<T> write_window( const std::size_t n )
    {
        return write_window_t<T>( *this, n );
    }
    /** Bulk dual of pop_s(): an RAII window over up to n readable elements,
     *  consumed at scope exit. */
    read_window_t<T> read_window( const std::size_t n )
    {
        return read_window_t<T>( *this, n );
    }
    ///@}

    /** @name blocking bulk helpers (window-based, single publication per
     *  claimed run) */
    ///@{
    /** Push all n elements of src, blocking as needed; the signals array
     *  (when non-null) travels element-for-element. */
    void push_n( T *src, const std::size_t n, const signal *sigs = nullptr )
    {
        std::size_t done = 0;
        while( done < n )
        {
            T *data            = nullptr;
            signal *slot_sigs  = nullptr;
            std::uint64_t start = 0;
            std::size_t mask    = 0;
            const auto k = claim_write_window( n - done, &data, &slot_sigs,
                                               &start, &mask );
            for( std::size_t i = 0; i < k; ++i )
            {
                data[ ( start + i ) & mask ] = std::move( src[ done + i ] );
                if( sigs != nullptr )
                {
                    slot_sigs[ ( start + i ) & mask ] = sigs[ done + i ];
                }
            }
            publish_write_window( k, k );
            done += k;
        }
    }

    /** Pop between 1 and max_n elements into dst, blocking until at least
     *  one is available. Returns the count. */
    std::size_t pop_n( T *dst, const std::size_t max_n,
                       signal *sigs = nullptr )
    {
        T *data            = nullptr;
        signal *slot_sigs  = nullptr;
        std::uint64_t start = 0;
        std::size_t mask    = 0;
        const auto k = claim_read_window( max_n, &data, &slot_sigs, &start,
                                          &mask );
        for( std::size_t i = 0; i < k; ++i )
        {
            dst[ i ] = std::move( data[ ( start + i ) & mask ] );
            if( sigs != nullptr )
            {
                sigs[ i ] = slot_sigs[ ( start + i ) & mask ];
            }
        }
        consume_read_window( k );
        return k;
    }
    ///@}

    const std::type_info &value_type_info() const noexcept
    {
        return typeid( T );
    }
};

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
