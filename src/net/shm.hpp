/**
 * shm.hpp — POSIX shared-memory stream allocation (§4.2: "Before a link
 * allocation type is selected (POSIX shared memory, heap allocated memory
 * or TCP link)...").
 *
 * A shm_ring<T> is a fixed-capacity SPSC ring living entirely inside a
 * shm_open/mmap region, so producer and consumer may be *separate
 * processes* (heavyweight-process kernels, §4.1). The control block uses
 * the same monotonic-counter publication discipline as ring_buffer; there
 * is no dynamic resizing across processes — shared-memory links use the
 * paper's buffer-cap engineering solution (§3) and are sized up front.
 *
 * shm_source / shm_sink kernels splice a typed stream through a region,
 * mirroring the tcp_source / tcp_sink pair.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <cstdint>
#include <string>
#include <type_traits>

#include "core/defs.hpp"
#include "core/exceptions.hpp"
#include "core/kernel.hpp"
#include "core/signal.hpp"

namespace raft::net {

/** RAII shm_open + mmap region. The creator owns (and unlinks) the name;
 *  attachers map an existing region. */
class shm_region
{
public:
    /** Create a fresh region of `bytes` (O_CREAT|O_EXCL). */
    static shm_region create( const std::string &name,
                              std::size_t bytes );
    /** Attach to an existing region. */
    static shm_region attach( const std::string &name,
                              std::size_t bytes );

    shm_region( shm_region &&other ) noexcept;
    shm_region &operator=( shm_region &&other ) noexcept;
    shm_region( const shm_region & )            = delete;
    shm_region &operator=( const shm_region & ) = delete;
    ~shm_region();

    void *data() const noexcept { return addr_; }
    std::size_t size() const noexcept { return bytes_; }
    const std::string &name() const noexcept { return name_; }

private:
    shm_region() = default;

    std::string name_;
    void *addr_{ nullptr };
    std::size_t bytes_{ 0 };
    bool owner_{ false };
};

namespace detail {

/** Control block at the head of the region (shared across processes). */
struct shm_ring_header
{
    std::uint64_t magic;
    std::uint64_t capacity; /**< power of two                      */
    alignas( cacheline_size ) std::atomic<std::uint64_t> head;
    alignas( cacheline_size ) std::atomic<std::uint64_t> tail;
    alignas( cacheline_size ) std::atomic<bool> write_closed;

    static constexpr std::uint64_t magic_value = 0x5248'4D53'5249'4E47;
};

} /** end namespace detail **/

/**
 * Cross-process SPSC ring over a shm_region. One side constructs with
 * role::create (sizing the region), the other with role::attach.
 */
template <class T> class shm_ring
{
    static_assert( std::is_trivially_copyable_v<T>,
                   "shared-memory streams carry trivially copyable "
                   "types" );

public:
    enum class role
    {
        create,
        attach
    };

    shm_ring( const std::string &name, const std::size_t capacity,
              const role r )
        : region_( r == role::create
                       ? shm_region::create(
                             name, region_bytes( capacity ) )
                       : shm_region::attach(
                             name, region_bytes( capacity ) ) )
    {
        header_ = static_cast<detail::shm_ring_header *>( region_.data() );
        slots_  = reinterpret_cast<slot *>( header_ + 1 );
        if( r == role::create )
        {
            header_->magic    = detail::shm_ring_header::magic_value;
            header_->capacity = raft::detail::pow2_ceil( capacity );
            header_->head.store( 0, std::memory_order_relaxed );
            header_->tail.store( 0, std::memory_order_relaxed );
            header_->write_closed.store( false,
                                         std::memory_order_release );
        }
        else if( header_->magic !=
                 detail::shm_ring_header::magic_value )
        {
            throw net_exception( "shm region '" + name +
                                 "' is not a raft ring" );
        }
    }

    std::size_t capacity() const noexcept
    {
        return header_->capacity;
    }

    std::size_t size() const noexcept
    {
        return static_cast<std::size_t>(
            header_->tail.load( std::memory_order_acquire ) -
            header_->head.load( std::memory_order_acquire ) );
    }

    bool try_push( const T &value, const signal sig = none ) noexcept
    {
        const auto t = header_->tail.load( std::memory_order_relaxed );
        const auto h = header_->head.load( std::memory_order_acquire );
        if( t - h >= header_->capacity )
        {
            return false;
        }
        auto &s = slots_[ t & ( header_->capacity - 1 ) ];
        s.value = value;
        s.sig   = sig;
        header_->tail.store( t + 1, std::memory_order_release );
        return true;
    }

    void push( const T &value, const signal sig = none )
    {
        raft::detail::backoff b;
        while( !try_push( value, sig ) )
        {
            b.pause();
        }
    }

    bool try_pop( T &out, signal *sig = nullptr ) noexcept
    {
        const auto h = header_->head.load( std::memory_order_relaxed );
        const auto t = header_->tail.load( std::memory_order_acquire );
        if( t == h )
        {
            return false;
        }
        auto &s = slots_[ h & ( header_->capacity - 1 ) ];
        out     = s.value;
        if( sig != nullptr )
        {
            *sig = s.sig;
        }
        header_->head.store( h + 1, std::memory_order_release );
        return true;
    }

    /** Blocking pop; throws closed_port_exception once drained+closed. */
    void pop( T &out, signal *sig = nullptr )
    {
        raft::detail::backoff b;
        while( !try_pop( out, sig ) )
        {
            if( write_closed() && size() == 0 )
            {
                throw closed_port_exception(
                    "shared-memory stream drained and closed" );
            }
            b.pause();
        }
    }

    void close_write() noexcept
    {
        header_->write_closed.store( true, std::memory_order_release );
    }

    bool write_closed() const noexcept
    {
        return header_->write_closed.load( std::memory_order_acquire );
    }

private:
    struct slot
    {
        T value;
        signal sig;
    };

    static std::size_t region_bytes( const std::size_t capacity )
    {
        return sizeof( detail::shm_ring_header ) +
               sizeof( slot ) * raft::detail::pow2_ceil( capacity );
    }

    shm_region region_;
    detail::shm_ring_header *header_{ nullptr };
    slot *slots_{ nullptr };
};

/** Terminal kernel: forward the input stream into a shm ring. */
template <class T> class shm_sink : public kernel
{
public:
    explicit shm_sink( std::shared_ptr<shm_ring<T>> ring )
        : kernel(), in_( input.addPort<T>( "0" ) ), ring_( std::move( ring ) )
    {
    }

    kstatus run() override
    {
        T value{};
        signal sig = none;
        try
        {
            in_.pop<T>( value, &sig );
        }
        catch( const closed_port_exception & )
        {
            ring_->close_write();
            throw;
        }
        ring_->push( value, sig );
        return raft::proceed;
    }

private:
    port &in_;
    std::shared_ptr<shm_ring<T>> ring_;
};

/** Source kernel: replay a shm ring into the local graph. */
template <class T> class shm_source : public kernel
{
public:
    explicit shm_source( std::shared_ptr<shm_ring<T>> ring )
        : kernel(), out_( output.addPort<T>( "0" ) ),
          ring_( std::move( ring ) )
    {
    }

    kstatus run() override
    {
        T value{};
        signal sig = none;
        try
        {
            ring_->pop( value, &sig );
        }
        catch( const closed_port_exception & )
        {
            return raft::stop;
        }
        out_.push<T>( std::move( value ), sig );
        return raft::proceed;
    }

private:
    port &out_;
    std::shared_ptr<shm_ring<T>> ring_;
};

} /** end namespace raft::net **/
