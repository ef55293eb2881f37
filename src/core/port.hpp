/**
 * port.hpp — named, typed communication ports.
 *
 * Each kernel "communicates with the outside world through communications
 * ports" (§4). The base kernel defines `input` and `output` port containers;
 * a port is declared with `addPort<T>("name")` and accessed with
 * `input["name"]` from inside run(). A port is essentially one end of a
 * FIFO queue; the queue itself is allocated and bound by the runtime at
 * map::exe() time, which is also when link types are checked.
 */
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <typeindex>
#include <typeinfo>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/defs.hpp"
#include "core/exceptions.hpp"
#include "core/ringbuffer.hpp"

namespace raft {

enum class port_dir : std::uint8_t
{
    in,
    out
};

namespace detail {

/**
 * Everything the runtime needs to know about a port's element type without
 * the static type: identity (for link type checking), size, arithmetic-ness
 * (for conversion-adapter eligibility) and a factory for the default stream
 * allocation (a ring_buffer<T> on the heap).
 */
struct type_meta
{
    std::type_index index{ typeid( void ) };
    std::size_t size{ 0 };
    bool arithmetic{ false };
    /** @name value-range metadata (arithmetic types only; raft::analyze
     *  uses these to flag lossy implicit conversions at links) */
    ///@{
    bool floating{ false };
    bool is_signed{ false };
    /** std::numeric_limits<T>::digits: radix-2 value bits for integers,
     *  mantissa bits for floating point — directly comparable across the
     *  int/float boundary. */
    int digits{ 0 };
    ///@}
    std::unique_ptr<fifo_base> ( *make_fifo )( std::size_t ){ nullptr };
    std::string name;

    template <class T> static type_meta of()
    {
        type_meta m;
        m.index      = std::type_index( typeid( T ) );
        m.size       = sizeof( T );
        m.arithmetic = std::is_arithmetic_v<T>;
        if constexpr( std::is_arithmetic_v<T> )
        {
            m.floating  = std::is_floating_point_v<T>;
            m.is_signed = std::is_signed_v<T>;
            m.digits    = std::numeric_limits<T>::digits;
        }
        m.make_fifo  = +[]( const std::size_t cap )
            -> std::unique_ptr<fifo_base>
        {
            return std::make_unique<ring_buffer<T>>( cap );
        };
        m.name = demangle( typeid( T ) );
        return m;
    }
};

} /** end namespace detail **/

/**
 * One named endpoint of a stream. Typed accessors are checked at run time
 * against the declared element type; a mismatch throws
 * type_mismatch_exception ("accessing a port is safe", §4). All data-path
 * methods delegate to the bound FIFO.
 */
class port
{
public:
    port( std::string name, detail::type_meta meta, const port_dir dir )
        : name_( std::move( name ) ), meta_( std::move( meta ) ),
          dir_( dir )
    {
    }

    port( const port & )            = delete;
    port &operator=( const port & ) = delete;

    /** @name identity */
    ///@{
    const std::string &name() const noexcept { return name_; }
    port_dir direction() const noexcept { return dir_; }
    const detail::type_meta &meta() const noexcept { return meta_; }
    std::type_index type() const noexcept { return meta_.index; }
    ///@}

    /** @name runtime binding (set by map::exe) */
    ///@{
    bool linked() const noexcept { return linked_; }
    void mark_linked() noexcept { linked_ = true; }
    bool bound() const noexcept { return fifo_ != nullptr; }
    void bind( fifo_base *f ) noexcept { fifo_ = f; }
    void unbind() noexcept { fifo_ = nullptr; }

    /** Bound stream, untyped (monitoring, adapters). */
    fifo_base &raw()
    {
        ensure_bound();
        return *fifo_;
    }
    ///@}

    /** @name typed data access (Figure 2 style) */
    ///@{
    template <class T> T pop()
    {
        T out{};
        typed<T>().pop( out );
        return out;
    }

    template <class T> void pop( T &out, signal *sig = nullptr )
    {
        typed<T>().pop( out, sig );
    }

    template <class T> autorelease<T> pop_s() { return typed<T>().pop_s(); }

    template <class T> void push( const T &value, const signal sig = none )
    {
        typed<T>().push( value, sig );
    }

    /** constrained to true rvalues so a deduced lvalue push( v ) selects
     *  the const-ref overload above instead of instantiating ring_buffer<T&> */
    template <class T,
              typename std::enable_if<!std::is_lvalue_reference<T>::value,
                                      int>::type = 0>
    void push( T &&value, const signal sig = none )
    {
        typed<T>().push( std::move( value ), sig );
    }

    template <class T> allocate_ref<T> allocate_s()
    {
        return typed<T>().allocate_s();
    }

    template <class T> const T &peek( signal *sig = nullptr )
    {
        return typed<T>().peek( sig );
    }

    template <class T> void unpeek() { typed<T>().unpeek(); }

    template <class T> peek_range_t<T> peek_range( const std::size_t n )
    {
        return typed<T>().peek_range( n );
    }

    void recycle( const std::size_t n = 1 )
    {
        ensure_bound();
        fifo_->recycle( n );
    }
    ///@}

    /** @name batched data access
     * The bulk duals of the Figure 2 accessors: allocate_range(n) is the
     * writer-side peek_range — an RAII window of up to n slots claimed
     * under one synchronization handshake and published with one index
     * store; pop_s(n) drains up to n elements the same way. Kernels with
     * element-at-a-time inner loops should prefer these (see DESIGN.md
     * "Batched transfer").
     */
    ///@{
    /** Claim an RAII write window of up to n slots (≥ 1). */
    template <class T> write_window_t<T> allocate_range( const std::size_t n )
    {
        return typed<T>().write_window( n );
    }

    /** Bulk pop_s: an RAII read window over up to n elements (≥ 1),
     *  consumed at scope exit. */
    template <class T> read_window_t<T> pop_s( const std::size_t n )
    {
        return typed<T>().read_window( n );
    }

    /** Blocking bulk push of all n elements of src. */
    template <class T>
    void push_n( T *src, const std::size_t n, const signal *sigs = nullptr )
    {
        typed<T>().push_n( src, n, sigs );
    }

    /** Blocking bulk pop of 1..max_n elements into dst; returns count. */
    template <class T>
    std::size_t pop_n( T *dst, const std::size_t max_n,
                       signal *sigs = nullptr )
    {
        return typed<T>().pop_n( dst, max_n, sigs );
    }

    /** Non-blocking bulk variants. */
    template <class T>
    std::size_t try_push_n( T *src, const std::size_t n,
                            const signal *sigs = nullptr )
    {
        return typed<T>().try_push_n( src, n, sigs );
    }

    template <class T>
    std::size_t try_pop_n( T *dst, const std::size_t n,
                           signal *sigs = nullptr )
    {
        return typed<T>().try_pop_n( dst, n, sigs );
    }
    ///@}

    /** @name occupancy (through the bound stream) */
    ///@{
    std::size_t size() const { return fifo_ ? fifo_->size() : 0; }
    std::size_t capacity() const { return fifo_ ? fifo_->capacity() : 0; }
    std::size_t space_avail() const
    {
        return fifo_ ? fifo_->space_avail() : 0;
    }
    bool drained() const { return fifo_ == nullptr || fifo_->drained(); }
    bool writable() const { return fifo_ != nullptr && fifo_->writable(); }
    ///@}

    /**
     * Typed view of the bound stream. Every call checks both that a stream
     * is bound and that T is the declared element type, in one inline
     * branch; building the exception's message is left to the cold
     * throw_bad_access, so the checked path costs a compare, not a stack
     * frame. Throws port_exception before binding and
     * type_mismatch_exception on a wrong T.
     */
    template <class T>
    [[gnu::always_inline]] ring_buffer<T> &typed()
    {
        if( fifo_ == nullptr ||
            std::type_index( typeid( T ) ) != meta_.index )
        {
            throw_bad_access( typeid( T ) );
        }
        return *static_cast<ring_buffer<T> *>( fifo_ );
    }

private:
    void ensure_bound() const
    {
        if( fifo_ == nullptr )
        {
            throw port_exception( "port '" + name_ +
                                  "' accessed before the runtime bound a "
                                  "stream (did you run map::exe()?)" );
        }
    }

    /** typed()'s failure path: unbound first, then the type mismatch */
    [[noreturn, gnu::cold, gnu::noinline]] void
    throw_bad_access( const std::type_info &asked ) const
    {
        ensure_bound();
        throw type_mismatch_exception( "port '" + name_ + "' carries " +
                                       meta_.name + ", accessed as " +
                                       detail::demangle( asked ) );
    }

    std::string name_;
    detail::type_meta meta_;
    port_dir dir_;
    fifo_base *fifo_{ nullptr };
    bool linked_{ false };
};

/**
 * Insertion-ordered collection of named ports; the `input` / `output`
 * members of every kernel. "Port container objects can contain any type of
 * port" (§4) — element types are per-port.
 *
 * Lookup by name is an inline linear scan: a kernel declares one to four
 * ports, so comparing a few short names beats building a std::string and
 * hashing it on every `input["0"]`. A miss goes to the cold throw_no_port,
 * which alone builds the message. Even so a lookup costs a scan plus
 * typed()'s check on every access, so the library's own kernels resolve
 * each port once in their constructor and keep the `port &` (ports live as
 * long as their kernel; clone() builds fresh ones).
 */
class port_container
{
public:
    explicit port_container( const port_dir dir ) : dir_( dir ) {}

    port_container( const port_container & )            = delete;
    port_container &operator=( const port_container & ) = delete;

    /** Declare one or more ports of element type T. Returns the last one. */
    template <class T, class... Names>
    port &addPort( const std::string &name, Names &&...more )
    {
        port &p = add_one<T>( name );
        if constexpr( sizeof...( more ) > 0 )
        {
            return addPort<T>( std::forward<Names>( more )... );
        }
        else
        {
            return p;
        }
    }

    /**
     * Runtime-internal: declare a port from an existing type_meta. The
     * auto-parallelization and type-conversion adapters are type-erased, so
     * they mint their ports from the metas of the ports they splice into.
     */
    port &add_with_meta( const std::string &name,
                         const detail::type_meta &meta )
    {
        if( has( name ) )
        {
            throw port_exception( "port '" + name + "' declared twice" );
        }
        ports_.push_back( std::make_unique<port>( name, meta, dir_ ) );
        return *ports_.back();
    }

    /** Lookup by name; throws port_exception if absent. */
    port &operator[]( const std::string_view name )
    {
        return const_cast<port &>( std::as_const( *this )[ name ] );
    }

    const port &operator[]( const std::string_view name ) const
    {
        if( const port *p = find( name ) )
        {
            return *p;
        }
        throw_no_port( name );
    }

    bool has( const std::string_view name ) const noexcept
    {
        return find( name ) != nullptr;
    }

    std::size_t count() const noexcept { return ports_.size(); }
    port_dir direction() const noexcept { return dir_; }

    /** @name iteration (insertion order) */
    ///@{
    auto begin() { return deref_iter{ ports_.begin() }; }
    auto end() { return deref_iter{ ports_.end() }; }
    auto begin() const { return deref_citer{ ports_.begin() }; }
    auto end() const { return deref_citer{ ports_.end() }; }
    ///@}

private:
    template <class T> port &add_one( const std::string &name )
    {
        if( has( name ) )
        {
            throw port_exception( "port '" + name + "' declared twice" );
        }
        ports_.push_back( std::make_unique<port>(
            name, detail::type_meta::of<T>(), dir_ ) );
        return *ports_.back();
    }

    [[noreturn, gnu::cold, gnu::noinline]] static void
    throw_no_port( const std::string_view name )
    {
        throw port_exception( "no port named '" + std::string( name ) +
                              "'" );
    }

    const port *find( const std::string_view name ) const noexcept
    {
        for( const auto &p : ports_ )
        {
            if( p->name() == name )
            {
                return p.get();
            }
        }
        return nullptr;
    }

    struct deref_iter
    {
        std::vector<std::unique_ptr<port>>::iterator it;
        port &operator*() const { return **it; }
        deref_iter &operator++()
        {
            ++it;
            return *this;
        }
        bool operator!=( const deref_iter &o ) const { return it != o.it; }
    };

    struct deref_citer
    {
        std::vector<std::unique_ptr<port>>::const_iterator it;
        const port &operator*() const { return **it; }
        deref_citer &operator++()
        {
            ++it;
            return *this;
        }
        bool operator!=( const deref_citer &o ) const { return it != o.it; }
    };

    port_dir dir_;
    std::vector<std::unique_ptr<port>> ports_;
};

/** Paper-style alias: lambda kernels receive `Port &input, Port &output`. */
using Port = port_container;

} /** end namespace raft **/
